"""Simulated REST latency: the Section 5 'dominated by calls' effect."""

import pytest

from repro import PayLess
from repro.errors import MarketError
from repro.market.latency import DEFAULT_LATENCY, INSTANT, LatencyModel


class TestModel:
    def test_affine(self):
        model = LatencyModel(round_trip_ms=100.0, per_transaction_ms=10.0)
        assert model.call_ms(0) == 100.0
        assert model.call_ms(5) == 150.0

    def test_negative_rejected(self):
        with pytest.raises(MarketError):
            LatencyModel(round_trip_ms=-1.0)
        with pytest.raises(MarketError):
            DEFAULT_LATENCY.call_ms(-1)

    def test_instant(self):
        assert INSTANT.call_ms(1000) == 0.0


class TestThroughTheStack:
    def test_query_reports_market_time(self, mini_weather_market):
        mini_weather_market.latency = LatencyModel(
            round_trip_ms=100.0, per_transaction_ms=10.0
        )
        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        result = payless.query("SELECT * FROM Station")
        # One call (1 transaction): 100 + 10 ms.
        assert result.stats.market_time_ms == pytest.approx(110.0)

    def test_cached_queries_take_no_market_time(self, mini_weather_market):
        mini_weather_market.latency = DEFAULT_LATENCY
        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        payless.query("SELECT * FROM Station")
        repeat = payless.query("SELECT * FROM Station")
        assert repeat.stats.market_time_ms == 0.0

    def test_ledger_accumulates_elapsed(self, mini_weather_market):
        mini_weather_market.latency = LatencyModel(
            round_trip_ms=50.0, per_transaction_ms=0.0
        )
        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        result = payless.query(
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.StationID = Weather.StationID"
        )
        assert mini_weather_market.ledger.total_elapsed_ms == pytest.approx(
            50.0 * result.stats.calls
        )

    def test_default_market_is_instant(self, mini_payless):
        result = mini_payless.query("SELECT * FROM Station")
        assert result.stats.market_time_ms == 0.0
