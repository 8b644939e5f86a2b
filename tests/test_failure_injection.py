"""Failure injection: the system must fail loudly and bill consistently.

Real markets flake; the important invariant is that a failed query leaves
the buyer-side state coherent — the ledger reflects exactly the calls that
happened, the semantic store only records data actually received, and a
retry works (and pays only for what the failed attempt didn't manage to
store).
"""

import pytest

from repro.errors import MarketError, ReproError
from repro.testing import registered_payless, tiny_weather_market


class _FlakyMarket:
    """Wraps DataMarket.get to fail on the Nth call."""

    def __init__(self, market, fail_on_call: int):
        self.market = market
        self.fail_on_call = fail_on_call
        self.calls = 0
        self._original_get = market.get

    def install(self):
        def flaky_get(request):
            self.calls += 1
            if self.calls == self.fail_on_call:
                raise MarketError("injected: service unavailable")
            return self._original_get(request)

        self.market.get = flaky_get

    def restore(self):
        self.market.get = self._original_get


JOIN_SQL = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Alpha' AND Station.StationID = Weather.StationID"
)


class TestFailureMidPlan:
    def test_error_propagates(self):
        market = tiny_weather_market()
        payless = registered_payless(market)
        flaky = _FlakyMarket(market, fail_on_call=2)
        flaky.install()
        with pytest.raises(MarketError, match="injected"):
            payless.query(JOIN_SQL)

    def test_ledger_reflects_partial_work(self):
        market = tiny_weather_market()
        payless = registered_payless(market)
        flaky = _FlakyMarket(market, fail_on_call=2)
        flaky.install()
        with pytest.raises(MarketError):
            payless.query(JOIN_SQL)
        # Exactly one successful call was billed before the failure.
        assert market.ledger.total_calls == 1

    def test_retry_succeeds_and_reuses_partial_data(self):
        market = tiny_weather_market()
        payless = registered_payless(market)
        flaky = _FlakyMarket(market, fail_on_call=2)
        flaky.install()
        with pytest.raises(MarketError):
            payless.query(JOIN_SQL)
        flaky.restore()

        result = payless.query(JOIN_SQL)
        assert len(result.rows) == 20  # stations 1 and 2, 10 days each
        # The Station call from the failed attempt was stored, so the
        # retry buys only the Weather side.
        retry_station_calls = [
            entry
            for entry in market.ledger
            if entry.request.table == "Station"
        ]
        assert len(retry_station_calls) == 1

    def test_failed_query_spend_is_in_the_bill(self):
        """The first call of a query that fails on its second is paid
        for: the running totals, the metrics view, the table's spend and
        the ledger all carry it."""
        market = tiny_weather_market()
        payless = registered_payless(market)
        flaky = _FlakyMarket(market, fail_on_call=2)
        flaky.install()
        with pytest.raises(MarketError):
            payless.query(JOIN_SQL)
        metrics = payless.metrics()
        assert market.ledger.spent.price == 1.0
        assert payless.total_price == 1.0
        assert metrics["dollars_spent"] == 1.0
        assert metrics["Station.dollars_spent"] == 1.0
        assert (payless.total_calls, payless.queries_executed) == (1, 0)

    def test_facade_totals_unchanged_on_failure(self):
        market = tiny_weather_market()
        payless = registered_payless(market)
        flaky = _FlakyMarket(market, fail_on_call=1)
        flaky.install()
        with pytest.raises(MarketError):
            payless.query("SELECT * FROM Station")
        # The facade never recorded a completed query.
        assert payless.queries_executed == 0
        assert payless.history == []
