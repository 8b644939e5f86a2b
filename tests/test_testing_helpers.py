"""The public test-helper module must itself behave."""

import pytest

from repro.testing import (
    assert_matches_oracle,
    oracle_evaluate,
    registered_payless,
    tiny_weather_market,
)


class TestTinyMarket:
    def test_default_shape(self):
        market = tiny_weather_market()
        __, station = market.find_table("Station")
        __, weather = market.find_table("Weather")
        assert len(station.table) == 4
        assert len(weather.table) == 40

    def test_custom_stations(self):
        market = tiny_weather_market(
            stations=(("X", 7, "Solo"),), days=3
        )
        __, weather = market.find_table("Weather")
        assert len(weather.table) == 3
        assert weather.table.rows[0] == ("X", 7, 1, 71.0)


class TestOracle:
    def test_oracle_matches_plain_scan(self):
        payless = registered_payless(tiny_weather_market())
        relation = oracle_evaluate(payless, "SELECT * FROM Station")
        assert len(relation.rows) == 4

    def test_assert_matches_oracle_passes(self):
        payless = registered_payless(tiny_weather_market())
        assert_matches_oracle(
            payless,
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.StationID = Weather.StationID",
        )

    def test_assert_matches_oracle_catches_divergence(self):
        payless = registered_payless(tiny_weather_market())
        result = payless.query("SELECT * FROM Station")
        # Sabotage a cached value in place to force a divergence on the
        # repeat.  City is a categorical axis, so its coordinates live in
        # their own list and the chunk index still finds the row.
        store = payless.store.table("Station")
        city = store.schema.position("City")
        store._columns[city][-1] = "bogus"  # noqa: SLF001
        with pytest.raises(AssertionError):
            assert_matches_oracle(payless, "SELECT * FROM Station")
