"""Query-history log on the facade."""

import pytest

from repro.testing import registered_payless, tiny_weather_market


@pytest.fixture
def payless():
    return registered_payless(tiny_weather_market())


class TestHistory:
    def test_entries_appended_in_order(self, payless):
        payless.query("SELECT * FROM Station")
        payless.query("SELECT * FROM Weather WHERE Date <= 3")
        assert len(payless.history) == 2
        assert [entry.sequence for entry in payless.history] == [1, 2]

    def test_entry_contents(self, payless):
        result = payless.query(
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.StationID = Weather.StationID"
        )
        entry = payless.history[-1]
        assert entry.sql_tables == ("Station", "Weather")
        assert entry.transactions == result.stats.transactions
        assert entry.calls == result.stats.calls
        assert entry.used_bind_join is True

    def test_direct_plan_flagged(self, payless):
        payless.query("SELECT * FROM Weather")
        assert payless.history[-1].used_bind_join is False

    def test_repr_readable(self, payless):
        payless.query("SELECT * FROM Station")
        text = repr(payless.history[0])
        assert "#1" in text and "Station" in text and "trans." in text
