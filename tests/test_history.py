"""Query-history log on the facade."""

import pytest

from repro.core.payless import HISTORY_KEEP
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

    def test_history_is_a_bounded_ring(self, payless):
        """A constant number of entries is kept (most recent last); the
        sequence numbers keep counting past it."""
        sql = "SELECT * FROM Station WHERE Country = 'CountryA'"
        for __ in range(HISTORY_KEEP + 5):
            payless.query(sql)
        assert len(payless.history) == HISTORY_KEEP
        assert payless.history[0].sequence == 6
        assert payless.history[-1].sequence == HISTORY_KEEP + 5
        assert payless.queries_executed == HISTORY_KEEP + 5
