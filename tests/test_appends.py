"""Append-only datasets and their interplay with consistency levels.

Section 4.3 of the paper: datasets grow by periodic append; under *weak*
consistency PayLess keeps answering from its store (possibly missing newly
appended rows), *strong* always sees the latest data, and *X-week* sees
appends once the stored results age out of the window.
"""

import pytest

from repro import ConsistencyPolicy, DataMarket, PayLess
from repro.errors import MarketError

SQL = "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 10"
NEW_ROWS = [("CountryA", 1, 10, 99.0), ("CountryA", 2, 10, 98.0)]


def weather_table(market):
    __, market_table = market.find_table("Weather")
    return market_table


class TestSellerAppend:
    def test_append_grows_table(self, mini_weather_market):
        table = weather_table(mini_weather_market)
        before = len(table.table)
        assert table.append(NEW_ROWS) == 2
        assert len(table.table) == before + 2

    def test_append_outside_domain_rejected(self, mini_weather_market):
        table = weather_table(mini_weather_market)
        with pytest.raises(MarketError):
            table.append([("CountryZ", 1, 5, 1.0)])  # unpublished country
        with pytest.raises(MarketError):
            table.append([("CountryA", 1, 999, 1.0)])  # date off-domain

    def test_appended_rows_are_sold(self, mini_weather_market):
        from repro.market.rest import RestRequest, point

        table = weather_table(mini_weather_market)
        table.append(NEW_ROWS)
        response = mini_weather_market.get(
            RestRequest(
                "WHW",
                "Weather",
                (point("Country", "CountryA"), point("Date", 10)),
            )
        )
        values = {row[3] for row in response.rows}
        assert {99.0, 98.0} <= values


class TestConsistencyVsAppends:
    def _fresh(self, market, policy):
        payless = PayLess.full(market, consistency=policy)
        payless.register_dataset("WHW")
        return payless

    def test_weak_misses_appends_but_stays_free(self, mini_weather_market):
        payless = self._fresh(mini_weather_market, ConsistencyPolicy.weak())
        first = payless.query(SQL)
        weather_table(mini_weather_market).append(NEW_ROWS)
        second = payless.query(SQL)
        assert second.stats.transactions == 0          # free...
        assert len(second.rows) == len(first.rows)  # ...but stale

    def test_strong_sees_appends_immediately(self, mini_weather_market):
        payless = self._fresh(mini_weather_market, ConsistencyPolicy.strong())
        first = payless.query(SQL)
        weather_table(mini_weather_market).append(NEW_ROWS)
        second = payless.query(SQL)
        assert len(second.rows) == len(first.rows) + 2

    def test_x_week_sees_appends_after_window(self, mini_weather_market):
        payless = self._fresh(mini_weather_market, ConsistencyPolicy.weeks(2))
        first = payless.query(SQL)
        weather_table(mini_weather_market).append(NEW_ROWS)
        within_window = payless.query(SQL)
        assert len(within_window.rows) == len(first.rows)  # still stale
        payless.store.advance_clock(3)
        refreshed = payless.query(SQL)
        assert len(refreshed.rows) == len(first.rows) + 2
        assert refreshed.stats.transactions > 0  # had to re-buy the region
