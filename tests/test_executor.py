"""Executor tests: results must equal an all-local oracle evaluation."""

import pytest

from repro.relational.database import Database
from repro.relational.engine import evaluate
from repro.relational.table import Table


def oracle(payless, market, sql, params=()):
    """Evaluate the query against full local copies of every market table."""
    database = Database()
    logical = payless.compile(sql, params)
    for name in logical.tables:
        if payless.context.is_market(name):
            __, market_table = market.find_table(name)
            clone = Table(name, market_table.schema)
            clone.extend(market_table.table.rows)
            database.add(clone)
        else:
            database.add(payless.local_db.table(name))
    return evaluate(database, logical)


def as_multiset(relation_or_rows):
    rows = getattr(relation_or_rows, "rows", relation_or_rows)
    return sorted(rows, key=repr)


CASES = [
    ("SELECT * FROM Station", ()),
    ("SELECT * FROM Station WHERE Country = 'CountryA'", ()),
    ("SELECT * FROM Weather WHERE Date >= 3 AND Date <= 5", ()),
    (
        "SELECT Temperature FROM Station, Weather "
        "WHERE City = 'Beta' AND Station.Country = 'CountryA' "
        "AND Station.StationID = Weather.StationID",
        (),
    ),
    (
        "SELECT City, AVG(Temperature) FROM Station, Weather "
        "WHERE Station.Country = Weather.Country = ? "
        "AND Weather.Date >= ? AND Weather.Date <= ? "
        "AND Station.StationID = Weather.StationID GROUP BY City",
        ("CountryA", 2, 4),
    ),
    ("SELECT COUNT(*) FROM Weather WHERE Country = 'CountryB'", ()),
    (
        "SELECT * FROM Weather WHERE Country = 'CountryA' OR Country = 'CountryB'",
        (),
    ),
    ("SELECT * FROM Station WHERE City IN ('Alpha', 'Delta')", ()),
    (
        "SELECT StationID FROM Weather WHERE Temperature >= 35.0 AND Date = 1",
        (),
    ),
    ("SELECT DISTINCT Country FROM Station", ()),
    ("SELECT * FROM Weather WHERE Date = 12345", ()),  # empty result
]


@pytest.mark.parametrize("sql,params", CASES)
def test_results_match_oracle(mini_payless, mini_weather_market, sql, params):
    result = mini_payless.query(sql, params)
    expected = oracle(mini_payless, mini_weather_market, sql, params)
    assert as_multiset(result.relation) == as_multiset(expected)


@pytest.mark.parametrize("sql,params", CASES)
def test_results_match_oracle_without_sqr(
    mini_weather_market, sql, params
):
    from repro import PayLess

    payless = PayLess.without_sqr(mini_weather_market)
    payless.register_dataset("WHW")
    result = payless.query(sql, params)
    expected = oracle(payless, mini_weather_market, sql, params)
    assert as_multiset(result.relation) == as_multiset(expected)


def test_repeated_query_is_free_and_identical(mini_payless):
    sql = "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 4"
    first = mini_payless.query(sql)
    second = mini_payless.query(sql)
    assert second.stats.transactions == 0
    assert as_multiset(first.relation) == as_multiset(second.relation)


def test_overlapping_query_pays_only_for_missing(mini_payless):
    first = mini_payless.query(
        "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 5"
    )
    second = mini_payless.query(
        "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 7"
    )
    assert first.stats.transactions > 0
    # Days 6-7 for 4 stations = 8 rows = 1 transaction at t=10.
    assert second.stats.transactions == 1


def test_bind_join_with_empty_left_side(mini_payless):
    result = mini_payless.query(
        "SELECT Temperature FROM Station, Weather "
        "WHERE City = 'Nowhere' AND Station.StationID = Weather.StationID"
    )
    assert result.rows == []
    # The Station probe may cost a call, but Weather must not be fetched.
    assert result.stats.transactions <= 1


def test_local_join_with_market(mini_payless_with_local, mini_weather_market):
    sql = (
        "SELECT Temperature FROM CityInfo, Station, Weather "
        "WHERE CityInfo.Zone = 2 AND CityInfo.City = Station.City "
        "AND Station.StationID = Weather.StationID AND Weather.Date = 1"
    )
    result = mini_payless_with_local.query(sql)
    expected = oracle(mini_payless_with_local, mini_weather_market, sql)
    assert as_multiset(result.relation) == as_multiset(expected)


def test_plan_shape_flip_never_rebuys(mini_payless):
    """Regression: a repeat that switches from a bind-join plan to a direct
    fetch buys only the *new* region (stations the bind join skipped), and
    a third issue is fully covered and free."""
    sql = (
        "SELECT Temperature FROM Station, Weather "
        "WHERE Weather.Date >= 1 AND Weather.Date <= 4 "
        "AND Weather.Country = 'CountryB' AND Station.City = 'Alpha' "
        "AND Station.StationID = Weather.StationID"
    )
    first = mini_payless.query(sql)
    second = mini_payless.query(sql)
    third = mini_payless.query(sql)
    assert second.stats.transactions <= first.stats.transactions
    assert third.stats.transactions == 0
    assert first.rows == second.rows == third.rows == []


def test_fetched_records_reported(mini_payless):
    result = mini_payless.query(
        "SELECT * FROM Weather WHERE Country = 'CountryB'"
    )
    assert result.stats.records == 20
    assert result.stats.transactions == 2
