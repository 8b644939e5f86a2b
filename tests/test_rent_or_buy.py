"""Rent or buy: a table whose running spend would pass its whole-table
price is bought whole.

The rewriter keeps renting (buying what an access misses) while
``spent + access <= θ · whole``; past it, the access is one unconstrained
call for the whole table, priced exactly from the published cardinality.
Under weak consistency a table bought whole is never billed again, so at
the default θ = 1 no table costs more than twice its whole-table price
plus what one rented access cost beyond its estimate, and on the
Download-All arm (θ = 0) every table costs exactly its whole-table price.
These tests pin the rule on hand-picked sessions, across restarts and
X-week expiry, and as a property over random sessions on random tables
on both arms.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PayLess, QueryOptions
from repro.market.binding import BindingPattern
from repro.market.dataset import Dataset
from repro.market.pricing import PricingPolicy
from repro.market.server import DataMarket
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.semstore.consistency import ConsistencyPolicy
from repro.testing import (
    assert_store_holds_only_paid_rows,
    oracle_evaluate,
    registered_payless,
    tiny_weather_market,
)

WINDOW = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = ? AND Date >= ? AND Date <= ?"
)

#: On ``tiny_weather_market(days=10, tuples_per_transaction=5)`` Weather
#: has 40 rows, $8 whole.  The first three windows rent for $2 + $5 + $1:
#: the third lands exactly on $8, a tie, so it still rents; the fourth
#: ($2 more) buys the table whole.
SESSION = (
    ("CountryA", 4, 5),
    ("CountryA", 1, 10),
    ("CountryB", 4, 5),
    ("CountryB", 1, 10),
)


def weather_market():
    return tiny_weather_market(days=10, tuples_per_transaction=5)


def weather_calls(payless):
    return [
        entry for entry in payless.market.ledger
        if entry.request.table == "Weather"
    ]


class TestTheRule:
    def test_rents_through_the_tie_then_buys_whole(self):
        payless = registered_payless(weather_market())
        bills = [payless.query(WINDOW, params).stats.price for params in SESSION]
        assert bills == [2.0, 5.0, 1.0, 8.0]
        whole = weather_calls(payless)[-1]
        assert whole.request.constraints == () and whole.record_count == 40
        assert payless.store.spent("Weather") == 16.0
        # Every later Weather access is covered.
        for params in [("CountryA", 1, 3), ("CountryB", 7, 10)]:
            assert payless.query(WINDOW, params).stats.transactions == 0
        assert len(weather_calls(payless)) == 5

    def test_the_comparison_is_strict(self):
        payless = registered_payless(weather_market())
        for params in SESSION[:2]:
            payless.query(WINDOW, params)
        rewrite = payless.rewriter.rewrite(
            "Weather",
            payless.compile(WINDOW, SESSION[2]).constraints_for("Weather"),
            payless.context.pricing("Weather"),
        )
        assert payless.store.spent("Weather") + rewrite.estimated_price == 8.0
        assert rewrite.whole_table is None

    def test_a_free_table_is_never_bought_whole(self):
        market = weather_market()
        market.dataset("WHW").pricing = PricingPolicy(
            tuples_per_transaction=5, price_per_transaction=0.0
        )
        payless = registered_payless(market)
        for params in SESSION:
            payless.query(WINDOW, params)
        assert all(entry.request.constraints for entry in weather_calls(payless))

    def test_strong_consistency_never_buys_whole(self):
        payless = registered_payless(
            weather_market(), consistency=ConsistencyPolicy.strong()
        )
        for params in SESSION * 2:
            payless.query(WINDOW, params)
        assert all(entry.request.constraints for entry in weather_calls(payless))

    def test_metrics_show_both_sides_in_dollars(self):
        payless = registered_payless(weather_market())
        payless.query(WINDOW, SESSION[0])
        view = payless.metrics()
        assert view["Weather.dollars_spent"] == 2.0
        assert view["Weather.whole_table_dollars"] == 8.0
        assert view["Weather.spent_over_whole"] == 0.25
        # A table the installation never paid for has no entries.
        assert not any(key.startswith("Station.") for key in view)


class TestXWeekConsistency:
    @pytest.mark.parametrize("weeks_passed, bill", [(0, 8.0), (3, 2.0)])
    def test_expired_spend_stops_counting(self, weeks_passed, bill):
        """Within the window the fourth window buys whole; once the rented
        covers expire, so does their spend, and it rents again."""
        payless = registered_payless(
            weather_market(), consistency=ConsistencyPolicy.weeks(2)
        )
        for params in SESSION[:3]:
            payless.query(WINDOW, params)
        payless.store.advance_clock(weeks_passed)
        assert payless.query(WINDOW, SESSION[3]).stats.price == bill
        assert payless.store.spent("Weather") == (16.0 if weeks_passed == 0 else 2.0)


def durable(market, state_dir):
    payless = registered_payless(
        market, options=QueryOptions(durability=state_dir)
    )
    payless.recover()
    return payless


class TestRestart:
    @pytest.mark.parametrize("clean_close", [True, False])
    def test_a_restart_does_not_rent_again(self, tmp_path, clean_close):
        """Spend survives the snapshot and the WAL replay alike: after a
        restart the fourth window buys whole, as without one, and a
        restart after that buys nothing more."""
        market = weather_market()
        first = durable(market, tmp_path)
        for params in SESSION[:3]:
            first.query(WINDOW, params)
        if clean_close:
            first.close()
        else:
            first.durability.abandon()

        second = durable(market, tmp_path)
        assert second.store.spent("Weather") == 8.0
        assert second.query(WINDOW, SESSION[3]).stats.price == 8.0
        second.close()

        third = durable(market, tmp_path)
        assert third.store.spent("Weather") == 16.0
        for params in SESSION:
            assert third.query(WINDOW, params).stats.transactions == 0
        third.close()


# -- the property ---------------------------------------------------------------

KINDS = ("a", "b", "c")
DAYS = 12


def small_market(tables, tuples_per_transaction):
    """``(Kind, Day, Value)`` tables with every attribute free, so a call
    may leave the whole table unconstrained."""
    schema = Schema(
        [
            Attribute("Kind", AttributeType.STRING, Domain.categorical(KINDS)),
            Attribute("Day", AttributeType.INT, Domain.numeric(1, DAYS)),
            Attribute("Value", AttributeType.FLOAT),
        ]
    )
    dataset = Dataset(
        "SMALL", PricingPolicy(tuples_per_transaction=tuples_per_transaction)
    )
    for name, rows in tables.items():
        dataset.add_table(
            Table(name, schema, rows), BindingPattern.parse(name, "Kindf, Dayf")
        )
    market = DataMarket()
    market.publish(dataset)
    return market


@st.composite
def markets(draw):
    """One or two tables of distinct ``(Kind, Day, Value)`` rows."""
    tables = {}
    for index in range(draw(st.integers(1, 2))):
        points = draw(
            st.lists(
                st.tuples(st.sampled_from(KINDS), st.integers(1, DAYS)),
                min_size=1,
                max_size=40,
            )
        )
        tables[f"T{index}"] = [
            (kind, day, float(position))
            for position, (kind, day) in enumerate(points)
        ]
    return tables, draw(st.sampled_from([2, 3, 5]))


@st.composite
def queries(draw, tables):
    """A filtered scan of one table, or an equi-join of two on ``Day``."""
    names = sorted(tables)
    joined = len(names) == 2 and draw(st.booleans())
    chosen = names if joined else [draw(st.sampled_from(names))]
    predicates, params = [], []
    for name in chosen:
        if draw(st.booleans()):
            predicates.append(f"{name}.Kind = ?")
            params.append(draw(st.sampled_from(KINDS)))
        if draw(st.booleans()):
            low = draw(st.integers(1, DAYS))
            predicates.append(f"{name}.Day >= ? AND {name}.Day <= ?")
            params.extend([low, draw(st.integers(low, DAYS))])
    if joined:
        predicates.append("T0.Day = T1.Day")
        sql = "SELECT T0.Value, T1.Value FROM T0, T1"
    else:
        sql = f"SELECT * FROM {chosen[0]}"
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql, tuple(params)


@st.composite
def sessions(draw):
    tables, page = draw(markets())
    return tables, page, draw(st.lists(queries(tables), min_size=4, max_size=16))


#: The installation per buy threshold θ: ski rental, and Download All.
ARMS = {1.0: PayLess.full, 0.0: PayLess.download_all}


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(session=sessions(), threshold=st.sampled_from(sorted(ARMS)))
def test_random_sessions_rent_then_buy_once(session, threshold):
    tables, page, session_queries = session
    payless = ARMS[threshold](small_market(tables, page), tracing=True)
    payless.register_dataset("SMALL")
    assert payless.rewriter.buy_threshold == threshold
    whole = {name: -(-len(rows) // page) * 1.0 for name, rows in tables.items()}
    spent = dict.fromkeys(tables, 0.0)
    overshoot = dict.fromkeys(tables, 0.0)
    bought_whole = dict.fromkeys(tables, False)
    for sql, params in session_queries:
        result = payless.query(sql, params)
        want = oracle_evaluate(payless, sql, params)
        assert sorted(result.rows, key=repr) == sorted(want.rows, key=repr)
        for span in result.trace.spans("table_fetch"):
            attrs = span.attrs
            table, price = attrs["table"], attrs.get("price", 0.0)
            if bought_whole[table]:
                assert price == 0, f"{table} billed after it was bought whole"
            elif attrs.get("whole_table"):
                # Spend before it: at most θ times the whole-table price,
                # plus what the last rented access cost beyond its estimate.
                assert spent[table] <= threshold * whole[table] + overshoot[table]
                assert price == whole[table]
                bought_whole[table] = True
            elif price:
                estimate = attrs["estimated_transactions"] * 1.0
                assert spent[table] + estimate <= threshold * whole[table]
                overshoot[table] = max(0.0, price - estimate)
            spent[table] += price
    for table, dollars in spent.items():
        assert dollars == payless.store.spent(table)
        if threshold:
            assert dollars <= 2 * whole[table] + overshoot[table]
        else:
            # Bought whole at first touch, for exactly its price, or never
            # touched at all.
            assert dollars == (whole[table] if bought_whole[table] else 0.0)
    assert_store_holds_only_paid_rows(payless)
