"""Test helpers for PayLess users (and this repo's own suite).

Downstream code that builds on PayLess usually wants two things in its
tests: a small deterministic market to run against, and an *oracle* — the
query evaluated over full local copies of every market table — to compare
results with.  Both live here as public, documented API.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.payless import PayLess
from repro.market.binding import BindingPattern
from repro.market.dataset import Dataset
from repro.market.pricing import PricingPolicy
from repro.market.server import DataMarket
from repro.relational.database import Database
from repro.relational.engine import ExecutionConfig, evaluate
from repro.relational.operators import Relation
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType


def tiny_weather_market(
    stations: Sequence[tuple[str, int, str]] = (
        ("CountryA", 1, "Alpha"),
        ("CountryA", 2, "Alpha"),
        ("CountryA", 3, "Beta"),
        ("CountryB", 4, "Delta"),
    ),
    days: int = 10,
    tuples_per_transaction: int = 10,
) -> DataMarket:
    """A deterministic WHW-like market for tests.

    ``stations`` is a list of ``(country, station_id, city)``; Weather gets
    one row per station per day with ``Temperature = station_id*10 + day``.
    """
    countries = sorted({s[0] for s in stations})
    cities = sorted({s[2] for s in stations})
    ids = [s[1] for s in stations]
    station_schema = Schema(
        [
            Attribute("Country", AttributeType.STRING, Domain.categorical(countries)),
            Attribute(
                "StationID", AttributeType.INT, Domain.numeric(min(ids), max(ids))
            ),
            Attribute("City", AttributeType.STRING, Domain.categorical(cities)),
        ]
    )
    weather_schema = Schema(
        [
            Attribute("Country", AttributeType.STRING, Domain.categorical(countries)),
            Attribute(
                "StationID", AttributeType.INT, Domain.numeric(min(ids), max(ids))
            ),
            Attribute("Date", AttributeType.DATE, Domain.numeric(1, days)),
            Attribute("Temperature", AttributeType.FLOAT),
        ]
    )
    weather_rows = [
        (country, sid, day, float(sid * 10 + day))
        for country, sid, __ in stations
        for day in range(1, days + 1)
    ]
    dataset = Dataset(
        "WHW", PricingPolicy(tuples_per_transaction=tuples_per_transaction)
    )
    dataset.add_table(
        Table("Station", station_schema, list(stations)),
        BindingPattern.parse("Station", "Countryf, StationIDf, Cityf"),
    )
    dataset.add_table(
        Table("Weather", weather_schema, weather_rows),
        BindingPattern.parse("Weather", "Countryf, StationIDf, Datef"),
    )
    market = DataMarket()
    market.publish(dataset)
    return market


def registered_payless(market: DataMarket, **kwargs: Any) -> PayLess:
    """A PayLess install with every published dataset registered."""
    payless = PayLess.full(market, **kwargs)
    for dataset in market:
        payless.register_dataset(dataset.name)
    return payless


def oracle_evaluate(
    payless: PayLess, sql: str, params: Sequence[Any] = ()
) -> Relation:
    """Evaluate ``sql`` over full local copies of every market table.

    The ground truth PayLess's answers must match, whatever plan it chose
    and whatever the semantic store held.  Runs on the row-at-a-time
    reference engine, so it is also an independent check of the
    vectorized operators PayLess executes with by default.
    """
    logical = payless.compile(sql, params)
    database = Database()
    for name in logical.tables:
        if payless.context.is_market(name):
            __, market_table = payless.market.find_table(name)
            clone = Table(name, market_table.schema)
            clone.extend(market_table.table.rows)
            database.add(clone)
        else:
            database.add(payless.local_db.table(name))
    return evaluate(database, logical, ExecutionConfig(engine="reference"))


def assert_matches_oracle(
    payless: PayLess, sql: str, params: Sequence[Any] = ()
) -> None:
    """Run ``sql`` through PayLess and assert it equals the oracle."""
    result = payless.query(sql, params)
    expected = oracle_evaluate(payless, sql, params)
    got = sorted(result.rows, key=repr)
    want = sorted(expected.rows, key=repr)
    assert got == want, (
        f"PayLess answer diverges from oracle for {sql!r}:\n"
        f"  got:  {got[:5]}...\n  want: {want[:5]}..."
    )


def assert_store_holds_only_paid_rows(payless: PayLess) -> None:
    """Assert every row the store caches came back from a billed call.

    Each cached row of a market table must match the request of some
    ledger entry on that table: the store holds nothing it did not pay
    for, whatever it chose to buy.
    """
    ledger = list(payless.market.ledger)
    for dataset in payless.market:
        for market_table in dataset:
            name = market_table.name
            if not payless.store.has_table(name):
                continue
            requests = [
                entry.request
                for entry in ledger
                if entry.request.table.lower() == name.lower()
            ]
            for row in payless.store.table(name).all_rows():
                assert any(
                    request.matches(row, market_table.schema)
                    for request in requests
                ), f"{name}: cached row {row!r} was never paid for"
