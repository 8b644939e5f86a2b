"""Integration: the paper's Q1-Q5 templates on generated data vs an oracle.

Runs every Table 1 template through the full stack (parser → optimizer →
rewriter → market → executor → local engine) and checks the result equals
evaluating the same query over full local copies of the market tables.
"""

import pytest

from repro.bench.harness import build_system
from repro.relational.database import Database
from repro.relational.engine import evaluate
from repro.relational.table import Table
from repro.workloads.weather import (
    TEMPLATES,
    WeatherConfig,
    WeatherInstanceGenerator,
    generate_weather_workload,
)


@pytest.fixture(scope="module")
def setup():
    data = generate_weather_workload(
        WeatherConfig(
            countries=2,
            stations_per_country=6,
            cities_per_country=4,
            days=15,
            zip_codes_per_city=2,
            max_rank=20,
            tuples_per_transaction=10,
        )
    )
    payless = build_system("payless", data)
    generator = WeatherInstanceGenerator(data, seed=23)
    return data, payless, generator


def oracle(payless, sql, params):
    database = Database()
    logical = payless.compile(sql, params)
    for name in logical.tables:
        if payless.context.is_market(name):
            __, market_table = payless.market.find_table(name)
            clone = Table(name, market_table.schema)
            clone.extend(market_table.table.rows)
            database.add(clone)
        else:
            database.add(payless.local_db.table(name))
    return evaluate(database, logical)


@pytest.mark.parametrize("template", sorted(TEMPLATES))
def test_template_matches_oracle(setup, template):
    __, payless, generator = setup
    for __round in range(3):
        instance = generator.instance(template)
        result = payless.query(instance.sql, instance.params)
        expected = oracle(payless, instance.sql, instance.params)
        got = sorted(result.rows, key=repr)
        want = sorted(expected.rows, key=repr)
        if template in ("Q2", "Q3"):
            # Aggregates: compare group keys and approximate values.
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[:-1] == w[:-1]
                assert g[-1] == pytest.approx(w[-1])
        else:
            assert got == want


def test_session_cheaper_than_download(setup):
    data, payless, generator = setup
    for instance in generator.session(3):
        payless.query(instance.sql, instance.params)
    download_bound = sum(
        -(-len(mt.table) // 10)
        for ds in data.datasets
        for mt in ds
    )
    assert payless.total_transactions <= download_bound * 2


def test_spend_flattens_once_everything_cached(setup):
    """After enough queries the store covers the hot regions: a second
    replay of the same session must be free."""
    data, payless, generator = setup
    session = generator.session(2)
    for instance in session:
        payless.query(instance.sql, instance.params)
    replay_cost = sum(
        payless.query(i.sql, i.params).stats.transactions for i in session
    )
    assert replay_cost == 0
