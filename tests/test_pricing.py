"""The planner prices in dollars through each dataset's ``PricingPolicy``.

Equation (1) bills ``p · ceil(rows / t)`` per dataset, and the optimizer
minimises money: with one dataset per table and a different ``p`` each,
the plan it picks is the dollar-minimal one, not the transaction-minimal
one, and a common factor on every ``p`` scales every cost without moving
the plan.
"""

from __future__ import annotations

import math
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BindingPattern, DataMarket, Dataset, PricingPolicy, Table
from repro.core.plans import JoinNode, MarketAccessNode
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.testing import oracle_evaluate, registered_payless
from repro.workloads.synthetic import make_join_graph


def _repriced_graph(shape: str, n: int, prices: list[float]):
    """A synthetic join graph with each table in a dataset of its own,
    ``prices[i]`` a page."""
    data = make_join_graph(shape, n, domain_high=32)
    market = DataMarket()
    for index, (market_table, price) in enumerate(zip(data.dataset, prices)):
        dataset = Dataset(f"D{index}", PricingPolicy(10, price))
        dataset.add_table(market_table.table, market_table.pattern)
        market.publish(dataset)
    return registered_payless(market), data.sql


def _shape(plan) -> str:
    """``plan.describe()`` without its prices."""
    return re.sub(r"φ≈\S+ ", "", plan.describe())


#: Page prices in [0.05, 20] on a 1/128 grid.  Binary fractions keep
#: every plan cost exact, before and after scaling: two join orders of the
#: same accesses tie exactly and the DP keeps the first seen.  Off the
#: grid, such a tie is decided by how each order's sum rounds, and a
#: factor can round it the other way.
PRICES = st.integers(min_value=7, max_value=2560).map(lambda m: m / 128)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["chain", "star"]),
    prices=st.lists(PRICES, min_size=2, max_size=4),
    factor=st.sampled_from([0.5, 3.0, 7.25]),
)
def test_a_common_price_factor_scales_costs_and_keeps_the_plan(
    shape, prices, factor
):
    base, sql = _repriced_graph(shape, len(prices), prices)
    scaled, __ = _repriced_graph(
        shape, len(prices), [price * factor for price in prices]
    )
    planned = base.explain(sql)
    rescaled = scaled.explain(sql)
    assert _shape(rescaled.plan) == _shape(planned.plan)
    assert math.isclose(rescaled.cost, factor * planned.cost, rel_tol=1e-9)


def _two_price_market(cheap: float, dear: float) -> DataMarket:
    """A (100 rows, one K1 value) at ``cheap`` a page; B (30 rows, one K2
    value) at ``dear``.  Binding B from A's single K1 is one call; binding
    A from B's single K2 is one call too — but B whole is 3 pages and A
    whole is 10."""
    a = Schema([
        Attribute("K1", T.INT, Domain.numeric(1, 1)),
        Attribute("K2", T.INT, Domain.numeric(1, 100)),
    ])
    b = Schema([
        Attribute("K1", T.INT, Domain.numeric(1, 100)),
        Attribute("K2", T.INT, Domain.numeric(1, 1)),
    ])
    market = DataMarket()
    for name, table, price in (
        ("CHEAP", Table("A", a, [(1, k) for k in range(1, 101)]), cheap),
        ("DEAR", Table("B", b, [(k, 1) for k in range(1, 31)]), dear),
    ):
        dataset = Dataset(name, PricingPolicy(10, price))
        dataset.add_table(
            table, BindingPattern.parse(table.name, "K1f, K2f")
        )
        market.publish(dataset)
    return market


TWO_PRICE_SQL = "SELECT * FROM A, B WHERE A.K1 = B.K1 AND A.K2 = B.K2"


def _outer_and_bound(plan) -> tuple[str, str]:
    assert isinstance(plan, JoinNode) and plan.bind
    assert isinstance(plan.left, MarketAccessNode)
    return plan.left.table, plan.right.table


def test_the_transaction_minimal_plan_is_not_the_dollar_minimal_one():
    """At $1 a page everywhere, B whole + A bound is 4 pages.  At $0.05
    for A and $20 for B that plan bills $60.05; A whole + B bound is 11
    pages but $20.50, and is the one planned and billed."""
    flat = registered_payless(_two_price_market(1.0, 1.0))
    assert _outer_and_bound(flat.explain(TWO_PRICE_SQL).plan) == ("B", "A")
    assert flat.query(TWO_PRICE_SQL).stats.transactions == 4

    payless = registered_payless(_two_price_market(0.05, 20.0))
    planned = payless.explain(TWO_PRICE_SQL)
    assert _outer_and_bound(planned.plan) == ("A", "B")
    assert planned.cost == 20.5
    result = payless.query(TWO_PRICE_SQL)
    assert result.stats.transactions == 11
    assert result.stats.price == planned.cost
    assert sorted(result.rows) == sorted(
        oracle_evaluate(payless, TWO_PRICE_SQL).rows
    )
