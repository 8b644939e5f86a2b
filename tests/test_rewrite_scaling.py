"""Scaling pins for the front half of a rewrite over a fragmented table.

A bind join over *n* order keys asks the store for *n* point boxes.  What
that costs must not depend on *n* more than linearly: the store decomposes
once per distinct *cover signature* (the clipped covers a key meets), and a
snapped fallback's cover set is an AND of per-axis bitmasks, not a
containment test against every elementary box.  The pins below count calls,
so they hold on any machine; the wall-clock guards are loose and marked
``slow`` (``pytest -m slow``), outside the tier-1 run.
"""

import random
import sys
import time
from pathlib import Path

import pytest

import repro.core.rewriter as rewriter_module
import repro.semstore.store as store_module
from repro.core.rewriter import SemanticRewriter
from repro.market.binding import BindingPattern
from repro.market.dataset import BasicStatistics
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog

ORDERS = 4000
SHIP_MODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
#: Keys an earlier bind join left point covers for; every bind below asks
#: for them again.
EARLIER_KEYS = (17, 1203, 2999, 3500)
DIMENSIONS = 8


def lineitem():
    """A Lineitem-shaped 8-dimension table holding 12 fat covers (half of
    them end at order 2000) and the point covers of an earlier bind join."""
    domains = {
        "OrderKey": Domain.numeric(1, ORDERS),
        "PartKey": Domain.numeric(1, 500),
        "SuppKey": Domain.numeric(1, 25),
        "Quantity": Domain.numeric(1, 50),
        "ReturnFlag": Domain.categorical(["A", "N", "R"]),
        "LineStatus": Domain.categorical(["F", "O"]),
        "ShipDate": Domain.numeric(0, 2399),
        "ShipMode": Domain.categorical(SHIP_MODES),
    }
    schema = Schema(
        [
            Attribute(name, T.INT if domain.values is None else T.STRING, domain)
            for name, domain in domains.items()
        ]
        + [Attribute("ExtendedPrice", T.FLOAT)]
    )
    pattern = BindingPattern.parse(
        "Lineitem", ", ".join(f"{name}f" for name in domains)
    )
    statistics = BasicStatistics(
        60_000, {name.lower(): domain for name, domain in domains.items()}
    )
    space = BoxSpace.from_table("Lineitem", schema, pattern, statistics)
    store, catalog = SemanticStore(), Catalog()
    catalog.register("Lineitem", schema, space, statistics)
    store.register_table(space, schema)
    full = space.full_box.extents
    for index in range(12):
        extents = list(full)
        extents[0] = (1, 2000) if index % 2 else (1, ORDERS + 1)
        extents[6] = (200 * index, 200 * index + 150)  # a ShipDate window
        extents[7] = (index % 7, index % 7 + 1)  # one ShipMode
        store.record("Lineitem", Box(tuple(extents)), [])
    for key in EARLIER_KEYS:
        extents = list(full)
        extents[0] = (key, key + 1)
        extents[4] = (0, 1)  # ReturnFlag = 'A'
        store.record("Lineitem", Box(tuple(extents)), [])
    return store, catalog


def bind_constraints(count: int) -> list[AttributeConstraint]:
    keys = set(EARLIER_KEYS)
    keys.update(random.Random(count).sample(range(1, ORDERS + 1), count))
    return [AttributeConstraint("OrderKey", values=frozenset(sorted(keys)[:count]))]


class Calls:
    """Counts calls to ``wrapped`` and passes them through."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.count = 0

    def __call__(self, *args, **kwargs):
        self.count += 1
        return self.wrapped(*args, **kwargs)


@pytest.mark.parametrize("count", [25, 100, 400])
def test_a_bind_rewrite_decomposes_per_signature_and_tests_no_containment(
    count, monkeypatch
):
    store, catalog = lineitem()
    decompositions = Calls(store_module.remainder_decomposition)
    masks = Calls(rewriter_module._axis_masks)
    contains = Calls(Box.contains_box)
    monkeypatch.setattr(store_module, "remainder_decomposition", decompositions)
    monkeypatch.setattr(rewriter_module, "_axis_masks", masks)
    monkeypatch.setattr(Box, "contains_box", lambda a, b: contains(a, b))

    result = SemanticRewriter(store, catalog).rewrite(
        "Lineitem", bind_constraints(count), PricingPolicy(100)
    )

    assert len(result.request_boxes) == count and not result.fully_covered
    # Keys below / from order 2000, each with or without an earlier point
    # cover: four signatures however many keys are asked for.
    assert decompositions.count == 4
    # One bitmask table per axis for all the snapped fallbacks together.
    assert masks.count == DIMENSIONS
    assert contains.count == 0
    # What the candidate stage was handed grows with the keys, no faster:
    # 20-35 pieces a key, whichever signature it has.
    pieces = store.remainder("Lineitem", result.request_boxes)
    assert 20 * count <= len(pieces) <= 35 * count


def rewrite_seconds(count: int) -> float:
    store, catalog = lineitem()
    constraints = bind_constraints(count)
    best = float("inf")
    for __ in range(3):
        rewriter = SemanticRewriter(store, catalog)  # a fresh memo
        started = time.perf_counter()
        rewriter.rewrite("Lineitem", constraints, PricingPolicy(100))
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.slow
def test_sixteen_times_the_keys_cost_at_most_thirty_two_times_the_wall():
    assert rewrite_seconds(400) <= 32 * rewrite_seconds(25)


@pytest.mark.slow
def test_the_120_query_tpch_session_stays_interactive():
    """The end-to-end benchmark's TPC-H session at six instances per
    template (scale 0.25, the e2e session seed, data draw 70010 = seed 7,
    draw 1): 2.78 s with a 1 714 ms query before the remainder path was
    made O(n log n); 0.65 s / 178 ms after."""
    sys.path.insert(0, str(Path(__file__).parents[1] / "benchmarks" / "e2e"))
    try:
        from instances import tpch_session
        from workloads import SESSION_SEED, new_installation, publish
    finally:
        sys.path.pop(0)
    from repro.core.objectives import QueryOptions
    from repro.workloads.tpch import TpchConfig, generate_tpch_workload

    data = generate_tpch_workload(TpchConfig(scale=0.25, seed=70010))
    requests = tpch_session(data, random.Random(SESSION_SEED), 6)
    payless = new_installation(publish(data), data, QueryOptions())
    walls = []
    for sql, params in requests:
        started = time.perf_counter()
        payless.query(sql, params).rows  # noqa: B018 - materialize the answer
        walls.append(time.perf_counter() - started)
    assert len(walls) == 120
    assert sum(walls) < 1.5
    assert max(walls) < 0.4
