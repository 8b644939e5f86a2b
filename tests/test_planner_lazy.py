"""Vector first, tree on acceptance: what the DP may construct, and when.

The planner costs a candidate as bare floats, allocates a ``_SubPlan``
only for a candidate its frontier keeps, and builds
``JoinNode``/``MarketAccessNode`` objects only for what is read back.
These tests count constructions during ``optimize()``, check the chosen
plans against the cross-commit pin, and guard the one ordering trap of
the per-query join index: ``optimize_suffix`` installs its cardinality
overlay after the per-run reset, so an index built too early would divide
by the shared estimates instead of the observed counts.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import build_system
from repro.core.executor import Executor
from repro.core.objectives import QueryOptions
from repro.core.optimizer import Optimizer, _SubPlan
from repro.core.plans import JoinNode, MarketAccessNode, MaterializedNode
from repro.stats.overlay import CardinalityOverlay
from repro.workloads.synthetic import make_join_graph

from .test_planner_pin import OBJECTIVES, PIN_PATH


def _count_constructions(monkeypatch, cls, built: dict) -> None:
    original = cls.__init__

    def counting(self, *args, **kwargs):
        built[cls.__name__] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of plan-node constructions, by class name."""
    built = {"JoinNode": 0, "MarketAccessNode": 0}
    for cls in (JoinNode, MarketAccessNode):
        _count_constructions(monkeypatch, cls, built)
    return built


def _nodes(plan):
    yield plan
    if isinstance(plan, JoinNode):
        yield from _nodes(plan.left)
        yield from _nodes(plan.right)


GRAPHS = [("chain", 8), ("star", 8), ("clique", 6)]


def _plan(shape, n, objective, before=lambda: None):
    data = make_join_graph(shape, n)
    payless = build_system(
        "payless", data, options=QueryOptions(plan_cache_size=0)
    )
    logical = payless.compile(data.sql)
    before()
    return Optimizer(payless.context, OBJECTIVES[objective]).optimize(logical)


@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
@pytest.mark.parametrize("shape,n", GRAPHS)
def test_rejected_candidates_build_nothing(constructions, shape, n, objective):
    planning = _plan(
        shape, n, objective,
        before=lambda: constructions.update(JoinNode=0, MarketAccessNode=0),
    )

    assert planning.evaluated_plans > 10 * n
    assert planning.pruned_plans > 0
    assert sum(constructions.values()) <= planning.kept_plans
    # Tighter than "accepted only": the DP reads back one tree, the
    # chosen one, plus the per-table direct accesses every candidate shares.
    tree = list(_nodes(planning.plan))
    joins = [node for node in tree if isinstance(node, JoinNode)]
    binds = [
        node for node in tree
        if isinstance(node, MarketAccessNode) and node.bind_attributes
    ]
    assert constructions["JoinNode"] == len(joins) == n - 1
    assert constructions["MarketAccessNode"] <= n + len(binds)

    pinned = json.loads(PIN_PATH.read_text())[f"{shape}-{n}-ddefault"]
    assert planning.plan.describe() == pinned[objective]["plan"]


@pytest.mark.parametrize("objective", sorted(OBJECTIVES))
@pytest.mark.parametrize("shape,n", GRAPHS)
def test_rejected_candidates_allocate_nothing(monkeypatch, shape, n, objective):
    """A candidate is tested against its subset's frontier before its
    ``_SubPlan`` exists: one per kept candidate (a Theorem-3 product
    included), plus the direct-access leaf of each table."""
    built = {"_SubPlan": 0}
    planning = _plan(
        shape, n, objective,
        before=lambda: _count_constructions(monkeypatch, _SubPlan, built),
    )
    assert planning.pruned_plans > 0
    assert built["_SubPlan"] <= planning.kept_plans + n


class TestSuffixIndexSeesTheOverlay:
    OBSERVED_DISTINCT = 1000.0
    PREFIX_ROWS = 50.0

    @pytest.fixture
    def chain(self):
        data = make_join_graph("chain", 4, domain_high=32)
        payless = build_system(
            "payless", data, options=QueryOptions(plan_cache_size=0)
        )
        return payless, payless.compile(data.sql)

    def _suffix(self, optimizer, logical, overlay, old_steps=()):
        prefix = MaterializedNode(
            relations=frozenset(["t1"]), cost=0.0,
            estimated_rows=self.PREFIX_ROWS, tables=("t1",),
        )
        suffix = optimizer.optimize_suffix(
            logical, prefix, overlay=overlay, old_steps=old_steps
        )
        assert suffix is not None
        (step,) = [
            node for node in _nodes(suffix.plan)
            if isinstance(node, JoinNode) and node.left is prefix
        ]
        return suffix, step

    @pytest.mark.parametrize("warm", [False, True])
    def test_join_divisor_is_the_observed_distinct_count(self, chain, warm):
        payless, logical = chain
        (join,) = [
            j for j in logical.joins
            if {t.lower() for t in j.tables()} == {"t1", "t2"}
        ]
        column = join.side_for("T1").column
        overlay = CardinalityOverlay()
        overlay.set_distinct("T1", column, self.OBSERVED_DISTINCT)

        optimizer = Optimizer(payless.context)
        if warm:
            # A static plan first: its index (shared estimates) must not
            # survive into the overlaid suffix plan on the same instance.
            optimizer.optimize(logical)
        __, shared_step = self._suffix(optimizer, logical, None)
        suffix, step = self._suffix(optimizer, logical, overlay)

        assert step.right.table == "T2"
        assert step.estimated_rows == (
            self.PREFIX_ROWS * step.right.estimated_rows
            / self.OBSERVED_DISTINCT
        )
        assert step.estimated_rows < shared_step.estimated_rows
        fresh, fresh_step = self._suffix(
            Optimizer(payless.context), logical, overlay
        )
        assert fresh.plan.describe() == suffix.plan.describe()
        assert fresh_step.estimated_rows == step.estimated_rows

    def test_old_steps_are_recosted_under_the_overlay(self, chain):
        payless, logical = chain
        overlay = CardinalityOverlay()
        for join in logical.joins:
            for ref in (join.left, join.right):
                overlay.set_distinct(ref.table, ref.column, 1.0)
        # One distinct value per join column makes bind joins one call each.
        observed, __ = self._suffix(
            Optimizer(payless.context), logical, overlay
        )
        __, steps = Executor._linearize(observed.plan)
        assert steps and all(step.bind for step in steps)

        def old_cost(overlay):
            optimizer = Optimizer(payless.context)
            suffix, __ = self._suffix(optimizer, logical, overlay, tuple(steps))
            return suffix.old_cost

        assert old_cost(overlay) == observed.cost == float(len(steps))
        assert old_cost(None) > observed.cost
