"""Planner pruning: B&B correctness, enumeration-count formulas, knobs.

Three layers of protection around the pruned optimizer:

* the ``plan_space_*`` formulas must equal the *actually enumerated*
  candidate counts from the unpruned oracle (zero-price tables
  included) — the formulas and the DP document each other;
* pruned-vs-unpruned planning must choose byte-identical plans at
  identical cost on every tested join graph (the tentpole invariant;
  the bench re-checks it at larger n);
* the new ``OptimizerOptions`` knobs must reject nonsense loudly.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_system
from repro.core.objectives import MIN_DOLLARS, PlanObjective
from repro.core.optimizer import (
    Optimizer,
    OptimizerOptions,
    plan_space_baseline,
    plan_space_payless,
)
from repro.core.plans import MaterializedNode
from repro.errors import PlanningError
from repro.obs.metrics import MetricsRegistry
from repro.workloads.synthetic import make_join_graph


def build(shape: str, n: int, metrics: MetricsRegistry | None = None):
    """A registered installation over one synthetic join graph."""
    data = make_join_graph(shape, n)
    payless, __ = build_system("payless", data, metrics=metrics)
    return payless, data


def oracle_count(payless, sql: str) -> int:
    """Candidates the exhaustive (unpruned) left-deep DP enumerates."""
    logical = payless.compile(sql)
    result = Optimizer(
        payless.context, OptimizerOptions(prune=False)
    ).optimize(logical)
    assert result.pruned_plans == 0
    return result.evaluated_plans


class TestFormulaMatchesEnumeration:
    """plan_space_*() must equal what the DP actually enumerates."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_payless_chain(self, n):
        payless, data = build("chain", n)
        assert oracle_count(payless, data.sql) == plan_space_payless(n)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("m", [1, 2])
    def test_payless_chain_with_zero_price_tables(self, n, m):
        if m >= n:
            pytest.skip("needs at least one priced table")
        payless, data = build("chain", n)
        # Buying table T1..Tm whole makes them zero-price (Theorem 2):
        # their request region is fully covered by the store.
        for i in range(1, m + 1):
            payless.query(f"SELECT * FROM T{i}")
        assert oracle_count(payless, data.sql) == plan_space_payless(
            n, zero_price=m
        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_baseline_chain(self, n):
        payless, data = build("chain", n)
        logical = payless.compile(data.sql)
        result = Optimizer(
            payless.context,
            OptimizerOptions(prune=False, use_theorems=False, use_sqr=False),
        ).optimize(logical)
        assert result.evaluated_plans == plan_space_baseline(n)


class TestPrunedPlanIdentity:
    """B&B + dominance pruning must never change the chosen plan."""

    @pytest.mark.parametrize(
        "shape,n",
        [
            ("chain", 4),
            ("chain", 6),
            ("chain", 8),
            ("star", 4),
            ("star", 6),
            ("star", 8),
            ("clique", 4),
            ("clique", 5),
        ],
    )
    def test_same_plan_and_cost(self, shape, n):
        payless, data = build(shape, n)
        logical = payless.compile(data.sql)
        pruned = Optimizer(
            payless.context, OptimizerOptions(prune=True)
        ).optimize(logical)
        oracle = Optimizer(
            payless.context, OptimizerOptions(prune=False)
        ).optimize(logical)
        assert pruned.plan.describe() == oracle.plan.describe()
        assert pruned.cost == oracle.cost
        assert pruned.pruned_plans > 0  # pruning actually did something
        assert oracle.pruned_plans == 0

    def test_plan_identity_survives_priming(self):
        """Same invariant after the store holds partial coverage."""
        payless, data = build("chain", 6)
        payless.query("SELECT * FROM T2")
        payless.query("SELECT * FROM T5 WHERE K4 = 1")
        logical = payless.compile(data.sql)
        pruned = Optimizer(
            payless.context, OptimizerOptions(prune=True)
        ).optimize(logical)
        oracle = Optimizer(
            payless.context, OptimizerOptions(prune=False)
        ).optimize(logical)
        assert pruned.plan.describe() == oracle.plan.describe()
        assert pruned.cost == oracle.cost

    def test_no_bnb_fallbacks_on_synthetic_graphs(self):
        """The greedy seed's bound never starves the full-key entry here."""
        metrics = MetricsRegistry()
        for shape in ("chain", "star", "clique"):
            payless, data = build(shape, 5, metrics=metrics)
            payless.query(data.sql)
        assert metrics.snapshot().get("plan_bnb_fallbacks", 0.0) == 0.0


class TestExhaustiveFallback:
    """A pruned space that completes no plan re-runs exhaustively — and
    says so — wherever the DP is entered."""

    @pytest.fixture
    def starved(self, monkeypatch):
        real = Optimizer._frontier_program

        def starve_pruned_runs(self, priced, seed):
            return [] if self._prune else real(self, priced, seed)

        monkeypatch.setattr(Optimizer, "_frontier_program", starve_pruned_runs)

    @pytest.mark.parametrize(
        "objective", [MIN_DOLLARS, PlanObjective.min_latency()]
    )
    def test_static_and_suffix_plans_count_the_fallback(
        self, starved, objective
    ):
        metrics = MetricsRegistry()
        payless, data = build("chain", 4, metrics=metrics)
        logical = payless.compile(data.sql)
        options = OptimizerOptions(plan_objective=objective)
        oracle = OptimizerOptions(prune=False, plan_objective=objective)

        planned = Optimizer(payless.context, options).optimize(logical)
        assert metrics.snapshot()["plan_bnb_fallbacks"] == 1.0
        expected = Optimizer(payless.context, oracle).optimize(logical)
        assert planned.plan.describe() == expected.plan.describe()

        prefix = MaterializedNode(
            relations=frozenset(["t1"]), cost=0.0, estimated_rows=8.0,
            tables=("t1",),
        )
        suffix = Optimizer(payless.context, options).optimize_suffix(
            logical, prefix
        )
        assert metrics.snapshot()["plan_bnb_fallbacks"] == 2.0
        expected = Optimizer(payless.context, oracle).optimize_suffix(
            logical, prefix
        )
        assert suffix.plan.describe() == expected.plan.describe()
        assert metrics.snapshot()["plan_bnb_fallbacks"] == 2.0


class TestPlannerMetrics:
    def test_candidate_counters_match_planning_result(self):
        metrics = MetricsRegistry()
        payless, data = build("chain", 5, metrics=metrics)
        result = payless.query(data.sql)
        snap = metrics.snapshot()
        assert snap["plan_candidates"] == result.stats.evaluated_plans
        assert snap["plan_candidates_pruned"] > 0
        assert snap["planning_us_count"] == 1
        assert snap["planning_us_sum"] > 0

    def test_explain_reports_kept_and_pruned(self):
        payless, data = build("chain", 4)
        explanation = payless.explain(data.sql)
        planning = explanation.planning
        assert planning.kept_plans == (
            planning.evaluated_plans - planning.pruned_plans
        )
        line = str(explanation).splitlines()[-2]
        assert line.startswith("planner: ")
        assert f"{planning.pruned_plans} pruned" in line


class TestOptimizerOptionsValidation:
    def test_defaults_are_valid(self):
        options = OptimizerOptions()
        assert options.prune is True
        assert options.plan_cache_size == 256

    @pytest.mark.parametrize("bad", ["yes", 1, None])
    def test_prune_must_be_bool(self, bad):
        with pytest.raises(PlanningError, match="prune"):
            OptimizerOptions(prune=bad)

    @pytest.mark.parametrize("bad", [-1, True, 2.5, "many"])
    def test_plan_cache_size_rejects_nonsense(self, bad):
        with pytest.raises(PlanningError, match="plan_cache_size"):
            OptimizerOptions(plan_cache_size=bad)

    def test_plan_cache_size_zero_disables(self):
        assert OptimizerOptions(plan_cache_size=0).plan_cache_size == 0

    @pytest.mark.parametrize("bad", [-2, True, "lots"])
    def test_max_bind_attrs_rejects_nonsense(self, bad):
        with pytest.raises(PlanningError, match="max_bind_attrs"):
            OptimizerOptions(max_bind_attrs=bad)
