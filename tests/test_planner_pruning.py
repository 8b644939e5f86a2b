"""Planner candidate counts: enumeration formulas, dominance counters, knobs.

* the ``plan_space_*`` formulas must equal the candidate counts the
  *default* installation actually enumerates (zero-price tables
  included) — the formulas and the DP document each other, and the
  planner has no bounding device beside them (Section 4.1);
* ``pruned_plans`` counts the candidates an incumbent over the same
  table set dominated, and the planning result / EXPLAIN report it;
* the planner knobs of ``QueryOptions`` must reject nonsense loudly.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.core.optimizer import plan_space_baseline, plan_space_payless
from repro.errors import PlanningError
from repro.workloads.synthetic import make_join_graph


def build(shape: str, n: int):
    """A registered installation over one synthetic join graph."""
    data = make_join_graph(shape, n)
    payless = build_system("payless", data)
    return payless, data


def enumerated_count(payless, sql: str) -> int:
    """Candidates the installation's left-deep DP enumerates."""
    return payless.explain(sql).planning.evaluated_plans


class TestFormulaMatchesEnumeration:
    """plan_space_*() must equal what the DP actually enumerates."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_payless_chain(self, n):
        payless, data = build("chain", n)
        assert enumerated_count(payless, data.sql) == plan_space_payless(n)

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
        assert enumerated_count(payless, data.sql) == plan_space_payless(
            n, zero_price=m
        )

    @pytest.mark.parametrize("n", range(2, 8))
    def test_baseline_chain(self, n):
        data = make_join_graph("chain", n)
        payless = build_system("payless_disable_all", data)
        assert enumerated_count(payless, data.sql) == plan_space_baseline(n)


class TestPlannerMetrics:
    def test_candidate_counters_match_planning_result(self):
        payless, data = build("chain", 5)
        planning = payless.explain(data.sql).planning
        result = payless.query(data.sql)  # served by the plan cache
        assert result.stats.evaluated_plans == planning.evaluated_plans
        assert planning.evaluated_plans == plan_space_payless(5)
        assert planning.pruned_plans > 0

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
    """The optimizer's options are ``QueryOptions`` fields, validated
    once, where the record is constructed."""

    def test_defaults_are_valid(self):
        options = QueryOptions()
        assert options.plan_cache_size == 256

    @pytest.mark.parametrize("bad", [-1, True, 2.5, "many"])
    def test_plan_cache_size_rejects_nonsense(self, bad):
        with pytest.raises(PlanningError, match="plan_cache_size"):
            QueryOptions(plan_cache_size=bad)

    def test_plan_cache_size_zero_disables(self):
        assert QueryOptions(plan_cache_size=0).plan_cache_size == 0

    @pytest.mark.parametrize("bad", [-2, True, "lots"])
    def test_max_bind_attrs_rejects_nonsense(self, bad):
        with pytest.raises(PlanningError, match="max_bind_attrs"):
            QueryOptions(max_bind_attrs=bad)
