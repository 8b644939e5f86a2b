"""Pareto planner parity: the plan cache must never change what is planned.

Each test compares the default installation (plan cache on) with one
that runs the DP afresh for every query (``plan_cache_size=0``), per
objective — cached plans are keyed by the objective's fingerprint:

* under the default ``min_dollars`` objective both choose byte-identical
  plans at identical cost;
* under a Pareto objective both report the *same frontier* (same points,
  same order) and select the same plan.

The chaos arm replays the weather and TPC-H workload sessions under
deterministic fault injection (the CI chaos seeds) with a latency-aware
objective, checking Pareto planning composes with the money-safe
transport exactly as the single-objective planner does.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import MIN_DOLLARS, PlanObjective, QueryOptions
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.workloads.synthetic import make_join_graph

#: Must match the seeds the CI chaos job replays.
CHAOS_SEEDS = (7, 23, 101)

SHAPES_AND_SIZES = [
    (shape, n)
    for shape in ("chain", "star", "clique")
    for n in range(2, 9)
    # The DP on dense cliques is exponential; planning-only parity keeps
    # even n=8 affordable, but cap the executed run below.
]


def _arms(data, objective=MIN_DOLLARS, transport_for=lambda: None):
    optimized = build_system(
        "payless", data,
        options=QueryOptions(objective=objective, transport=transport_for()),
    )
    oracle = build_system(
        "payless", data,
        options=QueryOptions(
            objective=objective, transport=transport_for(), plan_cache_size=0
        ),
    )
    return optimized, oracle


class TestMinDollarsParity:
    """The paper's objective: the Pareto machinery must stay out of the way."""

    @pytest.mark.parametrize("shape,n", SHAPES_AND_SIZES)
    def test_planned_parity(self, shape, n):
        data = make_join_graph(shape, n)
        optimized, oracle = _arms(data)
        a = optimized.explain(data.sql).planning
        b = oracle.explain(data.sql).planning
        assert a.plan.describe() == b.plan.describe(), (shape, n)
        assert a.cost == b.cost
        assert a.objective.is_default and b.objective.is_default


class TestParetoFrontierParity:
    """Cached and fresh Pareto planning agree point for point."""

    @pytest.mark.parametrize("shape,n", SHAPES_AND_SIZES)
    def test_frontier_parity(self, shape, n):
        data = make_join_graph(shape, n)
        objective = PlanObjective.min_latency()
        optimized, oracle = _arms(data, objective)
        a = optimized.explain(data.sql).planning
        b = oracle.explain(data.sql).planning
        assert a.frontier == b.frontier, (shape, n)
        assert a.plan.describe() == b.plan.describe(), (shape, n)
        assert (a.cost, a.latency_ms) == (b.cost, b.latency_ms)

    @pytest.mark.parametrize("domain_high", [16, 32, 64])
    def test_frontier_parity_on_wider_domains(self, domain_high):
        # Wider key domains change selectivities and bind-call counts,
        # reshaping the frontier; parity must hold regardless.
        data = make_join_graph("chain", 5, domain_high=domain_high)
        optimized, oracle = _arms(data, PlanObjective.min_latency())
        a = optimized.explain(data.sql).planning
        b = oracle.explain(data.sql).planning
        assert a.frontier == b.frontier, domain_high
        assert a.plan.describe() == b.plan.describe()

    @pytest.mark.parametrize(
        "shape,n", [("chain", 6), ("star", 6), ("clique", 5)]
    )
    def test_executed_parity(self, shape, n):
        data = make_join_graph(shape, n)
        objective = PlanObjective.min_latency()
        optimized, oracle = _arms(data, objective)
        for __ in range(2):  # cold, then warm store + plan-cache hit
            a = optimized.query(data.sql)
            b = oracle.query(data.sql)
            assert a.plan.describe() == b.plan.describe()
            assert a.stats.transactions == b.stats.transactions
            assert a.stats.price == pytest.approx(b.stats.price)
            assert sorted(a.rows) == sorted(b.rows)


class TestWorkloadSessions:
    def _run(self, workload, q, objective, transport_for=lambda: None):
        data = make_workload(workload)
        instances = make_instances(workload, data, q)
        optimized, oracle = _arms(data, objective, transport_for)
        assert instances
        for instance in instances:
            a = optimized.query(instance.sql, instance.params)
            b = oracle.query(instance.sql, instance.params)
            assert a.plan.describe() == b.plan.describe(), instance.sql
            assert a.stats.transactions == b.stats.transactions, instance.sql
            assert a.stats.price == pytest.approx(b.stats.price)
            assert sorted(a.rows) == sorted(b.rows), instance.sql
        assert optimized.total_price == pytest.approx(oracle.total_price)

    def test_weather_session_parity_min_latency(self):
        self._run("real", 2, PlanObjective.min_latency())

    def test_tpch_session_parity_min_latency(self):
        self._run("tpch", 1, PlanObjective.min_latency())

    def test_weather_session_parity_weighted(self):
        self._run("real", 1, PlanObjective.weighted())

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_weather_session_parity_under_chaos(self, seed):
        self._run(
            "real",
            1,
            PlanObjective.min_latency(),
            transport_for=lambda: TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.3),
                retry_budget=None,
                breaker_failure_threshold=10_000,
            ),
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tpch_session_parity_under_chaos(self, seed):
        self._run(
            "tpch",
            1,
            PlanObjective.min_latency(),
            transport_for=lambda: TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.3),
                retry_budget=None,
                breaker_failure_threshold=10_000,
            ),
        )
