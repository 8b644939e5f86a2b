"""Planner parity oracle: the plan cache on vs ``plan_cache_size=0``.

The acceptance criterion of the parameterized plan cache: on every
workload session, the default installation (cache on: a repeat of the
same template and parameters over unchanged store epochs skips the DP)
must choose byte-identical plans and spend byte-identical dollars to the
arm that runs the DP afresh for every query — per query instance, not
just in aggregate.  The chaos arm replays the same sessions under deterministic
fault injection (the CI chaos seeds) to check cached planning composes
with the money-safe transport.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.workloads.synthetic import make_join_graph

#: Must match the seeds the CI chaos job replays.
CHAOS_SEEDS = (7, 23, 101)


def _run_arms(workload: str, q: int, transport_for=lambda: None):
    """Replay one session through both arms, asserting per-instance parity."""
    data = make_workload(workload)
    instances = make_instances(workload, data, q)
    optimized = build_system(
        "payless", data, options=QueryOptions(transport=transport_for())
    )
    oracle = build_system(
        "payless", data,
        options=QueryOptions(transport=transport_for(), plan_cache_size=0),
    )
    assert instances, "session must not be empty"
    for instance in instances:
        a = optimized.query(instance.sql, instance.params)
        b = oracle.query(instance.sql, instance.params)
        assert a.plan.describe() == b.plan.describe(), instance.sql
        assert a.stats.transactions == b.stats.transactions, instance.sql
        assert a.stats.price == pytest.approx(b.stats.price), instance.sql
        assert a.stats.calls == b.stats.calls, instance.sql
        assert sorted(a.rows) == sorted(b.rows), instance.sql
    assert optimized.total_price == pytest.approx(oracle.total_price)
    assert optimized.total_transactions == oracle.total_transactions


class TestWorkloadSessions:
    def test_weather_session_parity(self):
        _run_arms("real", 2)

    def test_tpch_session_parity(self):
        _run_arms("tpch", 1)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_weather_session_parity_under_chaos(self, seed):
        _run_arms(
            "real",
            1,
            transport_for=lambda: TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.3),
                retry_budget=None,
                breaker_failure_threshold=10_000,
            ),
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_tpch_session_parity_under_chaos(self, seed):
        _run_arms(
            "tpch",
            1,
            transport_for=lambda: TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.3),
                retry_budget=None,
                breaker_failure_threshold=10_000,
            ),
        )


class TestSyntheticGraphs:
    """Chosen-plan equality on chain/star/clique at n ≤ 8 (executed)."""

    @pytest.mark.parametrize(
        "shape,n",
        [("chain", 6), ("chain", 8), ("star", 6), ("star", 8), ("clique", 5)],
    )
    def test_executed_parity(self, shape, n):
        data = make_join_graph(shape, n)
        optimized = build_system("payless", data)
        oracle = build_system(
            "payless", data, options=QueryOptions(plan_cache_size=0)
        )
        # Twice: cold, then against a warm store (and a cache hit on the
        # optimized arm — the hit must not change spend or rows either).
        for __ in range(2):
            a = optimized.query(data.sql)
            b = oracle.query(data.sql)
            assert a.plan.describe() == b.plan.describe()
            assert a.stats.transactions == b.stats.transactions
            assert a.stats.price == pytest.approx(b.stats.price)
            assert sorted(a.rows) == sorted(b.rows)
