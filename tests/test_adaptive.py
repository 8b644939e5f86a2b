"""Adaptive mid-query re-optimization (``AdaptivePolicy``).

The contract under test:

* **off by default** — ``QueryOptions().adaptive is None`` and execution
  takes the byte-identical static path;
* **savings on misestimates** — on the correlated-skew join graphs the
  uniform prior badly overestimates a ``V > 200`` prefix, the policy
  trips after the first fetch, and the re-planned suffix cuts total
  transactions while returning byte-identical rows;
* **bounded and quiet** — ``max_replans`` caps re-planning, and a
  workload with exact estimates never trips (identical bills);
* **composable** — re-planning keeps billing invariant under injected
  transport faults and under the 8-worker serving scheduler.
"""

import pytest

from repro.core.objectives import AdaptivePolicy, QueryOptions
from repro.core.payless import PayLess
from repro.errors import PlanningError
from repro.market.faults import FaultPolicy
from repro.market.server import DataMarket
from repro.market.transport import TransportConfig
from repro.serve import QueryScheduler, ServeConfig
from repro.workloads.synthetic import make_join_graph

#: The bench's chain2 scenario: 1000-row tables, V power-law-skewed
#: toward the low end of [1, 400], so ``V > 200`` keeps ~4% of rows
#: where the uniform prior expects ~50%.
SKEWED = dict(domain_high=400, skew=15.0, rows=1000)
SQL2 = "SELECT * FROM T1, T2 WHERE T1.K1 = T2.K1 AND T1.V > 200"
SQL3 = (
    "SELECT * FROM T1, T2, T3 WHERE T1.K1 = T2.K1 AND T2.K2 = T3.K2 "
    "AND T1.V > 200"
)


def _payless(data, adaptive=None, transport=None):
    market = DataMarket()
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess.full(
        market,
        local_db=data.local_database(),
        options=QueryOptions(adaptive=adaptive, transport=transport),
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


def _skewed_chain(n, tpt):
    return make_join_graph(
        "chain", n, tuples_per_transaction=tpt, **SKEWED
    )


class TestPolicy:
    def test_defaults(self):
        policy = AdaptivePolicy()
        assert policy.threshold == 2.0
        assert policy.min_rows == 10.0
        assert policy.max_replans == 2
        assert QueryOptions().adaptive is None

    def test_validation(self):
        with pytest.raises(PlanningError):
            AdaptivePolicy(threshold=1.0)
        with pytest.raises(PlanningError):
            AdaptivePolicy(min_rows=-1.0)
        with pytest.raises(PlanningError):
            AdaptivePolicy(max_replans=0)
        with pytest.raises(PlanningError):
            QueryOptions(adaptive="2.0")  # type: ignore[arg-type]

    def test_parse(self):
        assert AdaptivePolicy.parse("3") == AdaptivePolicy(threshold=3.0)
        assert AdaptivePolicy.parse("2.5:20:1") == AdaptivePolicy(
            threshold=2.5, min_rows=20.0, max_replans=1
        )
        with pytest.raises(PlanningError):
            AdaptivePolicy.parse("not-a-number")

    def test_diverged_is_symmetric_with_a_noise_floor(self):
        policy = AdaptivePolicy(threshold=2.0, min_rows=10.0)
        assert policy.diverged(estimated=100.0, actual=10.0)
        assert policy.diverged(estimated=10.0, actual=100.0)
        assert not policy.diverged(estimated=100.0, actual=60.0)
        # Both sides under the floor: estimation noise, not a misestimate.
        assert not policy.diverged(estimated=9.0, actual=1.0)

    def test_fingerprints_distinguish_policies(self):
        """A policy is a frozen value, so the value is its fingerprint:
        its three settings are its identity."""
        assert AdaptivePolicy() == AdaptivePolicy(2.0, 10.0, 2)
        assert hash(AdaptivePolicy()) == hash(AdaptivePolicy(2.0, 10.0, 2))
        assert AdaptivePolicy() != AdaptivePolicy(threshold=3.0)


class TestSavings:
    def test_skewed_chain2_saves_with_identical_rows(self):
        data = _skewed_chain(2, tpt=5)
        static = _payless(data).query(SQL2)
        adaptive = _payless(data, adaptive=AdaptivePolicy()).query(SQL2)
        assert sorted(adaptive.relation.rows) == sorted(static.relation.rows)
        assert adaptive.stats.replans >= 1
        assert adaptive.stats.replan_dollars_saved_est > 0
        saved = 1 - adaptive.stats.transactions / static.stats.transactions
        assert saved >= 0.20

    def test_skewed_chain3_saves_with_identical_rows(self):
        data = _skewed_chain(3, tpt=10)
        static = _payless(data).query(SQL3)
        adaptive = _payless(data, adaptive=AdaptivePolicy()).query(SQL3)
        assert sorted(adaptive.relation.rows) == sorted(static.relation.rows)
        assert adaptive.stats.replans >= 1
        saved = 1 - adaptive.stats.transactions / static.stats.transactions
        assert saved >= 0.20

    def test_explain_analyze_annotates_replans_and_divergence(self):
        data = _skewed_chain(2, tpt=5)
        text = str(
            _payless(data, adaptive=AdaptivePolicy()).explain_analyze(SQL2)
        )
        assert "divergence ×" in text
        assert "adaptive: 1 mid-query re-plan(s)" in text

    def test_max_replans_budget_is_respected(self):
        data = _skewed_chain(3, tpt=10)
        capped = _payless(
            data, adaptive=AdaptivePolicy(max_replans=1)
        ).query(SQL3)
        free = _payless(data, adaptive=AdaptivePolicy()).query(SQL3)
        assert capped.stats.replans == 1
        assert free.stats.replans == 2
        static = _payless(data).query(SQL3)
        assert sorted(capped.relation.rows) == sorted(static.relation.rows)


class TestNoTrip:
    def test_exact_estimates_never_replan_and_bill_identically(self):
        data = make_join_graph("chain", 4)
        static = _payless(data).query(data.sql)
        adaptive = _payless(data, adaptive=AdaptivePolicy()).query(data.sql)
        assert adaptive.stats.replans == 0
        assert adaptive.stats.replan_dollars_saved_est == 0.0
        assert adaptive.stats.transactions == static.stats.transactions
        assert adaptive.stats.calls == static.stats.calls
        assert sorted(adaptive.relation.rows) == sorted(static.relation.rows)

    def test_no_adaptive_stats_without_policy(self):
        data = make_join_graph("chain", 3)
        result = _payless(data).query(data.sql)
        assert result.stats.replans == 0
        assert result.stats.replan_dollars_saved_est == 0.0


class TestChaosInvariance:
    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_faults_do_not_change_the_adaptive_bill(self, seed):
        data = _skewed_chain(2, tpt=5)
        calm = _payless(data, adaptive=AdaptivePolicy()).query(SQL2)
        faults = FaultPolicy.uniform(seed=seed, rate=0.3)
        chaotic = _payless(
            data,
            adaptive=AdaptivePolicy(),
            transport=TransportConfig(faults=faults, max_retries=5),
        ).query(SQL2)
        assert chaotic.stats.faults_injected > 0
        assert chaotic.stats.retries == chaotic.stats.faults_injected
        assert chaotic.stats.replans == calm.stats.replans
        assert chaotic.stats.transactions == calm.stats.transactions
        assert chaotic.stats.price == calm.stats.price
        assert chaotic.stats.wasted_transactions == 0
        assert sorted(chaotic.relation.rows) == sorted(calm.relation.rows)


class TestConcurrentServing:
    def test_8_workers_match_serial_rows_and_spend(self):
        queries = [
            SQL2,
            "SELECT * FROM T1, T2 WHERE T1.K1 = T2.K1 AND T1.V > 300",
        ]
        serial = _payless(_skewed_chain(2, tpt=5), adaptive=AdaptivePolicy())
        serial_rows = [sorted(serial.query(sql).relation.rows)
                       for sql in queries]
        serial_spend = serial.market.ledger.total_price

        payless = _payless(_skewed_chain(2, tpt=5), adaptive=AdaptivePolicy())
        config = ServeConfig(workers=8, coalesce=True)
        with QueryScheduler(payless, config) as scheduler:
            tickets = [
                scheduler.session(f"user{i}").submit(sql)
                for i, sql in enumerate(queries)
            ]
            results = [ticket.result(timeout=120.0) for ticket in tickets]
        assert [sorted(r.relation.rows) for r in results] == serial_rows
        # Concurrent queries cannot reuse each other's still-in-flight
        # purchases, so overlapping regions may bill slightly more than
        # the serial replay — but re-planning must stay in the same
        # ballpark, never runaway-buy.
        assert payless.market.ledger.total_price <= serial_spend * 1.25
        assert sum(r.stats.replans for r in results) >= 1
