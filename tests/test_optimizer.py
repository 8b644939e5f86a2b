"""Unit tests for the DP optimizer (Algorithm 2 and Theorems 1-3)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.core.optimizer import (
    Optimizer,
    plan_space_baseline,
    plan_space_payless,
)
from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    MarketAccessNode,
    market_leaves,
    plan_price,
)
from repro.errors import PlanningError
from repro.market.pricing import PricingPolicy
from repro.testing import oracle_evaluate
from repro.workloads.synthetic import make_join_graph


def optimize(payless, sql, params=()):
    query = payless.compile(sql, params)
    return Optimizer(payless.context).optimize(query), query


def without_sqr(market, use_theorems):
    """A no-SQR installation over ``market``, left-deep or bushy."""
    from repro import PayLess

    payless = PayLess.without_sqr(
        market, options=QueryOptions(use_theorems=use_theorems)
    )
    payless.register_dataset("WHW")
    return payless


class TestSingleTable:
    def test_selection_pushed(self, mini_payless):
        planning, __ = optimize(
            mini_payless,
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3",
        )
        leaf = market_leaves(planning.plan)[0]
        assert leaf.table == "Weather"
        # 4 stations x 3 days = 12 rows estimated ≈ 2 transactions at t=10.
        assert planning.cost >= 1

    def test_unknown_table_rejected(self, mini_payless):
        with pytest.raises(Exception):
            optimize(mini_payless, "SELECT * FROM Mystery")


class TestBindJoinChoice:
    def test_bind_join_wins_for_selective_city(self, mini_payless):
        planning, __ = optimize(
            mini_payless,
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.Country = 'CountryA' "
            "AND Station.StationID = Weather.StationID",
        )
        root = planning.plan
        assert isinstance(root, JoinNode) and root.bind
        right = root.right
        assert isinstance(right, MarketAccessNode)
        assert right.bind_attributes == ("StationID",)

    def test_direct_wins_when_bindings_expensive(self, mini_weather_market):
        # Query touching most stations: binding each id costs one call each
        # (6 calls/transactions at t=10) vs one full fetch of the region.
        from repro import PayLess

        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        planning, __ = optimize(
            payless,
            "SELECT Temperature FROM Station, Weather "
            "WHERE Station.StationID = Weather.StationID",
        )
        root = planning.plan
        assert isinstance(root, JoinNode)
        # All 60 weather rows: 6 transactions direct; bind join would cost
        # 6 stations x ceil(10/10) = 6 too — either is acceptable, but the
        # plan must be feasible and priced.
        assert planning.cost >= 6


class TestTheorem2ZeroPrice:
    def test_covered_relation_moves_to_block(self, mini_payless):
        sql = (
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.Country = 'CountryA' "
            "AND Station.StationID = Weather.StationID"
        )
        # Prime the store with all Station rows.
        mini_payless.query("SELECT * FROM Station")
        planning, __ = optimize(mini_payless, sql)
        block_nodes = [
            node
            for node in _walk(planning.plan)
            if isinstance(node, LocalBlockNode)
        ]
        assert block_nodes and "Station" in block_nodes[0].covered_market_tables

    def test_local_tables_in_block(self, mini_payless_with_local):
        planning, __ = optimize(
            mini_payless_with_local,
            "SELECT Temperature FROM CityInfo, Station, Weather "
            "WHERE CityInfo.Zone = 2 AND CityInfo.City = Station.City "
            "AND Station.StationID = Weather.StationID",
        )
        blocks = [
            node
            for node in _walk(planning.plan)
            if isinstance(node, LocalBlockNode)
        ]
        assert blocks and blocks[0].tables == ("CityInfo",)


    def test_a_free_dataset_is_still_bought(self, mini_weather_market):
        """Theorem 2 folds what there is nothing to buy, not what costs $0:
        an uncovered $0 dataset is accessed, and what it returns is stored."""
        mini_weather_market.dataset("WHW").pricing = PricingPolicy(
            tuples_per_transaction=10, price_per_transaction=0.0
        )
        from repro import PayLess

        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        sql = "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        planning, __ = optimize(payless, sql)
        assert isinstance(planning.plan, MarketAccessNode)
        assert planning.cost == 0.0
        result = payless.query(sql)
        assert result.stats.transactions > 0 and result.stats.price == 0.0
        assert sorted(result.rows) == sorted(oracle_evaluate(payless, sql).rows)
        # The rows reached the store: now there is nothing to buy.
        assert payless.store.table("Weather").cached_row_count == len(result.rows)
        planning, __ = optimize(payless, sql)
        assert isinstance(planning.plan, LocalBlockNode)


class TestTheorem3Partition:
    def test_disconnected_relations_cartesian(self, mini_payless):
        planning, __ = optimize(
            mini_payless,
            "SELECT * FROM Station, Weather "
            "WHERE City = 'Beta' AND Weather.Date = 1",
        )
        roots = [n for n in _walk(planning.plan) if isinstance(n, JoinNode)]
        assert any(node.cartesian for node in roots)

    @staticmethod
    def _flood_fill(subset, edges, through):
        """Reference split: components of ``subset`` in order of their
        smallest member, tables in ``through`` connected to each other."""
        unseen = [i for i in range(7) if subset >> i & 1]
        components = []
        while unseen:
            component, todo = set(), [unseen[0]]
            while todo:
                i = todo.pop()
                if i not in component:
                    component.add(i)
                    todo += [
                        j for j in unseen
                        if (i, j) in edges or (j, i) in edges
                        or (through >> i & 1 and through >> j & 1)
                    ]
            unseen = [i for i in unseen if i not in component]
            components.append(sum(1 << i for i in component))
        return components

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_split_equals_a_flood_fill(self, seed):
        """Every subset of a clique-7 queried over random predicates, alone
        and beside a block holding T4: the components the DP builds one
        table at a time are the flood fill's, in the same order."""
        rng = random.Random(seed)
        edges = {
            (i, j) for i in range(7) for j in range(i + 1, 7)
            if rng.random() < 0.3
        }
        data = make_join_graph("clique", 7)
        predicates = " AND ".join(
            f"T{i + 1}.K{i + 1}_{j + 1} = T{j + 1}.K{i + 1}_{j + 1}"
            for i, j in sorted(edges)
        )
        sql = f"SELECT * FROM {', '.join(data.tables)} WHERE {predicates}"
        payless = build_system(
            "payless", data, options=QueryOptions(plan_cache_size=0)
        )
        optimizer = Optimizer(payless.context)
        optimizer._reset(payless.compile(sql))
        assert optimizer._join_index().names == [f"t{i}" for i in range(1, 8)]
        t4 = 1 << 3
        for block, through in ((0, 0), (t4, optimizer._through(t4))):
            for subset in range(1, 1 << 7):
                if subset & block:
                    continue
                components = []
                for i in range(7):
                    if subset >> i & 1:
                        components = optimizer._components_with(
                            components, 1 << i, through
                        )
                assert components == self._flood_fill(subset, edges, through)


class TestObjectives:
    def test_min_calls_prefers_fewer_calls(self, mini_weather_market):
        from repro import PayLess

        # City Alpha has two stations: bind join = 1 + 2 calls; direct
        # country fetch = 2 calls. Minimizing-calls must pick direct.
        payless = PayLess.minimizing_calls(mini_weather_market)
        payless.register_dataset("WHW")
        planning, __ = optimize(
            payless,
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Alpha' AND Station.Country = 'CountryA' "
            "AND Weather.Country = 'CountryA' "
            "AND Station.StationID = Weather.StationID",
        )
        root = planning.plan
        assert isinstance(root, JoinNode)
        assert not root.bind
        assert planning.cost == 2.0  # one unit per call

    def test_invalid_objective(self):
        with pytest.raises(PlanningError):
            QueryOptions(objective="min_calls")


class TestBushyEnumeration:
    def test_disable_all_explores_more_plans(self, mini_weather_market):
        sql = (
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.Country = 'CountryA' "
            "AND Station.StationID = Weather.StationID"
        )
        with_theorems, __ = optimize(
            without_sqr(mini_weather_market, use_theorems=True), sql
        )
        without, __ = optimize(
            without_sqr(mini_weather_market, use_theorems=False), sql
        )
        assert without.evaluated_plans >= with_theorems.evaluated_plans

    def test_bushy_plan_feasible_and_comparable(self, mini_weather_market):
        sql = (
            "SELECT Temperature FROM Station, Weather "
            "WHERE City = 'Beta' AND Station.Country = 'CountryA' "
            "AND Station.StationID = Weather.StationID"
        )
        with_theorems, __ = optimize(
            without_sqr(mini_weather_market, use_theorems=True), sql
        )
        bushy, __ = optimize(
            without_sqr(mini_weather_market, use_theorems=False), sql
        )
        # Theorem 1: restricting to left-deep loses nothing.
        assert with_theorems.cost <= bushy.cost + 1e-9

    def test_tied_bushy_plans_do_not_depend_on_the_hash_seed(self):
        """clique-5 has several bushy plans tied at cost 14; first-seen
        wins, so the bind-extension loop must not iterate a frozenset in
        hash order (string hashes differ per process)."""
        script = (
            "from repro.bench.harness import build_system\n"
            "from repro.core.objectives import QueryOptions\n"
            "from repro.core.optimizer import Optimizer\n"
            "from repro.workloads.synthetic import make_join_graph\n"
            "data = make_join_graph('clique', 5, domain_high=32)\n"
            "payless = build_system(\n"
            "    'payless', data, options=QueryOptions(use_theorems=False)\n"
            ")\n"
            "planning = Optimizer(payless.context).optimize(\n"
            "    payless.compile(data.sql)\n"
            ")\n"
            "print(planning.cost, planning.plan.describe())\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for seed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0].startswith("14.0 ")
        assert outputs[0] == outputs[1] == outputs[2]


def test_the_plan_exploration_example_runs():
    """It builds one installation per Figure 14 arm with ``build_system``."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "examples" / "plan_exploration.py")],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Disable All (bushy)" in done.stdout


class TestPlanSpaceFormulas:
    def test_baseline_close_to_paper_approximation(self):
        # The paper's "≈ 6^n − 5^n" uses the untightened binding bound
        # (the closed-form view, not the exact enumerated count).
        for n in range(5, 12):
            exact = plan_space_baseline(n, tightened=False, enumerated=False)
            approx = 6 ** n - 5 ** n
            assert exact == pytest.approx(approx, rel=0.35)

    def test_tightened_no_larger_than_untightened(self):
        for n in range(3, 12):
            assert plan_space_baseline(
                n, enumerated=False
            ) <= plan_space_baseline(n, tightened=False, enumerated=False)

    def test_payless_polynomial(self):
        for n in range(3, 12):
            exact = plan_space_payless(n)
            approx = 2 ** n + (2 / 3) * n ** 3
            assert exact == pytest.approx(approx, rel=1.2)

    def test_payless_much_smaller(self):
        # Exact enumerated counts: left-deep + Theorems 1-3 vs bushy.
        assert plan_space_payless(8) < plan_space_baseline(8) / 10
        # The paper's closed forms are even further apart.
        assert plan_space_payless(8, enumerated=False) < (
            plan_space_baseline(8, enumerated=False) / 100
        )

    def test_zero_price_relations_shrink_space(self):
        assert plan_space_payless(8, zero_price=3) < plan_space_payless(8)


def _walk(node):
    yield node
    if isinstance(node, JoinNode):
        yield from _walk(node.left)
        yield from _walk(node.right)
