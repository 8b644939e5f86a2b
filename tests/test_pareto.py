"""Money-latency Pareto planning: frontier enumeration, objective
selection, typed infeasibility, plan-cache isolation, and service tiers.

The canonical fixture is an eight-station weather market where a
selective ``City = 'Alpha'`` filter keeps four stations: the bind join
fetches fewer rows (cheaper) through many round-trip-dominated calls
(slower), while the direct fetch buys more rows (pricier) in fewer calls
(faster) — a genuine two-point money-latency frontier:
``($17, 725 ms)`` and ``($9, 975 ms)``.
"""

from __future__ import annotations

import pytest

from repro.core.objectives import SERVICE_TIERS, PlanObjective
from repro.core.prepared import PreparedQuery
from repro.errors import InfeasibleObjectiveError, MarketError
from repro.serve import QueryScheduler, ServeConfig
from repro.testing import registered_payless, tiny_weather_market

#: Four Alpha stations (selective filter) + four Beta stations.
STATIONS = tuple(
    ("CountryA", i, "Alpha" if i <= 4 else "Beta") for i in range(1, 9)
)
SQL = (
    "SELECT Weather.Temperature FROM Station JOIN Weather "
    "ON Station.StationID = Weather.StationID "
    "WHERE Station.City = 'Alpha'"
)
#: The fixture's full-query frontier: (direct fetch, bind join).
FAST_POINT = (17.0, 725.0)
CHEAP_POINT = (9.0, 975.0)


def _payless(**kwargs):
    market = tiny_weather_market(stations=STATIONS, days=20)
    return registered_payless(market, **kwargs)


class TestFrontier:
    def test_two_point_frontier(self):
        explanation = _payless().explain(SQL, objective="min_latency")
        assert explanation.planning.frontier == (FAST_POINT, CHEAP_POINT)

    def test_frontier_is_non_dominated(self):
        points = _payless().explain(SQL, objective="min_latency").planning.frontier
        for i, (cost_a, lat_a) in enumerate(points):
            for j, (cost_b, lat_b) in enumerate(points):
                if i == j:
                    continue
                dominated = (
                    cost_b <= cost_a
                    and lat_b <= lat_a
                    and (cost_b < cost_a or lat_b < lat_a)
                )
                assert not dominated, f"point {i} dominated by point {j}"

    def test_min_dollars_path_skips_enumeration(self):
        planning = _payless().explain(SQL).planning
        assert planning.objective.is_default
        assert len(planning.frontier) == 1
        assert planning.cost == CHEAP_POINT[0]


class TestObjectiveSelection:
    def test_min_latency_picks_the_fast_point(self):
        planning = _payless().explain(SQL, objective="min_latency").planning
        assert (planning.cost, planning.latency_ms) == FAST_POINT
        assert "fastest" in planning.objective_note

    def test_latency_bound_picks_cheapest_feasible(self):
        planning = _payless().explain(
            SQL, objective="dollars_under_latency_ms:800"
        ).planning
        assert (planning.cost, planning.latency_ms) == FAST_POINT
        loose = _payless().explain(
            SQL, objective="dollars_under_latency_ms:1000"
        ).planning
        assert (loose.cost, loose.latency_ms) == CHEAP_POINT

    def test_dollar_budget_picks_fastest_affordable(self):
        planning = _payless().explain(
            SQL, objective="latency_under_dollars:10"
        ).planning
        assert (planning.cost, planning.latency_ms) == CHEAP_POINT
        rich = _payless().explain(
            SQL, objective="latency_under_dollars:20"
        ).planning
        assert (rich.cost, rich.latency_ms) == FAST_POINT

    def test_weighted_blend_tilts_with_the_weight(self):
        # Cheap latency weight: 17+7.25 vs 9+9.75 → the cheap point wins.
        light = _payless().explain(SQL, objective="weighted:0.01").planning
        assert (light.cost, light.latency_ms) == CHEAP_POINT
        # Dollar-priced milliseconds: 17+725 vs 9+975 → the fast point wins.
        heavy = _payless().explain(SQL, objective="weighted:1.0").planning
        assert (heavy.cost, heavy.latency_ms) == FAST_POINT

    def test_objective_accepts_tier_and_objective_objects(self):
        payless = _payless()
        via_str = payless.explain(SQL, objective="realtime").planning
        via_tier = payless.explain(
            SQL, objective=SERVICE_TIERS["realtime"]
        ).planning
        via_object = payless.explain(
            SQL, objective=PlanObjective.min_latency()
        ).planning
        assert (
            via_str.plan.describe()
            == via_tier.plan.describe()
            == via_object.plan.describe()
        )

    def test_query_execution_honors_the_objective(self):
        fast = _payless().query(SQL, objective="min_latency")
        cheap = _payless().query(SQL)
        assert fast.stats.price == FAST_POINT[0]
        assert cheap.stats.price == CHEAP_POINT[0]
        assert sorted(fast.rows) == sorted(cheap.rows)


class TestInfeasibility:
    def test_unmeetable_latency_bound_raises_typed_error(self):
        with pytest.raises(InfeasibleObjectiveError) as excinfo:
            _payless().explain(SQL, objective="dollars_under_latency_ms:1")
        error = excinfo.value
        assert error.objective.kind == "dollars_under_latency_ms"
        assert error.frontier == (FAST_POINT, CHEAP_POINT)

    def test_unmeetable_dollar_budget_raises_typed_error(self):
        with pytest.raises(InfeasibleObjectiveError) as excinfo:
            _payless().query(SQL, objective="latency_under_dollars:0.5")
        assert excinfo.value.frontier  # carries the frontier for diagnosis

    def test_infeasible_objective_buys_nothing(self):
        payless = _payless()
        with pytest.raises(InfeasibleObjectiveError):
            payless.query(SQL, objective="dollars_under_latency_ms:1")
        assert payless.total_price == 0.0
        assert payless.total_transactions == 0


class TestPlanCacheIsolation:
    """Two objectives over one template never share a cache entry."""

    def test_objectives_get_separate_entries(self):
        payless = _payless()
        cheap = payless.explain(SQL)
        fast = payless.explain(SQL, objective="min_latency")
        assert cheap.planning.cache_status == "miss"
        assert fast.planning.cache_status == "miss"  # not served cheap's plan
        assert cheap.plan.describe() != fast.plan.describe()
        # Repeats hit their own entries and keep their own plans.
        assert payless.explain(SQL).planning.cache_status == "hit"
        repeat_fast = payless.explain(SQL, objective="min_latency")
        assert repeat_fast.planning.cache_status == "hit"
        assert repeat_fast.plan.describe() == fast.plan.describe()

    def test_bounds_are_part_of_the_identity(self):
        payless = _payless()
        tight = payless.explain(SQL, objective="dollars_under_latency_ms:800")
        loose = payless.explain(SQL, objective="dollars_under_latency_ms:1000")
        assert tight.planning.cache_status == "miss"
        assert loose.planning.cache_status == "miss"
        assert tight.plan.describe() != loose.plan.describe()


class TestPreparedQueries:
    def test_prepared_query_pins_an_objective(self):
        payless = _payless()
        prepared = PreparedQuery(payless, SQL, objective="min_latency")
        result = prepared.execute(())
        assert result.stats.price == FAST_POINT[0]

    def test_per_execute_override(self):
        payless = _payless()
        prepared = PreparedQuery(payless, SQL)
        planning = prepared.explain((), objective="min_latency")
        assert (planning.cost, planning.latency_ms) == FAST_POINT


class TestServiceTiers:
    def test_session_tier_steers_planning(self):
        payless = _payless()
        fast_plan = payless.explain(SQL, objective="min_latency").plan.describe()
        config = ServeConfig(workers=1, coalesce=False)
        with QueryScheduler(payless, config) as scheduler:
            ticket = scheduler.session("trader", tier="realtime").submit(SQL)
            result = ticket.result(timeout=30.0)
        assert result.plan.describe() == fast_plan
        assert result.stats.price == FAST_POINT[0]

    def test_default_tier_inherited_by_new_sessions(self):
        payless = _payless()
        config = ServeConfig(
            workers=1, coalesce=False,
            default_tier=SERVICE_TIERS["realtime"],
        )
        with QueryScheduler(payless, config) as scheduler:
            session = scheduler.session("anyone")
            assert session.tier is SERVICE_TIERS["realtime"]
            explicit = scheduler.session("saver", tier="economy")
            assert explicit.tier is SERVICE_TIERS["economy"]

    def test_tier_conflict_rejected(self):
        payless = _payless()
        with QueryScheduler(payless, ServeConfig(workers=1)) as scheduler:
            scheduler.session("alice", tier="realtime")
            with pytest.raises(MarketError):
                scheduler.session("alice", tier="economy")
            # Tier-less re-fetch returns the existing session unchanged.
            assert scheduler.session("alice").tier is SERVICE_TIERS["realtime"]


class TestExplainRendering:
    def test_default_objective_renders_no_frontier_block(self):
        text = _payless().explain(SQL).render()
        assert "pareto frontier" not in text
        assert "objective:" not in text

    def test_non_default_objective_renders_frontier_and_choice(self):
        text = _payless().explain(SQL, objective="min_latency").render()
        assert "objective: min_latency" in text
        assert "pareto frontier: 2 point(s)" in text
        assert "($17, 725 ms)" in text
        assert "chosen: ($17, 725 ms)" in text

    def test_explain_analyze_reports_est_vs_actual_latency(self):
        text = _payless().explain_analyze(SQL, objective="min_latency").render()
        assert "latency: est 725 ms" in text
        assert "actual" in text
