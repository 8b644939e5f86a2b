"""The unified configuration surface: PlanObjective / ServiceTier /
QueryOptions.
"""

from __future__ import annotations

import pytest

import repro
from repro.bench.harness import build_system
from repro.core.objectives import (
    MIN_DOLLARS,
    SERVICE_TIERS,
    PlanObjective,
    QueryOptions,
    ServiceTier,
)
from repro.errors import PlanningError
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.semstore.consistency import ConsistencyPolicy
from repro.testing import tiny_weather_market
from repro.workloads.synthetic import make_join_graph


class TestPlanObjective:
    def test_default_is_min_dollars(self):
        assert PlanObjective().is_default
        assert PlanObjective.min_dollars() is MIN_DOLLARS
        assert not PlanObjective.min_latency().is_default

    @pytest.mark.parametrize(
        "bad",
        [
            dict(kind="fastest"),
            dict(kind="dollars_under_latency_ms"),  # missing bound
            dict(kind="dollars_under_latency_ms", latency_bound_ms=0),
            dict(kind="dollars_under_latency_ms", latency_bound_ms=-5),
            dict(kind="latency_under_dollars"),  # missing bound
            dict(kind="latency_under_dollars", dollar_bound=-1),
            dict(kind="min_latency", latency_bound_ms=100),  # wrong kind
            dict(kind="min_dollars", dollar_bound=5),  # wrong kind
            dict(kind="weighted", dollar_weight=-1),
            dict(kind="weighted", dollar_weight=0, latency_weight_per_ms=0),
        ],
    )
    def test_invalid_combinations_raise(self, bad):
        with pytest.raises(PlanningError):
            PlanObjective(**bad)

    def test_parse_round_trips_every_kind(self):
        assert PlanObjective.parse("min_dollars") is MIN_DOLLARS
        assert PlanObjective.parse("min_latency").kind == "min_latency"
        bounded = PlanObjective.parse("dollars_under_latency_ms:500")
        assert bounded.latency_bound_ms == 500.0
        budget = PlanObjective.parse("latency_under_dollars:12.5")
        assert budget.dollar_bound == 12.5
        blended = PlanObjective.parse("weighted:0.25")
        assert blended.latency_weight_per_ms == 0.25
        assert PlanObjective.parse("weighted").latency_weight_per_ms == 0.01

    @pytest.mark.parametrize(
        "text",
        ["sharpest", "dollars_under_latency_ms", "latency_under_dollars:abc"],
    )
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(PlanningError):
            PlanObjective.parse(text)

    def test_fingerprints_distinguish_objectives(self):
        objectives = [
            MIN_DOLLARS,
            PlanObjective.min_latency(),
            PlanObjective.dollars_under_latency_ms(500),
            PlanObjective.dollars_under_latency_ms(501),
            PlanObjective.latency_under_dollars(500),
            PlanObjective.weighted(),
            PlanObjective.weighted(latency_weight_per_ms=0.02),
        ]
        fingerprints = {o.fingerprint() for o in objectives}
        assert len(fingerprints) == len(objectives)

    def test_describe_is_human_readable(self):
        assert "500" in PlanObjective.dollars_under_latency_ms(500).describe()
        assert "$" in PlanObjective.latency_under_dollars(3).describe()
        assert str(PlanObjective.min_latency()) == "min_latency"


class TestServiceTier:
    def test_builtin_tiers(self):
        assert set(SERVICE_TIERS) == {"economy", "interactive", "realtime"}
        assert SERVICE_TIERS["economy"].objective is MIN_DOLLARS
        assert SERVICE_TIERS["realtime"].objective.kind == "min_latency"
        interactive = SERVICE_TIERS["interactive"].objective
        assert interactive.kind == "dollars_under_latency_ms"
        assert interactive.latency_bound_ms == 2000.0

    def test_named_lookup_is_case_insensitive(self):
        assert ServiceTier.named("Realtime") is SERVICE_TIERS["realtime"]
        with pytest.raises(PlanningError):
            ServiceTier.named("platinum")

    def test_tier_validation(self):
        with pytest.raises(PlanningError):
            ServiceTier("", MIN_DOLLARS)
        with pytest.raises(PlanningError):
            ServiceTier("custom", "min_latency")  # must be a PlanObjective


class TestQueryOptions:
    def test_transport_config_defaults_to_none(self):
        assert QueryOptions().transport_config() is None

    def test_transport_convenience_fields_overlay(self):
        options = QueryOptions(fault_rate=0.25, fault_seed=11)
        config = options.transport_config()
        assert config is not None
        assert config.max_retries == TransportConfig().max_retries
        assert config.faults is not None

    def test_explicit_transport_passes_through(self):
        transport = TransportConfig(max_retries=9, partial_results=True)
        options = QueryOptions(transport=transport)
        assert options.transport_config() is transport
        overlaid = QueryOptions(transport=transport, fault_rate=0.1)
        assert overlaid.transport_config().max_retries == 9
        assert overlaid.transport_config().partial_results is True
        assert overlaid.transport_config().faults is not None

    def test_validation_fails_fast(self):
        with pytest.raises(PlanningError):
            QueryOptions(objective="min_latency")  # must be a PlanObjective
        with pytest.raises(PlanningError):
            QueryOptions(fault_rate=1.5)

    def test_with_objective(self):
        base = QueryOptions()
        fast = base.with_objective(PlanObjective.min_latency())
        assert fast.objective.kind == "min_latency"
        assert base.objective is MIN_DOLLARS  # frozen original untouched


class TestInstallationOptions:
    """``options=QueryOptions(...)`` is the only way to configure PayLess."""

    def test_without_sqr_applies_its_switch_to_passed_options(self):
        options = QueryOptions(max_bind_attrs=1)
        payless = repro.PayLess.without_sqr(
            tiny_weather_market(), options=options
        )
        assert payless.query_options is options
        assert payless.store.policy == ConsistencyPolicy.strong()

    def test_minimizing_calls_applies_its_switches_to_passed_options(self):
        payless = repro.PayLess.minimizing_calls(
            tiny_weather_market(), options=QueryOptions(max_bind_attrs=1)
        )
        assert payless.store.policy == ConsistencyPolicy.strong()
        assert payless.query_options.max_bind_attrs == 1
        assert payless.context.options is payless.query_options
        payless.register_dataset("WHW")
        assert payless.context.pricing("Weather").price_for(1_000) == 1.0

    @pytest.mark.parametrize(
        "system", ["payless_nosqr", "payless_disable_all", "min_calls"]
    )
    def test_no_sqr_arms_are_strong_consistency(self, system):
        """"PayLess w/o SQR" is the paper's strong level (Section 4.3):
        nothing stored is reused, every query goes to the market."""
        payless = build_system(system, make_join_graph("chain", 2))
        assert payless.store.policy == ConsistencyPolicy.strong()
        assert not payless.store.policy.rewriting_enabled
        full = build_system("payless", make_join_graph("chain", 2))
        assert full.store.policy.rewriting_enabled

    @pytest.mark.parametrize(
        "bad", [{"max_bind_attrs": 1}, TransportConfig(max_retries=1)]
    )
    def test_non_query_options_rejected_at_construction(self, bad):
        with pytest.raises(PlanningError, match="QueryOptions"):
            repro.PayLess(tiny_weather_market(), options=bad)


class TestPackageExports:
    @pytest.mark.parametrize(
        "name",
        [
            "PlanObjective",
            "QueryOptions",
            "ServiceTier",
            "SERVICE_TIERS",
            "InfeasibleObjectiveError",
            "LatencyModel",
            "DEFAULT_LATENCY",
            "INSTANT",
        ],
    )
    def test_new_names_exported(self, name):
        assert hasattr(repro, name)
        assert name in repro.__all__
