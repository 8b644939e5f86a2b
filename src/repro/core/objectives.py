"""Planning objectives, service tiers, and the unified ``QueryOptions``.

The paper's optimizer minimizes one thing: the money paid to the market.
Production buyers also care about wall-clock — the market's REST calls
dominate query time (Section 5) — so the planner enumerates the
money-latency Pareto frontier per subproblem and a :class:`PlanObjective`
picks the point to execute:

* ``min_dollars`` — the paper's objective, and the default.  The planner
  compares on money alone, which keeps one plan per subproblem: the
  paper's exact single-objective DP.
* ``min_latency`` — the fastest plan (ties broken by dollars).
* ``dollars_under_latency_ms`` — the cheapest plan whose estimated
  latency fits under a bound; an unmeetable bound raises
  :class:`~repro.errors.InfeasibleObjectiveError` — never a silent
  fallback.
* ``latency_under_dollars`` — the fastest plan under a dollar budget.
* ``weighted`` — minimize ``dollar_weight·dollars +
  latency_weight_per_ms·latency_ms``.

Dollars are what each dataset's
:class:`~repro.market.pricing.PricingPolicy` bills for the plan's
estimated calls; latency estimates come from the market's
:class:`~repro.market.latency.LatencyModel` summed serially over the
plan's market calls.

:class:`ServiceTier` names an objective preset so the serving layer can
plan each tenant's queries under their tier, and :class:`QueryOptions`
is the one record of an installation's knobs: the facade, the planning
context, the optimizer and the executor all read the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.errors import PlanningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.durable.backend import DurabilityConfig
    from repro.market.transport import TransportConfig


#: The five ways a plan can be chosen from the Pareto frontier.
PLAN_OBJECTIVE_KINDS = (
    "min_dollars",
    "min_latency",
    "dollars_under_latency_ms",
    "latency_under_dollars",
    "weighted",
)


@dataclass(frozen=True)
class PlanObjective:
    """What the planner optimizes for — one point on the Pareto frontier.

    Construct through the classmethods (``PlanObjective.min_latency()``,
    ``PlanObjective.dollars_under_latency_ms(500)``, ...) rather than the
    raw constructor; invalid combinations raise
    :class:`~repro.errors.PlanningError` at construction time.  Instances
    are frozen and hashable, so an objective can be part of a plan-cache
    key: two objectives over the same SQL template never share a cached
    plan.
    """

    kind: str = "min_dollars"
    #: Estimated-latency ceiling for ``dollars_under_latency_ms``.
    latency_bound_ms: float | None = None
    #: Estimated-dollars ceiling for ``latency_under_dollars``.
    dollar_bound: float | None = None
    #: Blend weights for ``weighted``: score = dollar_weight·dollars +
    #: latency_weight_per_ms·latency_ms.
    dollar_weight: float = 1.0
    latency_weight_per_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PLAN_OBJECTIVE_KINDS:
            raise PlanningError(
                f"unknown plan objective {self.kind!r}; "
                f"pick one of {PLAN_OBJECTIVE_KINDS}"
            )
        if self.kind == "dollars_under_latency_ms":
            if self.latency_bound_ms is None or self.latency_bound_ms <= 0:
                raise PlanningError(
                    "dollars_under_latency_ms needs a positive "
                    f"latency_bound_ms, got {self.latency_bound_ms!r}"
                )
        elif self.latency_bound_ms is not None:
            raise PlanningError(
                f"latency_bound_ms only applies to dollars_under_latency_ms, "
                f"not {self.kind!r}"
            )
        if self.kind == "latency_under_dollars":
            if self.dollar_bound is None or self.dollar_bound <= 0:
                raise PlanningError(
                    "latency_under_dollars needs a positive dollar_bound, "
                    f"got {self.dollar_bound!r}"
                )
        elif self.dollar_bound is not None:
            raise PlanningError(
                f"dollar_bound only applies to latency_under_dollars, "
                f"not {self.kind!r}"
            )
        if self.dollar_weight < 0 or self.latency_weight_per_ms < 0:
            raise PlanningError("objective weights cannot be negative")
        if self.kind == "weighted" and (
            self.dollar_weight == 0 and self.latency_weight_per_ms == 0
        ):
            raise PlanningError(
                "weighted objective needs at least one nonzero weight"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def min_dollars(cls) -> "PlanObjective":
        """The paper's objective: cheapest plan, latency ignored."""
        return MIN_DOLLARS

    @classmethod
    def min_latency(cls) -> "PlanObjective":
        """The fastest plan; ties broken by dollars."""
        return cls(kind="min_latency")

    @classmethod
    def dollars_under_latency_ms(cls, bound_ms: float) -> "PlanObjective":
        """Cheapest plan estimated to finish within ``bound_ms``."""
        return cls(kind="dollars_under_latency_ms", latency_bound_ms=bound_ms)

    @classmethod
    def latency_under_dollars(cls, bound: float) -> "PlanObjective":
        """Fastest plan estimated to cost at most ``bound`` dollars."""
        return cls(kind="latency_under_dollars", dollar_bound=bound)

    @classmethod
    def weighted(
        cls,
        dollar_weight: float = 1.0,
        latency_weight_per_ms: float = 0.01,
    ) -> "PlanObjective":
        """Minimize a linear blend of dollars and milliseconds."""
        return cls(
            kind="weighted",
            dollar_weight=dollar_weight,
            latency_weight_per_ms=latency_weight_per_ms,
        )

    @classmethod
    def parse(cls, text: str) -> "PlanObjective":
        """Parse a CLI-style objective: a kind name, with ``kind:value``
        for the bounded kinds (e.g. ``dollars_under_latency_ms:500``)."""
        name, sep, value = text.partition(":")
        name = name.strip().lower()
        if name == "min_dollars":
            return MIN_DOLLARS
        if name == "min_latency":
            return cls.min_latency()
        if name in ("dollars_under_latency_ms", "latency_under_dollars"):
            if not sep:
                raise PlanningError(
                    f"objective {name!r} needs a bound, e.g. {name}:500"
                )
            try:
                bound = float(value)
            except ValueError:
                raise PlanningError(
                    f"objective bound must be a number, got {value!r}"
                ) from None
            if name == "dollars_under_latency_ms":
                return cls.dollars_under_latency_ms(bound)
            return cls.latency_under_dollars(bound)
        if name == "weighted":
            if not sep:
                return cls.weighted()
            try:
                weight = float(value)
            except ValueError:
                raise PlanningError(
                    f"weighted latency weight must be a number, got {value!r}"
                ) from None
            return cls.weighted(latency_weight_per_ms=weight)
        raise PlanningError(
            f"unknown plan objective {name!r}; "
            f"pick one of {PLAN_OBJECTIVE_KINDS}"
        )

    # -- introspection --------------------------------------------------------

    @property
    def is_default(self) -> bool:
        """Whether this is the paper's single-objective (min-dollars) path."""
        return self.kind == "min_dollars"

    def fingerprint(self) -> tuple:
        """The hashable identity used inside plan-cache keys."""
        return (
            self.kind,
            self.latency_bound_ms,
            self.dollar_bound,
            self.dollar_weight,
            self.latency_weight_per_ms,
        )

    def describe(self) -> str:
        if self.kind == "dollars_under_latency_ms":
            return f"dollars_under_latency_ms({self.latency_bound_ms:g} ms)"
        if self.kind == "latency_under_dollars":
            return f"latency_under_dollars(${self.dollar_bound:g})"
        if self.kind == "weighted":
            return (
                f"weighted({self.dollar_weight:g}·$ + "
                f"{self.latency_weight_per_ms:g}·ms)"
            )
        return self.kind

    def __str__(self) -> str:
        return self.describe()


#: The paper's objective — the planner default, shared so identity checks
#: (``objective is MIN_DOLLARS``) work for the common case.
MIN_DOLLARS = PlanObjective()


@dataclass(frozen=True)
class AdaptivePolicy:
    """When to re-plan the remaining joins mid-query.

    The executor compares, after each executed join step, the prefix's
    *actual* cardinality against the plan's estimate.  When the two
    diverge by more than ``threshold`` (a ratio, in either direction) and
    the larger of the two clears the ``min_rows`` noise floor, the
    remaining joins are re-planned from the materialized intermediate —
    purchased boxes are already in the semantic store, so re-planning is
    money-free and can only reduce the remaining spend.  ``max_replans``
    bounds the planning work one query may buy itself.

    Off by default (``QueryOptions.adaptive = None``): without a policy
    the executor's walk has no checkpoints and joins a prefix only where
    a bind join reads it.
    """

    #: Divergence ratio that trips a re-plan: actual > threshold·est or
    #: est > threshold·actual.  Must be > 1.
    threshold: float = 2.0
    #: Noise floor: divergence below this many rows (on both sides) never
    #: trips — tiny intermediates re-plan nothing worth re-planning.
    min_rows: float = 10.0
    #: Re-plans allowed per query (each one runs the suffix DP once).
    max_replans: int = 2

    def __post_init__(self) -> None:
        if not self.threshold > 1.0:
            raise PlanningError(
                f"adaptive threshold must be > 1 (a divergence ratio), "
                f"got {self.threshold!r}"
            )
        if self.min_rows < 0:
            raise PlanningError(
                f"adaptive min_rows cannot be negative, got {self.min_rows!r}"
            )
        if isinstance(self.max_replans, bool) or not isinstance(
            self.max_replans, int
        ):
            raise PlanningError(
                f"max_replans must be an integer, got {self.max_replans!r}"
            )
        if self.max_replans < 1:
            raise PlanningError(
                f"max_replans must be >= 1, got {self.max_replans}"
            )

    def diverged(self, estimated: float, actual: float) -> bool:
        """Whether (estimated, actual) prefix cardinalities trip a re-plan."""
        if max(estimated, actual) < self.min_rows:
            return False
        return (
            actual > estimated * self.threshold
            or estimated > actual * self.threshold
        )

    @classmethod
    def parse(cls, text: str) -> "AdaptivePolicy":
        """Parse a CLI-style spec: ``THRESHOLD[:MIN_ROWS[:MAX_REPLANS]]``."""
        parts = [p.strip() for p in text.split(":") if p.strip()]
        if not parts or len(parts) > 3:
            raise PlanningError(
                f"adaptive spec must be THRESHOLD[:MIN_ROWS[:MAX_REPLANS]], "
                f"got {text!r}"
            )
        try:
            threshold = float(parts[0])
            min_rows = float(parts[1]) if len(parts) > 1 else 10.0
            max_replans = int(parts[2]) if len(parts) > 2 else 2
        except ValueError:
            raise PlanningError(
                f"adaptive spec fields must be numbers, got {text!r}"
            ) from None
        return cls(
            threshold=threshold, min_rows=min_rows, max_replans=max_replans
        )

    def describe(self) -> str:
        return (
            f"adaptive(threshold={self.threshold:g}×, "
            f"min_rows={self.min_rows:g}, max_replans={self.max_replans})"
        )

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class ServiceTier:
    """A named objective preset attachable to a serving session.

    The scheduler plans every query of a session under its tier's
    objective, so one installation serves latency-sensitive and
    cost-sensitive tenants side by side (see
    :meth:`repro.serve.scheduler.QueryScheduler.session`).
    """

    name: str
    objective: PlanObjective
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanningError("a service tier needs a name")
        if not isinstance(self.objective, PlanObjective):
            raise PlanningError(
                f"tier objective must be a PlanObjective, "
                f"got {self.objective!r}"
            )

    @classmethod
    def named(cls, name: str) -> "ServiceTier":
        """Look up one of the built-in tiers by name."""
        tier = SERVICE_TIERS.get(name.lower())
        if tier is None:
            raise PlanningError(
                f"unknown service tier {name!r}; "
                f"pick one of {tuple(SERVICE_TIERS)}"
            )
        return tier

    def __str__(self) -> str:
        return f"{self.name} ({self.objective.describe()})"


#: The built-in tiers (``ServiceTier.named("economy")`` etc.).
SERVICE_TIERS: dict[str, ServiceTier] = {
    tier.name: tier
    for tier in (
        ServiceTier(
            "economy",
            MIN_DOLLARS,
            "cheapest plan, latency ignored (the paper's behaviour)",
        ),
        ServiceTier(
            "interactive",
            PlanObjective.dollars_under_latency_ms(2000.0),
            "cheapest plan estimated under two seconds",
        ),
        ServiceTier(
            "realtime",
            PlanObjective(kind="min_latency"),
            "fastest plan regardless of dollars (ties broken by dollars)",
        ),
    )
}


@dataclass(frozen=True)
class QueryOptions:
    """Every installation knob, in one documented place.

    Pass it as ``PayLess(market, options=QueryOptions(...))``.
    """

    # -- what to optimize for -------------------------------------------------
    #: Installation-wide default objective; per-call ``objective=`` on
    #: ``query``/``explain``/... (or a session's ServiceTier) overrides it.
    objective: PlanObjective = MIN_DOLLARS

    # -- planner --------------------------------------------------------------
    #: Apply Theorems 1-3 ("Disable All" of Figure 14 = False → bushy).
    use_theorems: bool = True
    #: Bind joins may bind values for at most this many attributes.
    max_bind_attrs: int = 2
    #: Entries the parameterized plan cache may hold; 0 disables it.
    plan_cache_size: int = 256

    # -- transport ------------------------------------------------------------
    #: Retries, partial results, idempotency and breakers (``None`` =
    #: library defaults); the fault fields below overlay it when set.
    transport: "TransportConfig | None" = None
    #: Fault injection (0 = off) with a deterministic seed.
    fault_rate: float = 0.0
    fault_seed: int = 0

    # -- durability -----------------------------------------------------------
    #: Crash-safe state: a state directory path (str/Path) or a full
    #: :class:`~repro.durable.backend.DurabilityConfig`.  ``None`` keeps
    #: the installation in-memory only.
    durability: "DurabilityConfig | str | Path | None" = None

    # -- adaptive re-optimization ---------------------------------------------
    #: Mid-query re-planning policy; ``None`` (the default) never re-plans.
    adaptive: AdaptivePolicy | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.objective, PlanObjective):
            raise PlanningError(
                f"objective must be a PlanObjective, got {self.objective!r}"
            )
        if self.adaptive is not None and not isinstance(
            self.adaptive, AdaptivePolicy
        ):
            raise PlanningError(
                f"adaptive must be an AdaptivePolicy or None, "
                f"got {self.adaptive!r}"
            )
        if not 0.0 <= self.fault_rate <= 1.0:
            raise PlanningError(
                f"fault_rate must be within [0, 1], got {self.fault_rate!r}"
            )
        # (knob, smallest valid value): whole numbers, fail fast at
        # construction rather than at the first query.
        for name, least in (
            ("max_bind_attrs", 0),
            ("plan_cache_size", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise PlanningError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise PlanningError(f"{name} must be >= {least}, got {value}")

    # -- derived configs ------------------------------------------------------

    def durability_config(self):
        """The durable backend's view (None = in-memory only)."""
        if self.durability is None:
            return None
        from repro.durable.backend import DurabilityConfig

        if isinstance(self.durability, DurabilityConfig):
            return self.durability
        return DurabilityConfig(state_dir=self.durability)

    def transport_config(self) -> "TransportConfig | None":
        """The money-safe transport's view (None = library defaults)."""
        if self.fault_rate == 0.0:
            return self.transport
        from repro.market.faults import FaultPolicy
        from repro.market.transport import TransportConfig

        base = self.transport if self.transport is not None else TransportConfig()
        return replace(
            base,
            faults=FaultPolicy.uniform(seed=self.fault_seed, rate=self.fault_rate),
        )

    def with_objective(self, objective: PlanObjective) -> "QueryOptions":
        return replace(self, objective=objective)
