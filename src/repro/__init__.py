"""PayLess — query optimization over cloud data markets (EDBT 2015).

Reproduction of *"Query Optimization over Cloud Data Market"* by Yu Li,
Eric Lo, Man Lung Yiu and Wenjian Xu.  The top-level package re-exports the
pieces most users need:

* :class:`~repro.market.server.DataMarket` — the simulated priced market;
* :class:`~repro.core.payless.PayLess` — the buyer-side system; its
  class methods build the evaluation's arms, down to the Download-All
  baseline PayLess is measured against (:meth:`PayLess.download_all`);
* :class:`~repro.market.transport.TransportConfig` and
  :class:`~repro.market.faults.FaultPolicy` — the money-safe transport
  (retries, at-most-once billing, fault injection) and the exception
  hierarchy it raises (:class:`~repro.errors.TransportError` and friends);
* :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.QueryTrace`
  — the observability layer behind ``PayLess(tracing=True)`` and
  ``explain_analyze`` (counts come from ``PayLess.metrics()``);
* :class:`~repro.core.objectives.QueryOptions` — every installation knob
  in one place — with :class:`~repro.core.objectives.PlanObjective` and
  :class:`~repro.core.objectives.ServiceTier` steering the planner's
  money-latency Pareto frontier (see
  :class:`~repro.errors.InfeasibleObjectiveError` and the market's
  :class:`~repro.market.latency.LatencyModel`);
* :class:`~repro.durable.DurabilityConfig` /
  :class:`~repro.durable.DurableStateBackend` — crash-safe WAL-backed
  buyer state behind ``QueryOptions(durability=...)``: every purchase is
  durable the moment it is billed, and restarts replay snapshot + WAL
  (see :mod:`repro.durable`).
"""

from repro.core.objectives import (
    SERVICE_TIERS,
    AdaptivePolicy,
    PlanObjective,
    QueryOptions,
    ServiceTier,
)
from repro.core.payless import Explanation, PayLess, QueryResult, QueryStats
from repro.durable import (
    DurabilityConfig,
    DurableStateBackend,
    RecoveryReport,
)
from repro.market.latency import DEFAULT_LATENCY, INSTANT, LatencyModel
from repro.obs.trace import QueryTrace, Tracer
from repro.errors import (
    ExecutionError,
    InfeasibleObjectiveError,
    MarketError,
    MarketUnavailableError,
    PlanningError,
    ReproError,
    RetryExhaustedError,
    SqlAnalysisError,
    TransportError,
)
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import Dataset
from repro.market.faults import FaultPolicy
from repro.market.pricing import PricingPolicy
from repro.market.server import DataMarket
from repro.market.transport import TransportConfig
from repro.relational.database import Database
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.semstore.consistency import ConsistencyLevel, ConsistencyPolicy

__version__ = "1.0.0"

__all__ = [
    "AccessMode",
    "AdaptivePolicy",
    "Attribute",
    "AttributeType",
    "BindingPattern",
    "ConsistencyLevel",
    "ConsistencyPolicy",
    "Database",
    "DataMarket",
    "Dataset",
    "DEFAULT_LATENCY",
    "Domain",
    "DurabilityConfig",
    "DurableStateBackend",
    "ExecutionError",
    "Explanation",
    "FaultPolicy",
    "InfeasibleObjectiveError",
    "INSTANT",
    "LatencyModel",
    "MarketError",
    "MarketUnavailableError",
    "PayLess",
    "PlanningError",
    "PlanObjective",
    "PricingPolicy",
    "QueryOptions",
    "QueryResult",
    "QueryStats",
    "QueryTrace",
    "RecoveryReport",
    "ReproError",
    "RetryExhaustedError",
    "Schema",
    "SERVICE_TIERS",
    "ServiceTier",
    "SqlAnalysisError",
    "Table",
    "Tracer",
    "TransportConfig",
    "TransportError",
    "__version__",
]
