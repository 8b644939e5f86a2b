"""The planning/execution context: everything PayLess knows at query time.

Bundles the market connection, the catalog of market-table statistics, the
semantic store, the rewriter, the buyer's local database, and cheap exact
statistics about local tables.  Built once by the :class:`~repro.core.
payless.PayLess` facade at registration time and threaded through the
optimizer, baselines, and executor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.objectives import QueryOptions
from repro.core.rewriter import SemanticRewriter
from repro.errors import PlanningError
from repro.market.aio import AsyncMarketTransport
from repro.market.pricing import PricingPolicy
from repro.market.server import DataMarket
from repro.market.transport import MarketTransport
from repro.obs.trace import Tracer
from repro.relational.database import Database
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog


@dataclass(frozen=True)
class LocalTableInfo:
    """Exact, free statistics about a local table."""

    table: str
    cardinality: int
    distinct: dict[str, int]

    def distinct_of(self, attribute: str) -> int:
        return self.distinct.get(attribute.lower(), self.cardinality)

    @classmethod
    def from_table(cls, table: Table) -> "LocalTableInfo":
        distinct = {
            attribute.name.lower(): len(table.distinct(attribute.name))
            for attribute in table.schema
        }
        return cls(
            table=table.name,
            cardinality=len(table),
            distinct=distinct,
        )


class PlanningContext:
    """Shared state for planning and executing one buyer's queries."""

    def __init__(
        self,
        market: DataMarket,
        catalog: Catalog,
        store: SemanticStore,
        rewriter: SemanticRewriter,
        local_db: Database,
        tracer: Tracer | None = None,
        options: QueryOptions | None = None,
    ):
        self.market = market
        self.catalog = catalog
        self.store = store
        self.rewriter = rewriter
        self.local_db = local_db
        #: The installation's one configuration record.  The optimizer,
        #: the executor and the facade read their knobs here; what follows
        #: are the components it configures, not copies of its fields.
        self.options = options if options is not None else QueryOptions()
        #: The query tracer (disabled by default — near-zero overhead),
        #: threaded from here into the rewriter so every pipeline layer
        #: reports into the same trace.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: Dollars of prefetched purchases no plan walk consumed (a query
        #: that failed after its prefetches were issued); see
        #: :meth:`add_prefetch_waste`.
        self.prefetch_wasted_price = 0.0
        self._prefetch_waste_lock = threading.Lock()
        self.rewriter.tracer = self.tracer
        #: The money-safe transport every executor call goes through (see
        #: :mod:`repro.market.transport`).  Lives here, not on the
        #: executor: circuit breakers must remember failures across
        #: queries.
        self.transport = MarketTransport(market, self.options.transport_config())
        #: The pipelined event-loop driver with per-seller connection
        #: pools (:mod:`repro.market.aio`) wrapping the *same* transport
        #: above.  Executors take it while the market's calls really wait;
        #: its loop starts on the first such call.
        self.async_transport = AsyncMarketTransport(self.transport)
        #: Singleflight group coalescing overlapping in-flight market
        #: fetches across concurrent sessions (``None`` = no coalescing).
        #: Wired by :class:`~repro.serve.scheduler.QueryScheduler`; the
        #: executor consults it per remainder call.
        self.coalescer = None
        #: Durable WAL backend (``None`` = in-memory only).  Wired by
        #: :class:`~repro.core.payless.PayLess` when ``QueryOptions``
        #: carries a durability config; the executor journals purchases
        #: through it inside the record→release window.
        self.durability = None
        #: Turns a dataset's published schedule into the one the planner
        #: and the rewriter price with (``None`` = the published one).
        #: Set by :meth:`~repro.core.payless.PayLess.minimizing_calls`.
        self.repricing = None
        self._local_info: dict[str, LocalTableInfo] = {}
        self._dataset_of: dict[str, str] = {}
        self._schemas: dict[str, Schema] = {}

    # -- registration -----------------------------------------------------------

    def register_local(self, table: Table) -> None:
        key = table.name.lower()
        self._local_info[key] = LocalTableInfo.from_table(table)
        self._schemas[key] = table.schema

    def register_market_table(self, dataset: str, table: str, schema: Schema) -> None:
        key = table.lower()
        self._dataset_of[key] = dataset
        self._schemas[key] = schema

    # -- accounting -------------------------------------------------------------

    def add_prefetch_waste(self, price: float) -> None:
        """Count ``price`` dollars of prefetches a failed query drained
        (concurrent sessions drain into the one field)."""
        with self._prefetch_waste_lock:
            self.prefetch_wasted_price += price

    # -- lookups ----------------------------------------------------------------

    def is_market(self, table: str) -> bool:
        return table.lower() in self._dataset_of

    def is_local(self, table: str) -> bool:
        return table.lower() in self._local_info

    def dataset_of(self, table: str) -> str:
        try:
            return self._dataset_of[table.lower()]
        except KeyError:
            raise PlanningError(f"{table!r} is not a market table") from None

    def local_info(self, table: str) -> LocalTableInfo:
        try:
            return self._local_info[table.lower()]
        except KeyError:
            raise PlanningError(f"{table!r} is not a local table") from None

    def pricing(self, table: str) -> PricingPolicy:
        """The schedule ``table``'s calls are priced with: the one its
        dataset publishes and the seller bills with, unless re-priced."""
        pricing = self.market.dataset(self.dataset_of(table)).pricing
        return pricing if self.repricing is None else self.repricing(pricing)

    @property
    def latency_model(self):
        """The latency model the planner estimates plan wall-clock with.

        The market's own model when it has one; an instant market (the
        test/default configuration) falls back to
        :data:`~repro.market.latency.DEFAULT_LATENCY` so the latency axis
        of the Pareto frontier stays meaningful — planning against an
        all-zero model would make every plan "equally fast" and reduce
        every objective to min-dollars.
        """
        model = self.market.latency
        if model.is_instant:
            from repro.market.latency import DEFAULT_LATENCY

            return DEFAULT_LATENCY
        return model

    # -- SchemaProvider protocol (for the SQL analyzer) ---------------------------

    def has_table(self, name: str) -> bool:
        return name.lower() in self._schemas

    def schema_of(self, name: str) -> Schema:
        try:
            return self._schemas[name.lower()]
        except KeyError:
            raise PlanningError(f"unknown table {name!r}") from None
