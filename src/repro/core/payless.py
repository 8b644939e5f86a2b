"""The PayLess facade — the system of Figure 3.

One :class:`PayLess` instance is one buyer organization's installation:
it holds the market connection (auth is implicit in the simulator), the
semantic store, the learned statistics, the local DBMS, and exposes the
SQL interface end users see.

Typical use::

    market = DataMarket(); market.publish(dataset)
    payless = PayLess(market)
    payless.register_dataset("WHW")
    result = payless.query(
        "SELECT Temperature FROM Station, Weather WHERE ...", params
    )
    print(result.rows, result.stats.transactions)

The ``variant`` class methods build the evaluation's configurations:
full PayLess, PayLess without semantic query rewriting (strong
consistency), the Minimizing-Calls competitor and the Download-All
baseline.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from repro.core.baselines import PerCallPricing
from repro.core.context import PlanningContext
from repro.core.executor import Executor, QueryStats
from repro.core.objectives import (
    SERVICE_TIERS,
    PlanObjective,
    QueryOptions,
    ServiceTier,
)
from repro.core.optimizer import Optimizer, PlanningResult
from repro.core.plancache import PlanCache
from repro.core.plans import PlanNode, has_bind_join
from repro.core.rewriter import SemanticRewriter
from repro.errors import PlanningError
from repro.market.server import DataMarket
from repro.obs.explain import render_explain, render_explain_analyze
from repro.obs.trace import QueryTrace, Tracer
from repro.relational.database import Database
from repro.relational.operators import Relation
from repro.relational.query import LogicalQuery
from repro.relational.table import Table
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore
from repro.sqlparser.analyzer import analyze, compile_sql
from repro.sqlparser.ast import SelectStatement
from repro.stats.catalog import Catalog

#: How many :class:`QueryLogEntry` lines an installation retains.
HISTORY_KEEP = 1024


def _bill_view(bucket: str) -> property:
    """A read-only running total: one bucket of the installation's bill."""
    return property(lambda self: getattr(self.context.transport.bill, bucket))


def _table_label(query: SelectStatement | LogicalQuery) -> str:
    """The trace label of a query that arrived without its SQL text."""
    if isinstance(query, LogicalQuery):
        return ", ".join(query.tables)
    return ", ".join(ref.name for ref in query.tables)


@dataclass(frozen=True)
class QueryLogEntry:
    """One line of the installation's query history."""

    sequence: int
    sql_tables: tuple[str, ...]
    transactions: int
    calls: int
    evaluated_plans: int
    used_bind_join: bool

    def __repr__(self) -> str:
        tables = ", ".join(self.sql_tables)
        return (
            f"#{self.sequence} [{tables}] {self.transactions} trans., "
            f"{self.calls} calls"
        )


@dataclass
class QueryResult:
    """What a user query returns: rows, the chosen plan, and its stats.

    The per-query statistics live in ``result.stats`` (a
    :class:`~repro.core.executor.QueryStats`).
    """

    relation: Relation
    plan: PlanNode
    stats: QueryStats = field(default_factory=QueryStats)
    #: The query's span tree, when the installation's tracer was enabled.
    trace: QueryTrace | None = None

    @property
    def rows(self) -> list[tuple]:
        return self.relation.rows

    @property
    def columns(self) -> list[str]:
        return [column for __, column in self.relation.layout.columns]


@dataclass
class Explanation:
    """What :meth:`PayLess.explain` returns: the plan plus its rendering.

    Forwards the :class:`~repro.core.optimizer.PlanningResult` attributes
    (``plan``, ``cost``, ``evaluated_plans``, ...) so callers that treated
    ``explain()`` as returning the planning result keep working;
    ``str(explanation)`` (or :meth:`render`) is the EXPLAIN text.  After
    :meth:`PayLess.explain_analyze`, ``stats``/``trace``/``result`` carry
    the executed query's actuals and the rendering annotates each node.
    """

    planning: PlanningResult
    label: str | None = None
    stats: QueryStats | None = None
    trace: QueryTrace | None = None
    result: QueryResult | None = None

    @property
    def plan(self) -> PlanNode:
        return self.planning.plan

    @property
    def cost(self) -> float:
        return self.planning.cost

    @property
    def evaluated_plans(self) -> int:
        return self.planning.evaluated_plans

    @property
    def enumerated_boxes(self) -> int:
        return self.planning.enumerated_boxes

    @property
    def kept_boxes(self) -> int:
        return self.planning.kept_boxes

    @property
    def pruned_plans(self) -> int:
        return self.planning.pruned_plans

    @property
    def from_cache(self) -> bool:
        return self.planning.from_cache

    @property
    def analyzed(self) -> bool:
        return self.stats is not None

    def render(self) -> str:
        if self.stats is not None:
            return render_explain_analyze(
                self.planning, self.stats, self.trace, self.label
            )
        return render_explain(self.planning, self.label)

    def __str__(self) -> str:
        return self.render()


class PayLess:
    """A buyer-side installation of the PayLess system.

    Configuration lives in one documented place:
    :class:`~repro.core.objectives.QueryOptions`, passed as ``options=``.
    """

    #: The running totals: read-only views of the installation's one bill
    #: (``context.transport.bill``, a
    #: :class:`~repro.market.billing.BuyerBill`), folded per market call —
    #: a failed query's calls included.
    total_transactions = _bill_view("spent_transactions")
    total_price = _bill_view("spent_price")
    total_wasted_transactions = _bill_view("wasted_transactions")
    total_wasted_price = _bill_view("wasted_price")
    total_coalesced_fetches = _bill_view("coalesced_calls")
    total_coalesced_transactions = _bill_view("coalesced_transactions")
    total_coalesced_price = _bill_view("coalesced_price")

    @property
    def total_calls(self) -> int:
        """Every billed call, delivered or not."""
        bill = self.context.transport.bill
        return bill.spent_calls + bill.wasted_calls

    def __init__(
        self,
        market: DataMarket,
        local_db: Database | None = None,
        consistency: ConsistencyPolicy | None = None,
        options: QueryOptions | None = None,
        statistic: str = "isomer",
        tracing: bool = False,
    ):
        if options is None:
            options = QueryOptions()
        elif not isinstance(options, QueryOptions):
            raise PlanningError(
                f"options must be a QueryOptions, got {options!r}"
            )
        self.market = market
        #: The one configuration record (see
        #: :class:`~repro.core.objectives.QueryOptions`); every layer
        #: reads this same instance as ``context.options``.
        self.query_options = options
        #: Observability: structured tracing (off by default — near-zero
        #: overhead; flip ``payless.tracer.enabled`` or use
        #: :meth:`explain_analyze` for one query).  Counts are read off
        #: the components with :meth:`metrics`.
        self.tracer = Tracer(enabled=tracing)
        #: Which updatable statistic drives estimation ("isomer",
        #: "independence", or "uniform"; see repro.stats.interface).
        self.statistic = statistic
        self.local_db = local_db or Database()
        self.store = SemanticStore(consistency)
        self.catalog = Catalog()
        self.rewriter = SemanticRewriter(self.store, self.catalog)
        self.context = PlanningContext(
            market=self.market,
            catalog=self.catalog,
            store=self.store,
            rewriter=self.rewriter,
            local_db=self.local_db,
            tracer=self.tracer,
            options=options,
        )
        for table in self.local_db:
            self.context.register_local(table)
        #: The epoch-keyed parameterized plan cache: repeat templates skip
        #: parse + analyze + planning entirely (see repro.core.plancache).
        self.plan_cache = PlanCache(
            self.store, capacity=options.plan_cache_size, tracer=self.tracer
        )
        self.queries_executed = 0
        #: Per-query history, most recent last (a bounded ring; an entry's
        #: ``sequence`` keeps counting); see :class:`QueryLogEntry`.
        self.history: list[QueryLogEntry] = []
        #: Guards the query count and the history list: under the
        #: concurrent serving front-end (:mod:`repro.serve`) many worker
        #: threads finish queries against this one installation.
        self._accounting_lock = threading.Lock()
        #: Durable WAL backend (``None`` = in-memory only); see
        #: :mod:`repro.durable`.  Built here so every layer — executor,
        #: transport, store clock — shares the one instance.
        self.durability = None
        durability_config = options.durability_config()
        if durability_config is not None:
            from repro.durable.backend import DurableStateBackend

            self.durability = DurableStateBackend(
                durability_config, self.context.transport.bill
            )
            self.durability.attach(self)
            self.context.durability = self.durability
            self.context.transport.durability = self.durability
            self.store.on_clock_advance = self.durability.log_clock

    # -- configuration shortcuts -------------------------------------------------

    @classmethod
    def full(cls, market: DataMarket, **kwargs: Any) -> "PayLess":
        """The complete system: SQR + all search-space theorems."""
        return cls(market, **kwargs)

    @classmethod
    def without_sqr(cls, market: DataMarket, **kwargs: Any) -> "PayLess":
        """The "PayLess w/o SQR" arm of Figure 10: strong consistency
        (Section 4.3), so nothing stored is reused and every query goes to
        the market."""
        return cls(market, consistency=ConsistencyPolicy.strong(), **kwargs)

    @classmethod
    def minimizing_calls(cls, market: DataMarket, **kwargs: Any) -> "PayLess":
        """The Minimizing-Calls competitor of Figure 10: the same planner,
        without SQR, pricing every call at one unit."""
        payless = cls.without_sqr(market, **kwargs)
        payless.context.repricing = PerCallPricing.of
        return payless

    @classmethod
    def download_all(cls, market: DataMarket, **kwargs: Any) -> "PayLess":
        """The Download-All baseline of Figure 10: rent or buy with a buy
        threshold of 0, so each table is bought whole at first touch and
        every later query is answered from the store."""
        payless = cls(market, **kwargs)
        payless.rewriter.buy_threshold = 0.0
        return payless

    # -- registration ---------------------------------------------------------------

    def register_dataset(self, name: str) -> None:
        """Register with the market for ``name`` and ingest its basic stats."""
        dataset = self.market.dataset(name)
        for market_table in dataset:
            statistics = market_table.basic_statistics()
            space = BoxSpace.from_table(
                market_table.name,
                market_table.schema,
                market_table.pattern,
                statistics,
            )
            self.catalog.register(
                market_table.name,
                market_table.schema,
                space,
                statistics,
                statistic=self.statistic,
            )
            self.store.register_table(space, market_table.schema)
            self.context.register_market_table(
                dataset.name, market_table.name, market_table.schema
            )

    def add_local_table(self, table: Table) -> None:
        """Add a buyer-side table usable in queries alongside market data."""
        self.local_db.add(table)
        self.context.register_local(table)

    # -- querying ---------------------------------------------------------------------

    def compile(self, sql: str, params: Sequence[Any] = ()) -> LogicalQuery:
        """Parse + analyze ``sql`` against registered tables."""
        return compile_sql(sql, self.context, params)

    def _resolve_objective(
        self, objective: PlanObjective | ServiceTier | str | None
    ) -> PlanObjective:
        """The effective objective of one call.

        ``None`` means the installation default
        (``query_options.objective``); a :class:`ServiceTier` contributes
        its objective; a string names a built-in tier (``"realtime"``) or
        parses as an objective spec (``"dollars_under_latency_ms:500"``).
        """
        if objective is None:
            return self.query_options.objective
        if isinstance(objective, PlanObjective):
            return objective
        if isinstance(objective, ServiceTier):
            return objective.objective
        if isinstance(objective, str):
            tier = SERVICE_TIERS.get(objective.lower())
            if tier is not None:
                return tier.objective
            return PlanObjective.parse(objective)
        raise PlanningError(
            "objective must be a PlanObjective, a ServiceTier, a tier "
            f"name, or an objective spec string; got {objective!r}"
        )

    def _plan(
        self,
        query: SelectStatement | LogicalQuery,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> tuple[PlanningResult, LogicalQuery]:
        """The one lookup-or-plan step: cache key, lookup, analyze,
        optimize, insert.  No market call, no billing.

        ``query`` is a parsed template (bound to ``params`` here) or an
        already-compiled logical query.  The returned planning carries the
        call's resolved objective (``planning.objective``).

        The cache is this installation's own and its options are frozen,
        so the only planner input beside the query that varies within it
        is the call's objective: two objectives over one template never
        share a cached plan.
        """
        resolved = self._resolve_objective(objective)
        fingerprint = resolved.fingerprint()
        cache = self.plan_cache
        compiled = isinstance(query, LogicalQuery)
        if compiled:
            key = cache.logical_key(query, fingerprint)
        else:
            key = cache.statement_key(query, params, fingerprint)
        entry = cache.lookup(key)
        if entry is not None:
            return (
                replace(entry.planning, cache_status="hit"),
                query if compiled else entry.logical,
            )
        logical = query if compiled else analyze(query, self.context, params)
        planning = Optimizer(self.context, objective=resolved).optimize(logical)
        planning.cache_status = "miss" if cache.enabled else "off"
        cache.insert(key, logical, planning)
        return planning, logical

    def explain(
        self,
        sql: str,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> Explanation:
        """Optimize without executing: no market call, no billing.

        ``str(...)`` of the returned :class:`Explanation` is the EXPLAIN
        text; it also forwards every planning-result attribute (``plan``,
        ``cost``, ``evaluated_plans``, ...).  Planning goes through the
        plan cache: a repeat EXPLAIN (or a later identical query) reuses
        the cached plan as long as the store epochs it was stamped with
        still hold.

        ``objective`` overrides the installation default for this one
        call (see :meth:`_resolve_objective` for the accepted forms).
        """
        statement = self.plan_cache.parse_sql(sql)
        planning, __ = self._plan(statement, params, objective)
        return Explanation(planning=planning, label=sql)

    def explain_analyze(
        self,
        sql: str,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> Explanation:
        """Execute ``sql`` with tracing forced on; render est-vs-actuals.

        The tracer is enabled for exactly this one query and restored
        afterwards, so an installation running with tracing off pays the
        tracing overhead only when explicitly asked to ANALYZE.
        """
        tracer = self.tracer
        previous, tracer.enabled = tracer.enabled, True
        try:
            result, planning = self._query(sql, params, objective)
        finally:
            tracer.enabled = previous
        return Explanation(
            planning=planning,
            label=sql,
            stats=result.stats,
            trace=result.trace,
            result=result,
        )

    def query(
        self,
        sql: str,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
        admit: Callable[[PlanningResult], None] | None = None,
    ) -> QueryResult:
        """Optimize and execute ``sql``, paying as little as possible.

        ``objective`` overrides the installation default for this one
        call: a :class:`PlanObjective`, a :class:`ServiceTier`, a tier
        name, or an objective spec string.  ``admit`` (the serving front
        end's budget gate) is called with the planning result before it is
        executed: what it raises stops the query before any money moves.
        """
        return self._query(sql, params, objective, admit)[0]

    def _query(
        self, sql: str, params: Sequence[Any], objective, admit=None
    ) -> tuple[QueryResult, PlanningResult]:
        tracer = self.tracer
        with tracer.query_scope(sql):
            with tracer.span("parse"):
                statement = self.plan_cache.parse_sql(sql)
            return self._run(statement, params, objective, admit)

    def execute_statement(
        self,
        statement: SelectStatement,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> QueryResult:
        """Run an already-parsed statement (the :class:`PreparedQuery` path).

        Planning is served from the plan cache when the template+params
        were planned before at the current store epochs; otherwise the
        statement is re-analyzed and planned fresh (and cached).
        """
        return self._run(statement, params, objective)[0]

    def execute_logical(
        self,
        logical: LogicalQuery,
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> QueryResult:
        """Run an already-compiled query (the benchmark harness fast path)."""
        return self._run(logical, (), objective)[0]

    def _run(
        self,
        query: SelectStatement | LogicalQuery,
        params: Sequence[Any],
        objective: PlanObjective | ServiceTier | str | None,
        admit: Callable[[PlanningResult], None] | None = None,
    ) -> tuple[QueryResult, PlanningResult]:
        """Plan ``query`` and execute the plan, inside the call's trace.

        The trace scope is re-entrant: :meth:`_query` opened it around
        parsing (so the plan cache's hit/miss event and a failure before
        planning land in this query's span tree); a directly executed
        statement or logical query opens it here, labelled by its tables.
        """
        tracer = self.tracer
        with tracer.query_scope(_table_label(query) if tracer.enabled else ""):
            planning, logical = self._plan(query, params, objective)
            if admit is not None:
                admit(planning)
            return self._execute(planning, logical), planning

    def _execute(
        self, planning: PlanningResult, logical: LogicalQuery
    ) -> QueryResult:
        """Execute a planned query and account for it; the caller holds
        the trace scope."""
        executor = Executor(self.context, objective=planning.objective)
        relation, stats = executor.execute(logical, planning.plan)
        with self._accounting_lock:
            self.queries_executed += 1
            self.history.append(
                QueryLogEntry(
                    sequence=self.queries_executed,
                    sql_tables=tuple(logical.tables),
                    transactions=stats.transactions,
                    calls=stats.calls,
                    evaluated_plans=planning.evaluated_plans,
                    used_bind_join=has_bind_join(planning.plan),
                )
            )
            if len(self.history) > HISTORY_KEEP:
                del self.history[0]
        stats.evaluated_plans = planning.evaluated_plans
        stats.enumerated_boxes = planning.enumerated_boxes
        stats.kept_boxes = planning.kept_boxes
        durability = self.durability
        if durability is not None:
            # Journal the finished query, then compact if the WAL grew
            # past the threshold — here at the query boundary, where no
            # table lock is held.
            durability.log_query()
            durability.maybe_compact()
        # The scope that owns the trace closes (and archives) it when the
        # call returns; the result keeps the same object.
        return QueryResult(relation, planning.plan, stats, self.tracer.active)

    # -- durability lifecycle ---------------------------------------------------------

    def recover(self):
        """Rebuild durable state: snapshot + WAL replay + intent roll-forward.

        Call after dataset registration and before the first query (a
        no-op without a durability config).  Returns the
        :class:`~repro.durable.backend.RecoveryReport`, or ``None`` when
        the installation is in-memory only.
        """
        if self.durability is None:
            return None
        return self.durability.recover(self)

    def close(self) -> None:
        """Clean shutdown: group-commit and snapshot the durable state,
        and stop the async transport's event loop if a query started it.

        Safe to call repeatedly and without a durability config.
        """
        if self.durability is not None:
            self.durability.close()
        self.context.async_transport.close()

    def __enter__(self) -> "PayLess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting -------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """What this installation has done so far, as one flat view.

        Computed on call from counters its components already keep: the
        query count, the installation's bill (folded per market call, so a
        failed query's spend is in it), the plan cache, the rewrite memo, the
        circuit breakers, the async driver's connection pools and, per
        market table the installation has paid for, the store's running
        spend (``<table>.dollars_spent``) beside the whole table's price
        (``<table>.whole_table_dollars``) and their ratio
        (``<table>.spent_over_whole``) — the rent-or-buy rule's two sides.
        Nothing is registered anywhere, so two installations in one
        process never see each other's numbers.
        """
        cache, rewriter = self.plan_cache, self.rewriter
        breakers = self.context.transport.breakers()
        aio = self.context.async_transport
        bill = self.context.transport.bill
        with bill.lock:
            view = {
                "queries": self.queries_executed,
                "transactions_spent": bill.spent_transactions,
                "dollars_spent": bill.spent_price,
                "dollars_wasted": bill.wasted_price,
                "fetch_coalesced": bill.coalesced_calls,
                "dollars_saved_coalescing": bill.coalesced_price,
            }
        rewrites = rewriter.cache_misses
        view.update(
            plan_cache_hits=cache.hits,
            plan_cache_misses=cache.misses,
            plan_cache_invalidations=cache.invalidations,
            plan_cache_evictions=cache.evictions,
            plan_cache_hit_rate=cache.hit_rate,
            memo_hits=rewriter.cache_hits,
            memo_misses=rewrites,
            memo_hit_rate=rewriter.cache_hit_rate,
            store_coverage_ratio=(
                rewriter.covered_rewrites / rewrites if rewrites else 0.0
            ),
            breaker_transitions=sum(breaker.transitions for breaker in breakers),
            breaker_opens=sum(breaker.opens for breaker in breakers),
            connections_reused=sum(
                pool["reused"] for pool in aio.pool_stats().values()
            ),
            prefetch_wasted_dollars=self.context.prefetch_wasted_price,
        )
        for dataset in self.market:
            for market_table in dataset:
                name = market_table.name
                if not self.context.is_market(name):
                    continue
                spent = self.store.spent(name)
                if not spent:
                    continue
                whole = self.context.pricing(name).price_for(
                    self.catalog.statistics(name).cardinality
                )
                view[f"{name}.dollars_spent"] = spent
                view[f"{name}.whole_table_dollars"] = whole
                view[f"{name}.spent_over_whole"] = (
                    spent / whole if whole else math.inf
                )
        return view

    def bill(self) -> str:
        return (
            f"{self.queries_executed} queries, {self.total_calls} calls, "
            f"{self.total_transactions} transactions, ${self.total_price:g}"
        )
