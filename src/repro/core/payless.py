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
full PayLess, PayLess without semantic query rewriting, and the
Minimizing-Calls competitor.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Any, Sequence

from repro.core.baselines import DownloadAllStrategy
from repro.core.context import PlanningContext
from repro.core.executor import ExecutionResult, Executor, FailedFetch
from repro.core.objectives import (
    SERVICE_TIERS,
    PlanObjective,
    QueryOptions,
    ServiceTier,
)
from repro.core.optimizer import Optimizer, OptimizerOptions, PlanningResult
from repro.core.plancache import PlanCache
from repro.core.plans import PlanNode
from repro.core.rewriter import SemanticRewriter
from repro.errors import PlanningError
from repro.market.server import DataMarket
from repro.market.transport import TransportConfig
from repro.obs.explain import render_explain, render_explain_analyze
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.trace import QueryTrace, Tracer
from repro.relational.database import Database
from repro.relational.engine import DEFAULT_EXECUTION, ExecutionConfig
from repro.relational.operators import Relation
from repro.relational.query import LogicalQuery
from repro.relational.table import Table
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore
from repro.sqlparser.analyzer import analyze, compile_sql
from repro.sqlparser.ast import SelectStatement
from repro.stats.catalog import Catalog

#: Sentinel distinguishing "no cache key computed yet" from "don't cache".
_UNSET = object()


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


@dataclass(frozen=True)
class QueryStats:
    """Everything one query cost and went through, in one structure.

    Read it as ``result.stats``.
    """

    #: Market transactions billed (and *spent* — wasted charges are
    #: reported separately below).
    transactions: int = 0
    price: float = 0.0
    #: Billed REST calls.
    calls: int = 0
    records: int = 0
    #: Candidate (sub)plans the optimizer evaluated (Figure 14).
    evaluated_plans: int = 0
    #: Bounding boxes Algorithm 1 generated / kept after pruning (Fig 15).
    enumerated_boxes: int = 0
    kept_boxes: int = 0
    #: Simulated wall-clock of the market calls (serial sum, including
    #: transport retries and backoff waits).
    market_time_ms: float = 0.0
    #: Simulated wall-clock under the installation's concurrency limit
    #: (critical path of the parallel fetch schedule).
    market_time_critical_path_ms: float = 0.0
    #: Money-safe transport accounting (see repro.market.transport).
    retries: int = 0
    faults_injected: int = 0
    #: Responses served from the market's idempotency cache for free.
    replays: int = 0
    #: Charges billed for calls whose data never arrived (also tracked
    #: market-wide in ``ledger.wasted_on_failures``).
    wasted_transactions: int = 0
    wasted_price: float = 0.0
    #: Regions that could not be bought (non-empty only under
    #: ``partial_results``; otherwise the query raises instead).
    failed_fetches: tuple[FailedFetch, ...] = ()
    #: Singleflight coalescing under concurrent serving (see
    #: :mod:`repro.serve`): fetches answered by joining another session's
    #: in-flight call, the bill those avoided, and remainder boxes found
    #: already covered at issue time.  All zero outside a scheduler.
    coalesced_fetches: int = 0
    coalesced_savings_transactions: int = 0
    coalesced_savings_price: float = 0.0
    covered_skips: int = 0
    #: Adaptive re-optimization (``QueryOptions(adaptive=...)``): mid-query
    #: re-plans attempted, and the planner's estimate of the dollars the
    #: adopted suffix plans saved versus staying the course.  Zero when
    #: adaptive mode is off (the default) or never tripped.
    replans: int = 0
    replan_dollars_saved_est: float = 0.0
    #: Which fetch driver executed the market calls ("threaded" — the
    #: default, byte-identical to historical behaviour — or "async", the
    #: pipelined event-loop driver of :mod:`repro.market.aio`) and how
    #: many table accesses were answered by a cross-access prefetch
    #: scheduled at query start (async only; 0 under "threaded").
    transport_mode: str = "threaded"
    prefetch_hits: int = 0
    #: Snapshot of the installation's metrics registry taken right after
    #: this query (see :mod:`repro.obs.metrics` for the names).
    metrics: dict = field(default_factory=dict)

    @property
    def fetched_records(self) -> int:
        return self.records

    @property
    def failed_calls(self) -> int:
        return len(self.failed_fetches)

    @property
    def complete(self) -> bool:
        """Whether every region the plan needed was actually bought."""
        return not self.failed_fetches


@dataclass
class QueryResult:
    """What a user query returns: rows, the chosen plan, and its stats.

    The per-query statistics live in ``result.stats`` (a
    :class:`QueryStats`).
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

    def __init__(
        self,
        market: DataMarket,
        local_db: Database | None = None,
        consistency: ConsistencyPolicy | None = None,
        options: QueryOptions | None = None,
        statistic: str = "isomer",
        tracing: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        if options is None:
            options = QueryOptions()
        elif not isinstance(options, QueryOptions):
            raise PlanningError(
                f"options must be a QueryOptions, got {options!r}"
            )
        self.market = market
        #: The one documented configuration surface (see
        #: :class:`~repro.core.objectives.QueryOptions`).
        self.query_options = options
        #: The planner's derived view of the configuration.  Public
        #: because existing call sites read ``payless.options.use_sqr``
        #: and friends; prefer ``payless.query_options`` going forward.
        self.options = self.query_options.optimizer_options()
        #: The money-safe transport configuration (retries, backoff,
        #: circuit breakers, fault injection, partial results).
        self.transport_config = (
            self.query_options.transport_config() or TransportConfig()
        )
        #: Observability: structured tracing (off by default — near-zero
        #: overhead; flip ``payless.tracer.enabled`` or use
        #: :meth:`explain_analyze` for one query) and the metrics registry
        #: (the process-wide default unless a private one is handed in).
        self.tracer = Tracer(enabled=tracing)
        self.metrics = metrics if metrics is not None else REGISTRY
        #: Which local-evaluation engine answers queries once the data is
        #: staged: "vectorized" (columnar batches + compiled kernels, the
        #: default) or "reference" (the row-at-a-time differential oracle).
        self.execution = (
            ExecutionConfig(engine=self.query_options.engine)
            if self.query_options.engine
            else DEFAULT_EXECUTION
        )
        #: Which updatable statistic drives estimation ("isomer",
        #: "independence", or "uniform"; see repro.stats.interface).
        self.statistic = statistic
        self.local_db = local_db or Database()
        self.store = SemanticStore(consistency)
        self.catalog = Catalog()
        self.rewriter = SemanticRewriter(
            self.store,
            self.catalog,
            enabled=self.options.use_sqr,
            prune=self.query_options.prune_bounding_boxes,
        )
        self.context = PlanningContext(
            market=self.market,
            catalog=self.catalog,
            store=self.store,
            rewriter=self.rewriter,
            local_db=self.local_db,
            max_concurrent_calls=self.query_options.max_concurrent_calls,
            transport=self.transport_config,
            tracer=self.tracer,
            metrics=self.metrics,
            execution=self.execution,
            transport_mode=self.query_options.transport_mode,
            async_pool_size=self.query_options.async_pool_size,
            prefetch=self.query_options.prefetch,
        )
        for table in self.local_db:
            self.context.register_local(table)
        #: The epoch-keyed parameterized plan cache: repeat templates skip
        #: parse + analyze + planning entirely (see repro.core.plancache).
        self.plan_cache = PlanCache(
            self.store,
            capacity=self.options.plan_cache_size,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        self.total_transactions = 0
        self.total_price = 0.0
        self.total_calls = 0
        self.queries_executed = 0
        #: The failure/savings side of the money picture (tracked here so
        #: durable restarts resume the full split, not just the spent
        #: series).
        self.total_wasted_transactions = 0
        self.total_wasted_price = 0.0
        self.total_coalesced_fetches = 0
        self.total_coalesced_transactions = 0
        self.total_coalesced_price = 0.0
        #: Per-query history (most recent last); see :class:`QueryLogEntry`.
        self.history: list[QueryLogEntry] = []
        #: Guards the running totals and the history list: under the
        #: concurrent serving front-end (:mod:`repro.serve`) many worker
        #: threads finish queries against this one installation.
        self._accounting_lock = threading.Lock()
        #: Durable WAL backend (``None`` = in-memory only); see
        #: :mod:`repro.durable`.  Built here so every layer — executor,
        #: transport, store clock — shares the one instance.
        self.durability = None
        durability_config = self.query_options.durability_config()
        if durability_config is not None:
            from repro.durable.backend import DurableStateBackend

            self.durability = DurableStateBackend(durability_config)
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
    def without_sqr(
        cls,
        market: DataMarket,
        options: QueryOptions | None = None,
        **kwargs: Any,
    ) -> "PayLess":
        """The "PayLess w/o SQR" arm of Figure 10."""
        options = replace(options or QueryOptions(), use_sqr=False)
        return cls(market, options=options, **kwargs)

    @classmethod
    def minimizing_calls(
        cls,
        market: DataMarket,
        options: QueryOptions | None = None,
        **kwargs: Any,
    ) -> "PayLess":
        """The Minimizing-Calls competitor of Figure 10."""
        options = replace(
            options or QueryOptions(), use_sqr=False, cost_metric="calls"
        )
        return cls(market, options=options, **kwargs)

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

    def _options_for(self, objective: PlanObjective) -> OptimizerOptions:
        if objective == self.options.plan_objective:
            return self.options
        return replace(self.options, plan_objective=objective)

    def _planner_fingerprint(self, objective: PlanObjective) -> tuple:
        """Everything besides the query itself that can change planning.

        Part of every plan-cache key: two installations (or one whose
        configuration changed) must never serve each other's plans — and
        two objectives over the same template must never share a cached
        plan, hence ``objective.fingerprint()`` below.
        """
        options = self.options
        transport = self.transport_config
        return (
            options.use_sqr,
            options.use_theorems,
            options.objective,
            options.max_bind_attrs,
            objective.fingerprint(),
            self.execution.engine,
            self.rewriter.prune,
            self.statistic,
            transport.partial_results,
            transport.max_retries,
            transport.idempotency,
            transport.faults is not None,
            # Adaptive runs never cache their mid-flight suffix plans, but
            # the *static* plan an adaptive installation starts from is
            # keyed apart anyway so cache hygiene is provable per policy.
            (
                self.query_options.adaptive.fingerprint()
                if self.query_options.adaptive is not None
                else None
            ),
        )

    def _plan_statement(
        self,
        statement: SelectStatement,
        params: Sequence[Any],
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> tuple[PlanningResult, LogicalQuery]:
        """Plan a parsed template through the cache, without executing."""
        resolved = self._resolve_objective(objective)
        key = self.plan_cache.statement_key(
            statement, params, self._planner_fingerprint(resolved)
        )
        entry = self.plan_cache.lookup(key)
        if entry is not None:
            return replace(entry.planning, cache_status="hit"), entry.logical
        logical = analyze(statement, self.context, params)
        planning = Optimizer(
            self.context, self._options_for(resolved)
        ).optimize(logical)
        planning.cache_status = "miss" if self.plan_cache.enabled else "off"
        self.plan_cache.insert(key, logical, planning)
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
        ``cost``, ``evaluated_plans``, ...), so existing callers keep
        working unchanged.  Planning goes through the plan cache: a repeat
        EXPLAIN (or a later identical query) reuses the cached plan as
        long as the store epochs it was stamped with still hold.

        ``objective`` overrides the installation default for this one
        call (see :meth:`_resolve_objective` for the accepted forms).
        """
        statement = self.plan_cache.parse_sql(sql)
        planning, __ = self._plan_statement(statement, params, objective)
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
        previous = tracer.enabled
        tracer.enabled = True
        try:
            tracer.begin_query(sql)
            try:
                with tracer.span("parse"):
                    statement = self.plan_cache.parse_sql(sql)
            except BaseException:
                tracer.end_query()
                raise
            result, planning = self._execute_statement(
                statement, params, objective
            )
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
    ) -> QueryResult:
        """Optimize and execute ``sql``, paying as little as possible.

        ``objective`` overrides the installation default for this one
        call: a :class:`PlanObjective`, a :class:`ServiceTier`, a tier
        name, or an objective spec string.
        """
        tracer = self.tracer
        if not tracer.enabled:
            statement = self.plan_cache.parse_sql(sql)
            result, __ = self._execute_statement(statement, params, objective)
            return result
        tracer.begin_query(sql)
        try:
            with tracer.span("parse"):
                statement = self.plan_cache.parse_sql(sql)
        except BaseException:
            tracer.end_query()
            raise
        result, __ = self._execute_statement(statement, params, objective)
        return result

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
        result, __ = self._execute_statement(statement, params, objective)
        return result

    def _execute_statement(
        self,
        statement: SelectStatement,
        params: Sequence[Any],
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> tuple[QueryResult, PlanningResult]:
        tracer = self.tracer
        resolved = self._resolve_objective(objective)
        # Open the trace before the cache lookup so its hit/miss event
        # lands inside this query's span tree (the PreparedQuery path —
        # query()/explain_analyze() already opened it around parsing).
        if tracer.enabled and tracer.active is None:
            tracer.begin_query(
                ", ".join(ref.name for ref in statement.tables)
            )
        try:
            key = self.plan_cache.statement_key(
                statement, params, self._planner_fingerprint(resolved)
            )
            entry = self.plan_cache.lookup(key)
            if entry is not None:
                return self._execute(
                    entry.logical,
                    planning=replace(entry.planning, cache_status="hit"),
                    objective=resolved,
                )
            logical = analyze(statement, self.context, params)
        except BaseException:
            # _execute() closes the trace on its own failures; anything
            # raised before it (analysis errors) must close it here.
            if tracer.enabled and tracer.active is not None:
                tracer.end_query()
            raise
        return self._execute(logical, cache_key=key, objective=resolved)

    def execute_logical(
        self,
        logical: LogicalQuery,
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> QueryResult:
        """Run an already-compiled query (the benchmark harness fast path)."""
        result, __ = self._execute(logical, objective=objective)
        return result

    def _execute(
        self,
        logical: LogicalQuery,
        planning: PlanningResult | None = None,
        cache_key: Any = _UNSET,
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> tuple[QueryResult, PlanningResult]:
        tracer = self.tracer
        tracing = tracer.enabled
        resolved = self._resolve_objective(objective)
        # query()/explain_analyze() open the trace around parsing; a
        # directly-executed logical query opens it here instead.
        if tracing and tracer.active is None:
            tracer.begin_query(", ".join(logical.tables))
        try:
            if planning is None and cache_key is _UNSET:
                # execute_logical() path: key on the logical query itself.
                cache_key = self.plan_cache.logical_key(
                    logical, self._planner_fingerprint(resolved)
                )
                entry = self.plan_cache.lookup(cache_key)
                if entry is not None:
                    planning = replace(entry.planning, cache_status="hit")
            if planning is None:
                planning = Optimizer(
                    self.context, self._options_for(resolved)
                ).optimize(logical)
                planning.cache_status = (
                    "miss" if self.plan_cache.enabled else "off"
                )
                self.plan_cache.insert(cache_key, logical, planning)
            executor = Executor(
                self.context,
                adaptive=self.query_options.adaptive,
                optimizer_options=self._options_for(resolved),
            )
            try:
                execution = executor.execute(logical, planning.plan)
            finally:
                executor.close()
        except BaseException:
            if tracing:
                tracer.end_query()
            raise
        from repro.core.plans import JoinNode

        def _has_bind(node) -> bool:
            if isinstance(node, JoinNode):
                return node.bind or _has_bind(node.left) or _has_bind(node.right)
            return False

        with self._accounting_lock:
            self.total_transactions += execution.transactions
            self.total_price += execution.price
            self.total_calls += execution.calls
            self.queries_executed += 1
            self.total_wasted_transactions += execution.wasted_transactions
            self.total_wasted_price += execution.wasted_price
            self.total_coalesced_fetches += execution.coalesced_fetches
            self.total_coalesced_transactions += (
                execution.coalesced_savings_transactions
            )
            self.total_coalesced_price += execution.coalesced_savings_price
            self.history.append(
                QueryLogEntry(
                    sequence=self.queries_executed,
                    sql_tables=tuple(logical.tables),
                    transactions=execution.transactions,
                    calls=execution.calls,
                    evaluated_plans=planning.evaluated_plans,
                    used_bind_join=_has_bind(planning.plan),
                )
            )
        durability = self.durability
        if durability is not None:
            # Journal the query's totals delta (group-committing it), then
            # compact if the WAL grew past the threshold — here at the
            # query boundary, where no table lock is held.
            durability.log_query(execution)
            durability.maybe_compact()
        trace = tracer.end_query() if tracing else None
        metrics = self.metrics
        metrics.counter("queries").inc()
        metrics.counter("transactions_spent").inc(execution.transactions)
        metrics.counter("cents_spent").inc(execution.price * 100.0)
        if execution.wasted_price:
            metrics.counter("cents_wasted").inc(
                execution.wasted_price * 100.0
            )
        metrics.histogram("query_transactions").observe(
            execution.transactions
        )
        result = QueryResult(
            relation=execution.relation,
            plan=planning.plan,
            trace=trace,
            stats=QueryStats(
                transactions=execution.transactions,
                price=execution.price,
                calls=execution.calls,
                records=execution.fetched_records,
                evaluated_plans=planning.evaluated_plans,
                enumerated_boxes=planning.enumerated_boxes,
                kept_boxes=planning.kept_boxes,
                market_time_ms=execution.market_time_ms,
                market_time_critical_path_ms=(
                    execution.market_time_critical_path_ms
                ),
                retries=execution.retries,
                faults_injected=execution.faults_injected,
                replays=execution.replays,
                wasted_transactions=execution.wasted_transactions,
                wasted_price=execution.wasted_price,
                failed_fetches=execution.failed_fetches,
                coalesced_fetches=execution.coalesced_fetches,
                coalesced_savings_transactions=(
                    execution.coalesced_savings_transactions
                ),
                coalesced_savings_price=execution.coalesced_savings_price,
                covered_skips=execution.covered_skips,
                replans=execution.replans,
                replan_dollars_saved_est=execution.replan_dollars_saved_est,
                transport_mode=execution.transport_mode,
                prefetch_hits=execution.prefetch_hits,
                metrics=metrics.snapshot(),
            ),
        )
        return result, planning

    def query_batch(
        self, batch: Sequence[tuple[str, Sequence[Any]]]
    ) -> "BatchResult":
        """Multi-query optimization: execute a batch in a cost-aware order.

        The paper's conclusion sketches this as future work; see
        :mod:`repro.core.batch` for the ordering heuristic.  Results come
        back in submission order.
        """
        from repro.core.batch import execute_batch

        return execute_batch(self, batch)

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
        and stop the async transport's event loop when one is attached.

        Safe to call repeatedly and without a durability config.
        """
        if self.durability is not None:
            self.durability.close()
        async_transport = getattr(self.context, "async_transport", None)
        if async_transport is not None:
            async_transport.close()

    def __enter__(self) -> "PayLess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the Download-All comparison ------------------------------------------------

    def download_all_strategy(self) -> DownloadAllStrategy:
        """A Download-All baseline sharing this instance's registrations."""
        return DownloadAllStrategy(self.context)

    # -- reporting -------------------------------------------------------------------

    def bill(self) -> str:
        return (
            f"{self.queries_executed} queries, {self.total_calls} calls, "
            f"{self.total_transactions} transactions, ${self.total_price:g}"
        )
