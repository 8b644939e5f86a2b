"""Plan execution: buy the missing data, then answer locally.

The executor walks the plan tree left-to-right and, for every market leaf,
re-runs semantic rewriting against the *current* store state (binding
values are known by now), issues the remainder REST calls, records results
into the semantic store, and feeds exact region counts back into the
statistics (Figure 3, steps 5.1-5.4).  The walk joins nothing for its own
sake: the only thing it needs from a join is the values a bind join binds
on (§4.1), so a subtree's intermediate is computed only when something
above reads it — a bind join reads its left side's keys, an adaptive
checkpoint reads its prefix's cardinality, the plan root reads nothing —
and then over the join-key columns alone (zero-copy projections of the
fetched relations).  The final answer is produced the way the paper's
architecture does it — all required rows are staged into the local DBMS
and the whole query is evaluated there, once (steps 6-8).  Every staged
market row passed its table's constraints and residuals at the access
that staged it, so that evaluation selects on local tables only.

Remainder REST calls within one table access are independent (their boxes
are disjoint and the market is read-only), so they may overlap.  Each
call is one sans-IO generator (:meth:`Executor._call_machine`) that holds
the whole per-call protocol — under concurrent serving, the singleflight
leader/follower sharing whose money invariant is that no waiter is ever
served rows the market did not bill — and a driver only answers its
``fetch`` / ``wait`` effects.  The market's latency model picks the
driver, once per query: when calls really wait
(``LatencyModel.realtime_scale > 0``) they are coroutines pipelined on the
event loop of :mod:`repro.market.aio`, and a static plan's certain
accesses are prefetched at query start; when nothing can wait, each call
is driven inline, in request order, on the calling thread.  Responses are
recorded into the store and statistics serially in remainder order, which
keeps every downstream state — coverage, histograms, billing totals —
identical whichever driver ran; only wall-clock changes, reported both
ways as ``market_time_ms`` (serial sum) and
``market_time_critical_path_ms`` (simulated makespan of each access's
calls over the seller pool's ``DEFAULT_POOL_SIZE`` lanes).

What the calls cost is one fold, :meth:`CallAccount.of`, over their
outcomes — each carries its own call's bill, faults, replays and
retries: a ``market_call`` span is the fold of one outcome, a
``table_fetch`` span of its access's, :class:`QueryStats` of the query's.

All calls go through the money-safe transport
(:mod:`repro.market.transport`): transient faults are retried with
backoff under at-most-once billing.  When a call still fails, the
executor degrades gracefully — the semantic store records **only** the
boxes whose fetches completed (a failed fetch can never poison the
coverage index into skipping a future purchase), and the query either
raises :class:`~repro.errors.MarketUnavailableError` or, under the
transport's ``partial_results`` mode, returns the rows that did arrive
with the failed regions reported on the result.
"""

from __future__ import annotations

import asyncio
import heapq
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.context import PlanningContext
from repro.core.objectives import PlanObjective
from repro.core.optimizer import Optimizer
from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    MarketAccessNode,
    MaterializedNode,
    PlanNode,
)
from repro.errors import (
    ExecutionError,
    MarketUnavailableError,
    TransportError,
)
from repro.market.aio import DEFAULT_POOL_SIZE
from repro.market.rest import RestRequest
from repro.market.transport import FetchResult
from repro.relational.database import Database
from repro.relational.engine import DEFAULT_EXECUTION, evaluate
from repro.relational.expressions import Comparison, ColumnRef, RowLayout, conjunction
from repro.relational.relation import Relation
from repro.relational.query import AttributeConstraint, LogicalQuery, OutputColumn
from repro.relational.table import Table
from repro.stats.overlay import CardinalityOverlay


@dataclass(frozen=True)
class FailedFetch:
    """One remainder region the transport could not buy."""

    table: str
    request: RestRequest
    error: TransportError

    def __repr__(self) -> str:
        return f"FailedFetch({self.request.url()}: {self.error})"


@dataclass(frozen=True)
class CoveredSkip:
    """A remainder box found already covered at issue time.

    Only possible under concurrent serving: another session recorded the
    box between this query's rewrite and its fetch.  Nothing is billed
    and nothing needs recording — the rows are read from the store like
    any other cache hit.
    """

    request: RestRequest

    def __repr__(self) -> str:
        return f"CoveredSkip({self.request.url()})"


@dataclass
class CallAccount:
    """What a sequence of remainder calls cost and went through.

    The one fold over call outcomes (:class:`FetchResult`,
    :class:`FailedFetch`, :class:`CoveredSkip`).  A name it shares with
    :class:`QueryStats` means the same there, so a span set from
    :meth:`attrs` and the query's stats agree by construction.
    """

    #: Billed REST calls (ledger entries) and the records they returned.
    calls: int = 0
    records: int = 0
    #: Everything billed, and the part of it wasted on calls whose data
    #: never arrived; what was *spent* is the difference.
    billed_transactions: int = 0
    billed_price: float = 0.0
    wasted_transactions: int = 0
    wasted_price: float = 0.0
    retries: int = 0
    faults_injected: int = 0
    replays: int = 0
    failed_calls: int = 0
    coalesced_fetches: int = 0
    coalesced_savings_transactions: int = 0
    coalesced_savings_price: float = 0.0
    covered_skips: int = 0

    @classmethod
    def of(cls, outcomes) -> "CallAccount":
        account = cls()
        for outcome in outcomes:
            if isinstance(outcome, CoveredSkip):
                account.covered_skips += 1
                continue
            if isinstance(outcome, FailedFetch):
                bill = outcome.error
                account.failed_calls += 1
                account.wasted_transactions += bill.wasted_transactions
                account.wasted_price += bill.wasted_price
            else:
                bill = outcome
                if outcome.coalesced:
                    account.coalesced_fetches += 1
                    account.coalesced_savings_transactions += (
                        outcome.saved_transactions
                    )
                    account.coalesced_savings_price += outcome.saved_price
            account.calls += bill.billed_calls
            account.records += bill.billed_records
            account.billed_transactions += bill.billed_transactions
            account.billed_price += bill.billed_price
            account.retries += bill.retries
            account.faults_injected += bill.faults
            account.replays += bill.replays
        return account

    @property
    def transactions(self) -> int:
        """Transactions spent: billed minus wasted."""
        return self.billed_transactions - self.wasted_transactions

    @property
    def price(self) -> float:
        return self.billed_price - self.wasted_price

    def attrs(self) -> dict:
        """The account as span attributes, spent money included."""
        return {
            **vars(self),
            "transactions": self.transactions,
            "price": self.price,
        }


@dataclass
class _PrefetchEntry:
    """One upcoming table access whose remainder calls are already in
    flight on the event loop (only on a market whose calls wait).

    Created at query start from the chosen plan's non-bind market
    accesses; consumed by :meth:`Executor._fetch_market` when the
    plan walk reaches the table.  If the query fails before consuming the
    entry, the drain path still waits for the calls and records every
    *paid* box into the store — billed money must always buy durable
    coverage, never be silently dropped.
    """

    table: str
    rewrite: object
    future: object


@dataclass
class _CallBatch:
    """What the call machines of one table access share.

    Both drivers run an access's machines on one thread (the caller's, or
    the event loop's), so nothing here needs a lock.
    """

    table: str
    #: The installation's singleflight group and the table's store it
    #: re-checks coverage in; both None outside concurrent serving.
    coalescer: object
    table_store: object
    tracing: bool
    #: Singleflights this access led, retired once their rows are recorded.
    lead_flights: list = field(default_factory=list)


@dataclass
class QueryStats:
    """Everything one query cost and went through, in one structure.

    Read it as ``result.stats``.  :meth:`Executor.execute` creates it
    with the account of the execution (its calls' :class:`CallAccount`),
    the facade adds the planner's three counts to the same object, and
    every other account (running totals, the WAL, sessions) reads it from
    there.
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
    #: Simulated wall-clock with each access's calls overlapped on the
    #: seller pool's ``DEFAULT_POOL_SIZE`` lanes, whichever driver ran
    #: them; equals ``market_time_ms`` when every access makes one call.
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
    #: Table accesses answered by a cross-access prefetch scheduled at
    #: query start (only on a market whose calls wait, without a policy).
    prefetch_hits: int = 0

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


def _makespan(durations_ms: Sequence[float], workers: int) -> float:
    """List-scheduling makespan of ``durations_ms`` over ``workers`` lanes.

    In-order greedy assignment, as a pool hands out its connections; with
    one lane it degenerates to the serial sum.
    """
    if not durations_ms:
        return 0.0
    lanes = min(workers, len(durations_ms))
    if lanes <= 1:
        return float(sum(durations_ms))
    heap = [0.0] * lanes
    for duration in durations_ms:
        heapq.heapreplace(heap, heap[0] + duration)
    return max(heap)


class _Fetched:
    """Join components materialized during fetching, join-key columns only.

    A component is a fetched relation projected to the columns the query's
    joins name for its table — possibly none, in which case it still
    carries its row count — or the hash join of such components.
    Cartesian (Theorem 3) combinations are kept as separate components —
    their cross product is never materialized; binding values are read from
    the component that owns the attribute (empty sibling components zero
    out the bindings, since a cross product with an empty side is empty).
    """

    def __init__(self, components: list[Relation], ops=None):
        self.components = components
        self.ops = ops if ops is not None else DEFAULT_EXECUTION.ops

    @property
    def any_empty(self) -> bool:
        return any(len(component) == 0 for component in self.components)

    def distinct_values(self, ref: ColumnRef) -> set:
        if self.any_empty:
            return set()
        for component in self.components:
            if component.layout.has(ref.table, ref.column):
                return component.distinct_values(ref.table, ref.column)
        raise ExecutionError(f"no fetched component holds {ref!r}")

    def _component_of(self, ref: ColumnRef) -> int:
        for index, component in enumerate(self.components):
            if component.layout.has(ref.table, ref.column):
                return index
        raise ExecutionError(f"no fetched component holds {ref!r}")

    def joined_with(self, other: "_Fetched", predicates: tuple) -> "_Fetched":
        """Both sides' components, merged where ``predicates`` connect them."""
        combined = _Fetched(self.components + other.components, self.ops)
        return combined.apply_joins(predicates) if predicates else combined

    def apply_joins(self, predicates: tuple) -> "_Fetched":
        """Apply equi-join predicates, merging components as needed.

        Predicates whose two sides live in different components hash-join
        those components into one; predicates internal to one component
        become a filter.  Components never referenced stay separate (they
        are Cartesian siblings — their product is never materialized).
        """
        components = list(self.components)
        for predicate in predicates:
            left_table, right_table = predicate.tables()
            left_ref = predicate.side_for(left_table)
            right_ref = predicate.side_for(right_table)
            fetched = _Fetched(components, self.ops)
            left_index = fetched._component_of(left_ref)
            right_index = fetched._component_of(right_ref)
            if left_index == right_index:
                components[left_index] = self.ops.filter_rows(
                    components[left_index],
                    Comparison("=", left_ref, right_ref),
                )
                continue
            joined = self.ops.hash_join(
                components[left_index],
                components[right_index],
                [(left_ref, right_ref)],
            )
            keep = [
                component
                for index, component in enumerate(components)
                if index not in (left_index, right_index)
            ]
            components = [joined] + keep
        return _Fetched(components, self.ops)


class Executor:
    """Executes one optimized plan for one logical query.

    Every knob is read off ``context.options``; ``objective`` is the one
    per-call value — what a mid-query re-plan of the suffix must keep
    optimizing for (``None`` = the installation's own).
    """

    def __init__(
        self, context: PlanningContext, objective: PlanObjective | None = None
    ):
        self.context = context
        self.execution = context.execution
        self._ops = self.execution.ops
        #: Mid-query re-optimization policy (None = no checkpoints).
        self.adaptive = context.options.adaptive
        self.objective = objective
        self._prefetched: dict[str, _PrefetchEntry] = {}

    def execute(
        self, query: LogicalQuery, plan: PlanNode
    ) -> tuple[Relation, QueryStats]:
        """Buy what ``plan`` needs, answer ``query`` locally, and account
        for it: the answer and what it cost."""
        self._query = query
        #: Per table, the columns the query's joins name: all the plan walk
        #: ever reads of a fetched relation.
        self._join_columns: dict[str, list[ColumnRef]] = {}
        for join in query.joins:
            for ref in (join.left, join.right):
                columns = self._join_columns.setdefault(ref.table.lower(), [])
                if ref not in columns:
                    columns.append(ref)
        #: The query as the engine sees it over staged data: a market
        #: table's rows were selected by the access that staged them
        #: (:meth:`_fetch_market`), so only local tables keep their
        #: constraints and residuals.
        is_market = self.context.is_market
        self._over_staged = replace(
            query,
            constraints={
                t: cs for t, cs in query.constraints.items() if not is_market(t)
            },
            residuals={
                t: rs for t, rs in query.residuals.items() if not is_market(t)
            },
        )
        #: Per market table, the distinct rows this query's accesses
        #: returned, kept columnar (see :meth:`_stage`).
        self._staged: dict[str, Relation] = {}
        self._critical_path_ms = 0.0
        self._serial_ms = 0.0
        self._scope = self.context.transport.new_scope()
        #: The outcomes of every call the executed accesses made: the
        #: query's account is their fold.
        self._outcomes: list = []
        self._replans = 0
        self._replan_saved = 0.0
        self._prefetch_hits = 0
        self._prefetched = {}
        #: The fetch driver, chosen by the market's latency model as the
        #: query starts: calls that really wait are pipelined on the event
        #: loop (:mod:`repro.market.aio`); calls that cannot wait are
        #: driven inline (``None``), with no thread and no loop hop.
        self._aio = (
            self.context.async_transport
            if self.context.market.latency.realtime_scale > 0
            else None
        )
        try:
            # Prefetch only what is worth overlapping, and only for a
            # *static* plan: an adaptive executor may re-plan the suffix,
            # and prefetch must never buy for a plan that might be
            # abandoned (wasted dollars must stay provably zero).
            if self._aio is not None and self.adaptive is None:
                self._schedule_prefetch(plan)
            # Nothing reads the root's intermediate: the engine evaluates
            # the query over the staged tables below.
            self._fetch(plan, read=False)
        finally:
            # Any prefetched access the plan walk did not consume (an
            # earlier access failed the query) is drained here: wait for
            # the in-flight calls and record every paid box into the
            # store, so billed money always buys coverage.  A normally
            # completed static plan consumes every entry — this is then a
            # no-op, which is what keeps prefetch_wasted_dollars at zero.
            self._drain_prefetch()

        staging = self._build_staging(query)
        tracer = self.context.tracer
        with tracer.span("local_eval") as eval_span:
            relation = evaluate(staging, self._over_staged, self.execution)
            if eval_span is not None:
                eval_ms = tracer.clock() - eval_span.start_ms
                input_rows = sum(
                    len(staging.table(name)) for name in query.tables
                )
                eval_span.set(
                    engine=self.execution.engine,
                    input_rows=input_rows,
                    output_rows=len(relation.rows),
                    eval_ms=eval_ms,
                    rows_per_sec=(
                        input_rows / (eval_ms / 1000.0)
                        if eval_ms > 0.0
                        else 0.0
                    ),
                )

        outcomes = self._outcomes
        account = CallAccount.of(outcomes)
        return relation, QueryStats(
            transactions=account.transactions,
            price=account.price,
            calls=account.calls,
            records=account.records,
            market_time_ms=self._serial_ms,
            market_time_critical_path_ms=self._critical_path_ms,
            retries=account.retries,
            faults_injected=account.faults_injected,
            replays=account.replays,
            wasted_transactions=account.wasted_transactions,
            wasted_price=account.wasted_price,
            # A failed call reaches this point only under partial results;
            # otherwise its access raised.
            failed_fetches=tuple(
                o for o in outcomes if isinstance(o, FailedFetch)
            ),
            coalesced_fetches=account.coalesced_fetches,
            coalesced_savings_transactions=(
                account.coalesced_savings_transactions
            ),
            coalesced_savings_price=account.coalesced_savings_price,
            covered_skips=account.covered_skips,
            replans=self._replans,
            replan_dollars_saved_est=self._replan_saved,
            prefetch_hits=self._prefetch_hits,
        )

    # ------------------------------------------------------------------ fetching

    def _fetch(self, node: PlanNode, read: bool) -> _Fetched | None:
        """Buy and stage everything under ``node``; when ``read``, also
        return the subtree's joined key columns.

        ``read`` says something above reads the intermediate.  Purchases
        do not depend on it: a bind join always reads its left side,
        whoever reads the join itself.

        A left-deep chain is walked as one loop over its join steps.  The
        prefix a step extends is joined only where something reads it — a
        later bind join its key values, the caller, or (under an
        :class:`AdaptivePolicy`) the checkpoint before every step, which
        compares the prefix's actual cardinality against the plan's
        estimate and re-plans the remaining steps when the policy trips.
        A policy that never trips makes exactly the accesses of no policy
        — same order, same store and histogram feedback.
        """
        if isinstance(node, LocalBlockNode):
            return self._fetch_block(node, read)
        if isinstance(node, MarketAccessNode):
            relation = self._fetch_market(node.table, ())
            return self._key_columns(node.table, relation) if read else None
        if not isinstance(node, JoinNode):
            raise ExecutionError(f"unknown plan node {type(node).__name__}")
        if not isinstance(node.right, MarketAccessNode):
            # Theorem-3 composition: the sides are join-disconnected, so
            # each is walked (and adapts) on its own; the composition
            # buys nothing.
            left = self._fetch(node.left, read)
            right = self._fetch(node.right, read)
            return left.joined_with(right, node.predicates) if read else None
        leaf, steps = self._linearize(node)
        policy = self.adaptive

        def prefix_read() -> bool:
            """Whether anything reads the prefix the steps left extend."""
            return (
                read
                or (policy is not None and bool(steps))
                or any(step.bind for step in steps)
            )

        current = self._fetch(leaf, prefix_read())
        executed = set(leaf.relations)
        estimate = max(leaf.estimated_rows, 0.0)
        while steps:
            if policy is not None and self._replans < policy.max_replans:
                actual = self._actual_rows(current)
                if policy.diverged(estimate, actual):
                    new_steps = self._replan(
                        current, executed, actual, tuple(steps)
                    )
                    if new_steps is not None:
                        steps = new_steps
                        # The re-planned suffix was costed against the
                        # actual prefix cardinality: the estimate is now
                        # the truth, so the very next check cannot
                        # re-trip on it.
                        estimate = actual
                        if not steps:
                            break
            step = steps.pop(0)
            access = step.right
            if step.bind:
                relation = self._fetch_bound(access, step.predicates, current)
            else:
                relation = self._fetch_market(access.table, ())
            current = (
                current.joined_with(
                    self._key_columns(access.table, relation), step.predicates
                )
                if prefix_read()
                else None
            )
            executed |= set(access.relations)
            estimate = max(step.estimated_rows, 0.0)
        return current

    def _key_columns(self, table: str, relation: Relation) -> _Fetched:
        """One fetched relation as a walk component (zero-copy)."""
        refs = self._join_columns.get(table.lower(), ())
        return _Fetched([self._ops.project(relation, refs)], self._ops)

    # ----------------------------------------------- cross-access prefetch

    def _prefetchable_tables(self, node: PlanNode, tables: list[str]) -> None:
        """Collect, in execution order, the plan's *certain* market buys.

        Mirrors :meth:`_fetch`'s walk exactly: a non-bind
        :class:`MarketAccessNode` will be fetched with the query's static
        constraints no matter what earlier accesses return, so buying it
        early can never waste a dollar.  Bind-join right sides depend on
        runtime binding values, and LocalBlock market tables are covered
        reads — neither is prefetchable.
        """
        if isinstance(node, MarketAccessNode):
            tables.append(node.table)
            return
        if isinstance(node, JoinNode):
            self._prefetchable_tables(node.left, tables)
            if not (node.bind and isinstance(node.right, MarketAccessNode)):
                self._prefetchable_tables(node.right, tables)

    def _schedule_prefetch(self, plan: PlanNode) -> None:
        """Rewrite every certain upcoming access *now* and put its
        remainder calls in flight on the event loop, so market latency
        overlaps earlier accesses and local join evaluation instead of
        serializing behind them."""
        tables: list[str] = []
        self._prefetchable_tables(plan, tables)
        for table in tables:
            key = table.lower()
            if key in self._prefetched:
                # The same table twice in one plan (a Theorem-3 shape):
                # only the first access is prefetched; the second re-
                # rewrites against the then-current store like any other.
                continue
            rewrite = self._rewrite_access(
                table, list(self._query.constraints_for(table))
            )
            self._prefetched[key] = _PrefetchEntry(
                table=table,
                rewrite=rewrite,
                future=self._submit_async_calls(
                    self.context.dataset_of(table), table, rewrite.remainder
                ),
            )

    def _rewrite_access(self, table: str, constraints: list):
        """Decide what one table access buys.

        Rewrites under the table lock: the rewrite decides what money to
        spend, so it must reflect the store *now*, and under concurrent
        serving other sessions record into this table at any moment.
        Holding the lock pins the epoch across rewrite + check, so the
        staleness guard can only trip if a stale-caching bug is
        reintroduced somewhere upstream (the rewriter memo keys on the
        epoch).
        """
        table_store = self.context.store.table(table)
        with table_store.lock:
            rewrite = self.context.rewriter.rewrite(
                table, constraints, self.context.pricing(table)
            )
            if rewrite.store_epoch != table_store.epoch:
                raise ExecutionError(
                    f"stale rewrite for {table!r}: computed at store "
                    f"epoch {rewrite.store_epoch}, executing at "
                    f"{table_store.epoch}"
                )
        return rewrite

    def _drain_prefetch(self) -> None:
        """Settle prefetch entries the plan walk never consumed.

        Never cancels after billing: every completed purchase is recorded
        into the store (and the durability log) under the table lock, and
        every led singleflight is released so no waiter hangs on a query
        that died.  The dollars spent on unconsumed entries are added to
        ``context.prefetch_wasted_price`` — zero for every successfully
        completed query, which the test suite asserts.
        """
        if not self._prefetched:
            return
        entries = list(self._prefetched.values())
        self._prefetched = {}
        for entry in entries:
            try:
                results, lead_flights = entry.future.result()
            except BaseException:
                # The batch died before producing outcomes (a market
                # rejection or simulated crash escaped a coroutine);
                # nothing completed that we could record.
                continue
            outcomes = [outcome for outcome, _ in results]
            with self.context.store.table(entry.table).lock:
                self._record_outcomes(
                    entry.table, entry.rewrite.remainder, outcomes, lead_flights
                )
            spent = CallAccount.of(outcomes).price
            if spent:
                self.context.add_prefetch_waste(spent)

    # --------------------------------------------- adaptive re-optimization

    @staticmethod
    def _linearize(node: PlanNode) -> tuple[PlanNode, list[JoinNode]]:
        """Split a left-deep plan into (deepest leaf, join steps in order).

        Each step is a :class:`JoinNode` whose right child is the market
        access it adds; walking stops at the first node that is not such
        a step (the Theorem-2 block, a lone market access, a
        :class:`MaterializedNode` prefix, or a Theorem-3 composition).
        """
        steps: list[JoinNode] = []
        while isinstance(node, JoinNode) and isinstance(
            node.right, MarketAccessNode
        ):
            steps.append(node)
            node = node.left
        steps.reverse()
        return node, steps

    @staticmethod
    def _actual_rows(fetched: _Fetched) -> float:
        """Exact cardinality of the materialized prefix (the Cartesian
        product size of its unreferenced sibling components)."""
        actual = 1.0
        for component in fetched.components:
            # len(relation), not len(relation.rows): the row-tuple view
            # is materialized lazily and this check runs on every step.
            actual *= len(component)
        return actual

    def _replan(
        self,
        current: _Fetched,
        executed: set[str],
        actual: float,
        old_steps: tuple[JoinNode, ...],
    ) -> list[JoinNode] | None:
        """Re-plan the not-yet-executed joins; None keeps the old plan."""
        self._replans += 1
        with self.context.tracer.span(
            "replan", tables=sorted(executed)
        ) as span:
            prefix = MaterializedNode(
                relations=frozenset(executed),
                cost=0.0,
                estimated_rows=float(actual),
                tables=tuple(sorted(executed)),
            )
            overlay = self._build_overlay(current, executed)
            # The suffix is planned like the original: same options, same
            # per-call objective.
            optimizer = Optimizer(self.context, objective=self.objective)
            suffix = optimizer.optimize_suffix(
                self._query, prefix, overlay=overlay, old_steps=old_steps
            )
            new_steps: list[JoinNode] | None = None
            saved = 0.0
            if suffix is not None:
                leaf, steps = self._linearize(suffix.plan)
                # Only a plain resumable chain over THIS prefix is
                # adoptable; anything else (e.g. a Theorem-3 shape that
                # would replay the prefix) keeps the original plan.
                if leaf is prefix:
                    saved = max(suffix.old_cost - suffix.cost, 0.0)
                    self._replan_saved += saved
                    new_steps = steps
            if span is not None:
                span.set(
                    actual_rows=actual,
                    replan_seq=self._replans,
                    adopted=new_steps is not None,
                    old_suffix_cost=(
                        suffix.old_cost if suffix is not None else None
                    ),
                    new_suffix_cost=(
                        suffix.cost if suffix is not None else None
                    ),
                    dollars_saved_est=saved,
                )
            return new_steps

    def _build_overlay(
        self, current: _Fetched, executed: set[str]
    ) -> CardinalityOverlay:
        """Layer the prefix's observed truths over the shared estimates.

        Strictly query-private (see :mod:`repro.stats.overlay`): region
        row counts come from this query's own staged rows, distinct
        counts from the materialized intermediate, and nothing touches
        the shared catalog.
        """
        overlay = CardinalityOverlay()
        for table in executed:
            if self.context.is_market(table):
                staged = self._staged.get(table.lower())
                overlay.set_region_rows(
                    table, len(staged) if staged is not None else 0
                )
        remaining = {
            t.lower() for t in self._query.tables
        } - {t.lower() for t in executed}
        for join in self._query.joins:
            left_t, right_t = (t.lower() for t in join.tables())
            if left_t in executed and right_t in remaining:
                ref = join.left
            elif right_t in executed and left_t in remaining:
                ref = join.right
            else:
                continue
            try:
                values = current.distinct_values(ref)
            except ExecutionError:
                continue
            overlay.set_distinct(ref.table, ref.column, len(values))
        return overlay

    def _fetch_block(self, node: LocalBlockNode, read: bool) -> _Fetched | None:
        """Stage the zero-price block's covered market tables; when
        ``read``, evaluate the block down to its join-key columns."""
        covered = {
            table_name: self._fetch_market(table_name, (), source="covered")
            for table_name in node.tables
            if self.context.is_market(table_name)
        }
        if not read:
            return None
        block_db = Database(
            self._as_table(table_name, covered[table_name])
            if table_name in covered
            else self.context.local_db.table(table_name)
            for table_name in node.tables
        )
        block_tables = {t.lower() for t in node.tables}
        keys = [
            ref
            for table_name in node.tables
            for ref in self._join_columns.get(table_name.lower(), ())
        ]
        sub_query = LogicalQuery(
            tables=list(node.tables),
            constraints=self._over_staged.constraints,
            residuals=self._over_staged.residuals,
            joins=[
                j
                for j in self._query.joins
                if j.tables()[0].lower() in block_tables
                and j.tables()[1].lower() in block_tables
            ],
            outputs=[OutputColumn(column=ref) for ref in keys],
        )
        relation = evaluate(block_db, sub_query, self.execution)
        if not keys:
            # No join names a block table (it is a Cartesian sibling), and
            # an empty output list reads as SELECT *: the walk wants the
            # row count alone.
            relation = self._ops.project(relation, ())
        return _Fetched([relation], self._ops)

    def _fetch_bound(
        self,
        node: MarketAccessNode,
        predicates: tuple,
        left: _Fetched,
    ) -> Relation:
        """Fetch the right side of a bind join with actual binding values."""
        extra: list[AttributeConstraint] = []
        for predicate in predicates:
            inner = predicate.side_for(node.table)
            outer = predicate.other_side(node.table)
            values = left.distinct_values(outer)
            if not values:
                # Still one (zero-width) fetch span per MarketAccessNode:
                # EXPLAIN ANALYZE and the trace invariants rely on it.
                self.context.tracer.event(
                    "table_fetch",
                    table=node.table,
                    source="bound",
                    empty_bindings=True,
                    calls=0,
                    purchased_rows=0,
                    cache_served_rows=0,
                    transactions=0,
                    price=0.0,
                )
                return self._empty_relation(node.table)
            extra.append(
                AttributeConstraint(inner.column, values=frozenset(values))
            )
        return self._fetch_market(node.table, tuple(extra), source="bound")

    def _fetch_market(
        self,
        table: str,
        extra_constraints: tuple[AttributeConstraint, ...],
        source: str = "access",
    ) -> Relation:
        """Rewrite, buy the remainder, record feedback, return region rows."""
        constraints = list(self._query.constraints_for(table)) + list(
            extra_constraints
        )
        store = self.context.store
        table_store = store.table(table)
        with self.context.tracer.span(
            "table_fetch", table=table, source=source
        ) as span:
            entry = None
            if source == "access" and not extra_constraints and self._prefetched:
                entry = self._prefetched.pop(table.lower(), None)
            if entry is not None:
                # The access was rewritten at query start and its remainder
                # calls have been in flight while earlier accesses (and
                # their joins) executed.  Everything below the issue step
                # is identical.
                rewrite = entry.rewrite
                outcomes, lead_flights = self._settle_calls(
                    entry.future.result(), span
                )
                self._prefetch_hits += 1
            else:
                rewrite = self._rewrite_access(table, constraints)
                outcomes, lead_flights = self._issue_market_calls(
                    self.context.dataset_of(table),
                    table,
                    rewrite.remainder,
                    span,
                )
            # The whole section holds the table lock: recording, retiring
            # led flights, and assembling the result rows are one atomic
            # switch-over from any other session's view.
            with table_store.lock:
                failed, purchased_rows = self._record_outcomes(
                    table, rewrite.remainder, outcomes, lead_flights
                )
                columns, row_count = store.columns_in_boxes(
                    table, rewrite.request_boxes
                )
            if span is not None:
                span.set(
                    **CallAccount.of(outcomes).attrs(),
                    purchased_rows=purchased_rows,
                    cache_served_rows=max(0, row_count - purchased_rows),
                    estimated_transactions=rewrite.estimated_transactions,
                    fully_covered=rewrite.fully_covered,
                )
            if failed and not self.context.transport.config.partial_results:
                raise MarketUnavailableError(
                    f"{len(failed)} of {len(outcomes)} market calls for "
                    f"{table!r} failed: "
                    + "; ".join(str(f.error) for f in failed[:3]),
                    failed=tuple(failed),
                )
            relation = Relation.from_columns(
                RowLayout.for_table(table, self.context.schema_of(table).names),
                columns,
                row_count,
            )
            # The request boxes *are* the constraints on the table's
            # dimensions, so the store applied those exactly; filter what
            # no box expresses.
            on_axis = table_store.space.has_dimension
            predicates = [
                c.to_expression(table)
                for c in constraints
                if not on_axis(c.attribute)
            ]
            predicates.extend(self._query.residuals_for(table))
            if predicates:
                relation = self._ops.filter_rows(
                    relation, conjunction(predicates)
                )
            self._stage(table, relation)
            return relation

    def _stage(self, table: str, relation: Relation) -> None:
        """Add one access's rows to what the final evaluation will scan.

        The store holds each row once, so a single access is distinct as
        it stands and is kept as the columnar relation it already is.
        Only a plan that reads the same table again (a covered block and
        an access, a re-planned suffix) can bring a row twice; then the
        rows the table has not staged yet are appended, in access order.
        """
        key = table.lower()
        previous = self._staged.get(key)
        if previous is None or not len(previous):
            self._staged[key] = relation
        elif len(relation):
            rows = previous.rows
            seen = set(rows)
            fresh = [row for row in relation.rows if row not in seen]
            if fresh:
                self._staged[key] = Relation(relation.layout, rows + fresh)

    def _as_table(self, table: str, relation: Relation) -> Table:
        """``relation``'s columns as a :class:`Table` the engine can scan."""
        return Table.from_columns(
            table,
            self.context.schema_of(table),
            relation.columns_data,
            len(relation),
        )

    def _record_outcomes(
        self, table: str, remainders, outcomes, lead_flights
    ) -> tuple[list[FailedFetch], int]:
        """Record one access's completed purchases, then retire the
        singleflights it led.  The caller holds the table lock.

        Records serially in remainder order: store coverage, histogram
        feedback, and billing totals end up identical to serial fetch.
        Only *completed* fetches are recorded — a failed box must never
        enter the coverage index, or a future query would silently skip
        buying data it does not have (the store-poisoning hazard).
        Coalesced results record too (store dedup and the identical
        histogram observation make it idempotent against the leader's
        own record) — a waiter must never read the store before its
        shared rows are in it.  Returns the failed fetches and the
        purchased row count.
        """
        store = self.context.store
        histogram = self.context.catalog.statistics(table).histogram
        coalescer = self.context.coalescer
        durability = self.context.durability
        failed: list[FailedFetch] = []
        purchased_rows = 0
        purchases_logged = False
        for remainder, outcome in zip(remainders, outcomes):
            if isinstance(outcome, FailedFetch):
                failed.append(outcome)
                continue
            if isinstance(outcome, CoveredSkip):
                continue
            response = outcome.response
            purchased_rows += response.record_count
            store.record(table, remainder.box, response.rows)
            histogram.observe(remainder.box, response.record_count)
            if durability is not None:
                durability.log_purchase(
                    table=table,
                    box=remainder.box,
                    rows=response.rows,
                    count=response.record_count,
                    stored_at=store.clock,
                    url=response.request.url(),
                    key=outcome.idempotency_key,
                    transactions=outcome.billed_transactions,
                    price=outcome.billed_price,
                    coalesced=outcome.coalesced,
                    saved_transactions=outcome.saved_transactions,
                    saved_price=outcome.saved_price,
                )
                purchases_logged = True
        if purchases_logged:
            # Group commit inside the record→release window: once any
            # other session can see these rows (or a waiter is
            # released), the purchases that produced them are durable.
            # Fully-covered accesses skip it — they appended nothing,
            # and bookkeeping records ride the next money commit.
            durability.commit()
        if coalescer is not None:
            for flight in lead_flights:
                coalescer.release(flight)
        return failed, purchased_rows

    def _issue_market_calls(
        self, dataset, table, remainders, parent_span=None
    ) -> tuple[list, list]:
        """Issue the remainder GETs through the query's driver.

        Remainder boxes are disjoint and the market is read-only, so the
        calls commute; outcomes come back in request order either way.
        Each element of the returned outcome list is a
        :class:`~repro.market.transport.FetchResult`, a
        :class:`FailedFetch`, or a :class:`CoveredSkip` — per-call
        failures are captured rather than raised so sibling successes can
        still be recorded (the money was spent; keeping the data saves a
        future re-purchase).  The second return value is the singleflight
        flights this access *led*; the caller retires them under the
        table lock once their rows are recorded.

        Every call is one :meth:`_call_machine`.  On a market whose calls
        wait, :meth:`_submit_async_calls` pipelines them on the event loop;
        otherwise nothing can block, so each machine is driven here to
        completion, in request order, on the calling thread — the way
        :meth:`MarketTransport._drive` answers the fetch machine.  (A
        follower's ``wait`` can only block under concurrent serving, on a
        leader another thread is driving.)
        """
        if self._aio is not None:
            return self._settle_calls(
                self._submit_async_calls(dataset, table, remainders).result(),
                parent_span,
            )
        batch, requests = self._call_batch(dataset, table, remainders)
        transport = self.context.transport
        scope = self._scope
        results = []
        for remainder, request in zip(remainders, requests):
            machine = self._call_machine(batch, remainder.box, request)
            try:
                effect = machine.send(None)
                while True:
                    kind, subject = effect
                    try:
                        if kind == "fetch":
                            answer = transport.fetch(subject, scope)
                        else:
                            answer = subject.wait()
                    except BaseException as error:
                        effect = machine.throw(error)
                    else:
                        effect = machine.send(answer)
            except StopIteration as stop:
                results.append(stop.value)
        return self._settle_calls((results, batch.lead_flights), parent_span)

    def _submit_async_calls(self, dataset, table, remainders):
        """Pipeline one access's remainder GETs onto the event loop.

        The driver of :meth:`_call_machine` on a market whose calls wait:
        every remainder call is a coroutine that awaits the shared fetch
        machine against the per-seller connection pool (the pool's
        semaphore is the only in-flight cap) and parks a follower's wait on
        the default executor so the loop keeps running.  Returns a
        ``concurrent.futures.Future`` resolving to ``(results,
        lead_flights)`` where results are ``(outcome, detached_span)``
        pairs in request order — the caller (either the consuming table
        access or the failure drain) blocks on it when it actually needs
        the data.
        """
        batch, requests = self._call_batch(dataset, table, remainders)
        if not requests:
            # A fully covered access has nothing to await: answer without
            # starting the loop thread or hopping onto it.
            settled: Future = Future()
            settled.set_result(([], batch.lead_flights))
            return settled
        aio = self._aio
        scope = self._scope

        async def drive(remainder, request: RestRequest):
            loop = asyncio.get_running_loop()
            machine = self._call_machine(batch, remainder.box, request)
            try:
                effect = machine.send(None)
                while True:
                    kind, subject = effect
                    try:
                        if kind == "fetch":
                            answer = await aio.fetch(subject, scope)
                        else:
                            answer = await loop.run_in_executor(
                                None, subject.wait
                            )
                    except BaseException as error:
                        effect = machine.throw(error)
                    else:
                        effect = machine.send(answer)
            except StopIteration as stop:
                return stop.value

        async def drive_all():
            results = await asyncio.gather(*map(drive, remainders, requests))
            return list(results), batch.lead_flights

        return aio.submit(drive_all())

    def _call_batch(self, dataset, table, remainders):
        """The requests of one table access and the state their call
        machines share."""
        requests = [
            RestRequest(dataset, table, remainder.constraints)
            for remainder in remainders
        ]
        coalescer = self.context.coalescer
        batch = _CallBatch(
            table=table,
            coalescer=coalescer,
            table_store=(
                self.context.store.table(table) if coalescer is not None else None
            ),
            tracing=self.context.tracer.enabled,
        )
        return batch, requests

    def _settle_calls(self, drained, parent_span) -> tuple[list, list]:
        """Account for one access's drained calls, whichever driver ran
        them: the outcomes join the query's, detached call spans are
        adopted into the access's ``table_fetch`` span in request order
        (a call machine only ever touches its own private span — see
        :mod:`repro.obs.trace` — so per-fetch timing and attempt counts are
        recorded identically regardless of scheduling), and the calls'
        simulated durations are charged: their sum to the serial total,
        their makespan over the seller pool's lanes to the critical path —
        one rule, whichever driver ran them."""
        results, lead_flights = drained
        outcomes = [outcome for outcome, _ in results]
        self._outcomes.extend(outcomes)
        if parent_span is not None:
            for _, call_span in results:
                if call_span is not None:
                    parent_span.adopt(call_span)
        durations = [
            outcome.error.elapsed_ms
            if isinstance(outcome, FailedFetch)
            else 0.0
            if isinstance(outcome, CoveredSkip)
            else outcome.elapsed_ms
            for outcome in outcomes
        ]
        self._serial_ms += sum(durations)
        self._critical_path_ms += _makespan(durations, DEFAULT_POOL_SIZE)
        return outcomes, lead_flights

    def _call_machine(self, batch: _CallBatch, box, request: RestRequest):
        """One remainder call as a sans-IO generator; the drivers only wait.

        Yields ``("fetch", request)`` — the driver performs the transport
        fetch and sends back its :class:`FetchResult`, or throws in what it
        raised — and ``("wait", flight)`` — the driver blocks until the
        flight's leader completed or aborted, then sends anything.  Returns
        ``(outcome, detached market_call span or None)``.  No lock is held
        at a ``yield``.
        """
        call_span = (
            self.context.tracer.detached_span("market_call", url=request.url())
            if batch.tracing
            else None
        )
        try:
            if batch.coalescer is None:
                outcome = yield ("fetch", request)
            else:
                outcome = yield from self._shared_fetch(batch, box, request)
        except TransportError as error:
            outcome = FailedFetch(table=batch.table, request=request, error=error)
        if call_span is not None:
            self._finish_call_span(call_span, outcome)
        return outcome, call_span

    def _shared_fetch(self, batch: _CallBatch, box, request: RestRequest):
        """The call machine's fetch through the singleflight layer.

        The loop re-establishes, on every iteration, the serving
        invariant: under the table lock, either the box is covered (free),
        or a flight exists to join (free), or we lead a new flight (we
        pay).  A failed leader's waiters come back through here — the
        flight was deregistered before they woke, so one of them leads a
        fresh attempt with its own transport retry budget; each query
        fails at most once as leader per key, so the loop terminates.
        """
        coalescer = batch.coalescer
        table_store = batch.table_store
        ledger = self.context.market.ledger
        store = self.context.store
        key = request.url()
        while True:
            with table_store.lock:
                if table_store.is_covered(box, store.policy, store.clock):
                    return CoveredSkip(request=request)
                flight, leader = coalescer.begin(key)
            if leader:
                try:
                    result = yield ("fetch", request)
                except BaseException as error:
                    # Deregister BEFORE waiters wake: no waiter may ever be
                    # served rows from a fetch the market did not bill.
                    coalescer.abort(flight, error)
                    raise
                coalescer.complete(flight, result)
                batch.lead_flights.append(flight)
                return result
            yield ("wait", flight)
            if flight.failed:
                continue
            shared = flight.result
            response = shared.response
            ledger.credit_coalesced_savings(response.transactions, response.price)
            return FetchResult(
                response=response,
                attempts=1,
                elapsed_ms=shared.elapsed_ms,
                coalesced=True,
                saved_transactions=response.transactions,
                saved_price=response.price,
            )

    def _finish_call_span(self, span, outcome) -> None:
        """Stamp one detached ``market_call`` span: the account of its one
        outcome, plus what only a single call has."""
        span.set(**CallAccount.of((outcome,)).attrs())
        if isinstance(outcome, FailedFetch):
            error = outcome.error
            span.set(
                failed=True,
                error=str(error),
                attempts=error.attempts,
                replayed=False,
                rows=0,
                elapsed_ms=error.elapsed_ms,
            )
        elif isinstance(outcome, CoveredSkip):
            span.set(
                failed=False, attempts=0, replayed=False, rows=0, elapsed_ms=0.0
            )
        else:
            span.set(
                failed=False,
                attempts=outcome.attempts,
                replayed=outcome.replayed,
                rows=outcome.response.record_count,
                elapsed_ms=outcome.elapsed_ms,
            )
        span.finish(self.context.tracer.clock())

    def _empty_relation(self, table: str) -> Relation:
        relation = Relation(
            RowLayout.for_table(table, self.context.schema_of(table).names),
            [],
        )
        self._stage(table, relation)
        return relation

    # ------------------------------------------------------------------- staging

    def _build_staging(self, query: LogicalQuery) -> Database:
        staging = Database()
        tracer = self.context.tracer
        for table_name in query.tables:
            if self.context.is_market(table_name):
                relation = self._staged.get(table_name.lower())
                if relation is None:
                    relation = self._empty_relation(table_name)
                staging.add(self._as_table(table_name, relation))
                rows = len(relation)
            else:
                local = self.context.local_db.table(table_name)
                staging.add(local)
                rows = len(local)
            if tracer.enabled:
                tracer.event("stage", table=table_name, rows=rows)
        return staging
