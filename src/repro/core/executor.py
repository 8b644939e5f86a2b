"""Plan execution: buy the missing data, then answer locally.

The executor walks the plan tree left-to-right and buys every market leaf
through :mod:`repro.core.purchase` — rewritten against the *current*
store (binding values are known by now), remainder calls issued, results
recorded into the semantic store and fed back into the statistics
(Figure 3, steps 5.1-5.4).  On a market whose calls wait, a static plan's
certain accesses are started at query start and the walk finishes them
when it reaches them; every other access is started when it is reached.
The walk joins nothing for its own sake: the only thing it needs from a
join is the values a bind join binds on (§4.1), so a subtree's
intermediate is computed only when something above reads it — a bind
join reads its left side's keys, an adaptive checkpoint reads its
prefix's cardinality, the plan root reads nothing — and then over the
join-key columns alone (zero-copy projections of the fetched relations).
The final answer is produced the way the paper's architecture does it —
all required rows are staged into the local DBMS and the whole query is
evaluated there, once (steps 6-8).  Every staged market row passed its
table's constraints and residuals at the access that staged it, so that
evaluation selects on local tables only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from repro.core import purchase
from repro.errors import ExecutionError
from repro.relational import operators
from repro.relational.database import Database
from repro.relational.engine import evaluate
from repro.relational.expressions import Comparison, ColumnRef, RowLayout, conjunction
from repro.relational.relation import Relation
from repro.relational.query import AttributeConstraint, LogicalQuery, OutputColumn
from repro.relational.table import Table
from repro.stats.overlay import CardinalityOverlay


@dataclass
class QueryStats(purchase.CallAccount):
    """Everything one query cost and went through, in one structure.

    Read it as ``result.stats``.  It is the account of the query's calls —
    :class:`~repro.core.purchase.CallAccount`, whose ``transactions`` and
    ``price`` are the money *spent* (billed minus wasted) — folded once by
    :meth:`Executor.execute` with the walk's own counts below; the facade
    adds the planner's three counts to the same object, and every other
    account (running totals, the WAL, sessions) reads it from there.
    """

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
    #: Regions that could not be bought (non-empty only under
    #: ``partial_results``; otherwise the query raises instead).
    failed_fetches: tuple[purchase.FailedFetch, ...] = ()
    #: Adaptive re-optimization (``QueryOptions(adaptive=...)``): mid-query
    #: re-plans attempted, and the planner's estimate of the dollars the
    #: adopted suffix plans saved versus staying the course.  Zero when
    #: adaptive mode is off (the default) or never tripped.
    replans: int = 0
    replan_dollars_saved_est: float = 0.0
    #: Table accesses whose calls were started at query start (only on a
    #: market whose calls wait, without a policy).
    prefetch_hits: int = 0

    @property
    def complete(self) -> bool:
        """Whether every region the plan needed was actually bought."""
        return not self.failed_fetches


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

    def __init__(self, components: list[Relation]):
        self.components = components

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
        combined = _Fetched(self.components + other.components)
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
            fetched = _Fetched(components)
            left_index = fetched._component_of(left_ref)
            right_index = fetched._component_of(right_ref)
            if left_index == right_index:
                components[left_index] = operators.filter_rows(
                    components[left_index],
                    Comparison("=", left_ref, right_ref),
                )
                continue
            joined = operators.hash_join(
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
        return _Fetched(components)


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
        #: Mid-query re-optimization policy (None = no checkpoints).
        self.adaptive = context.options.adaptive
        self.objective = objective

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
        self._purchases = purchase.Purchases(
            self.context, self.context.transport.new_scope()
        )
        #: Accesses started at query start, by table, until the walk
        #: reaches them.
        self._early: dict[str, purchase.StartedAccess] = {}
        self._replans = 0
        self._replan_saved = 0.0
        self._prefetch_hits = 0
        try:
            # Start early only what is worth overlapping, and only for a
            # *static* plan: an adaptive executor may re-plan the suffix,
            # and nothing may be bought for a plan that might be abandoned
            # (wasted dollars must stay provably zero).
            if self._purchases.aio is not None and self.adaptive is None:
                self._start_early(plan)
            # Nothing reads the root's intermediate: the engine evaluates
            # the query over the staged tables below.
            self._fetch(plan, read=False)
        finally:
            # An access started early that the walk never reached (an
            # earlier access failed the query) is bought here all the same,
            # so billed money always buys coverage.  A completed static
            # plan reaches every one — this is then a no-op, which is what
            # keeps prefetch_wasted_dollars at zero.
            self._purchases.drain(self._early.values())

        staging = self._build_staging(query)
        tracer = self.context.tracer
        with tracer.span("local_eval") as eval_span:
            relation = evaluate(staging, self._over_staged)
            if eval_span is not None:
                eval_ms = tracer.clock() - eval_span.start_ms
                input_rows = sum(
                    len(staging.table(name)) for name in query.tables
                )
                eval_span.set(
                    input_rows=input_rows,
                    output_rows=len(relation.rows),
                    eval_ms=eval_ms,
                    rows_per_sec=(
                        input_rows / (eval_ms / 1000.0)
                        if eval_ms > 0.0
                        else 0.0
                    ),
                )

        purchases = self._purchases
        outcomes = purchases.outcomes
        return relation, QueryStats.of(
            outcomes,
            market_time_ms=purchases.serial_ms,
            market_time_critical_path_ms=purchases.critical_path_ms,
            # A failed call reaches this point only under partial results;
            # otherwise its access raised.
            failed_fetches=tuple(
                o for o in outcomes if isinstance(o, purchase.FailedFetch)
            ),
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
        return _Fetched([operators.project(relation, refs)])

    def _start_early(self, node: PlanNode) -> None:
        """Start, in execution order, the plan's *certain* market buys.

        Mirrors :meth:`_fetch`'s walk exactly: a non-bind
        :class:`MarketAccessNode` will be fetched with the query's static
        constraints no matter what earlier accesses return, so buying it
        early can never waste a dollar, and its calls overlap earlier
        accesses and local join evaluation instead of serializing behind
        them.  Bind-join right sides depend on runtime binding values, and
        LocalBlock market tables are covered reads — neither starts early.
        """
        if isinstance(node, MarketAccessNode):
            key = node.table.lower()
            # The same table twice in one plan (a Theorem-3 shape): only
            # the first access starts early; the second rewrites against
            # the then-current store like any other.
            if key not in self._early:
                self._early[key] = self._purchases.start(
                    node.table, self._query.constraints_for(node.table)
                )
        elif isinstance(node, JoinNode):
            self._start_early(node.left)
            if not (node.bind and isinstance(node.right, MarketAccessNode)):
                self._start_early(node.right)

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
        relation = evaluate(block_db, sub_query)
        if not keys:
            # No join names a block table (it is a Cartesian sibling), and
            # an empty output list reads as SELECT *: the walk wants the
            # row count alone.
            relation = operators.project(relation, ())
        return _Fetched([relation])

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
        """Buy one access (or finish the one started early), filter what
        no box expresses, and stage the rows."""
        constraints = [*self._query.constraints_for(table), *extra_constraints]
        table_store = self.context.store.table(table)
        with self.context.tracer.span(
            "table_fetch", table=table, source=source
        ) as span:
            access = (
                self._early.pop(table.lower(), None) if source == "access" else None
            )
            if access is None:
                access = self._purchases.start(table, constraints)
            else:
                self._prefetch_hits += 1
            relation = self._purchases.finish(access, span)
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
                relation = operators.filter_rows(
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
        """``relation``'s columns as a :class:`Table` the engine can scan,
        unchecked while the store vouches for its types (it assembled them
        before this read of its monotone ``exact_types``)."""
        make = (
            Table.unchecked
            if len(relation) and self.context.store.table(table).exact_types
            else Table.from_columns
        )
        return make(
            table,
            self.context.schema_of(table),
            relation.columns_data,
            len(relation),
        )

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
