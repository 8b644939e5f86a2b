"""PayLess's cost-based optimizer (Section 4, Algorithm 2).

Bottom-up dynamic programming whose objective is the money paid to the
market, with the paper's three search-space reductions:

* **Theorem 1** — only left-deep plans are enumerated (each DP level adds
  one market relation to the current left subtree);
* **Theorem 2** — all *zero-price* relations (local tables, plus market
  relations whose request region the semantic store already covers) are
  joined first into a single ``LocalBlock`` leaf;
* **Theorem 3** — when a relation subset splits into join-disconnected
  components, the best plans of the components are combined with a
  Cartesian product instead of being re-enumerated.

Each candidate relation can be accessed directly (when its bound attributes
are constrained by the query) or as the right side of a *bind join* on up
to ``max_bind_attrs`` join attributes.  Access costs come from the semantic
rewriter, so stored results reduce estimated prices exactly as they will at
execution time, and every call is priced in dollars by its dataset's
schedule (``PlanningContext.pricing``).

The module also houses the exhaustive *bushy* enumerator used by the
"Disable All" arm of Figure 14, and the closed-form search-space size
formulas of Section 4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product

from repro.core.context import PlanningContext
from repro.core.objectives import MIN_DOLLARS, PlanObjective, QueryOptions
from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    MarketAccessNode,
    MaterializedNode,
    PlanNode,
)
from repro.core.rewriter import RewriteResult
from repro.errors import InfeasibleObjectiveError, PlanningError
from repro.relational.expressions import conjunction
from repro.relational.query import JoinPredicate, LogicalQuery
from repro.semstore.space import BoxSpace
from repro.stats.overlay import CardinalityOverlay


@dataclass
class PlanningResult:
    """The chosen plan plus the instrumentation Figures 14-15 read."""

    plan: PlanNode
    cost: float
    evaluated_plans: int
    enumerated_boxes: int
    kept_boxes: int
    #: Candidates rejected because an incumbent over the same table set
    #: is at least as good on every comparison axis.
    pruned_plans: int = 0
    #: How the installation's plan cache was involved: "hit" (this result
    #: was served from the cache), "miss" (planned fresh, now cached), or
    #: "off" (cache disabled, or the optimizer was invoked directly).
    cache_status: str = "off"
    #: Estimated serial wall-clock of the chosen plan's market calls under
    #: the planning context's latency model.
    latency_ms: float = 0.0
    #: The objective the plan was chosen under.
    objective: PlanObjective = MIN_DOLLARS
    #: The full-query money-latency Pareto frontier as ``(cost,
    #: latency_ms)`` points in first-seen order.  A single point under
    #: ``min_dollars`` (one comparison axis keeps width-1 frontiers).
    frontier: tuple[tuple[float, float], ...] = ()
    #: Why the chosen point won (EXPLAIN's "why" line; empty for
    #: min_dollars).
    objective_note: str = ""

    @property
    def from_cache(self) -> bool:
        return self.cache_status == "hit"

    @property
    def frontier_size(self) -> int:
        return len(self.frontier)

    @property
    def kept_plans(self) -> int:
        """Candidates that entered their subset's frontier."""
        return self.evaluated_plans - self.pruned_plans


class _SubPlan:
    """A candidate's vector — relation set, cost, rows, latency.

    The DP compares vectors only, and ``_consider`` rejects most
    candidates, so the plan tree is not built with the candidate:
    ``build(subplan)`` constructs it on the first read of ``node``.
    """

    __slots__ = ("relations", "cost", "rows", "latency", "_node", "_build")

    def __init__(self, relations, cost, rows, latency=0.0, node=None, build=None):
        self.relations: frozenset[str] = relations
        self.cost: float = cost
        self.rows: float = rows
        #: Serial market wall-clock estimate — the second Pareto axis.
        self.latency: float = latency
        self._node: PlanNode | None = node
        self._build = build

    @property
    def node(self) -> PlanNode:
        if self._node is None:
            self._node = self._build(self)
        return self._node


def _leaf(node: PlanNode) -> _SubPlan:
    return _SubPlan(
        node.relations, node.cost, node.estimated_rows, node.latency_ms, node
    )


def _join_node(left, right, predicates, bind, plan: _SubPlan) -> JoinNode:
    return JoinNode(
        relations=plan.relations,
        cost=plan.cost,
        estimated_rows=plan.rows,
        latency_ms=plan.latency,
        left=left.node,
        right=right.node,
        predicates=predicates,
        bind=bind,
        cartesian=not predicates,
    )


def _bind_node(table, rewrite, columns, bindings, plan: _SubPlan) -> MarketAccessNode:
    return MarketAccessNode(
        relations=plan.relations,
        cost=plan.cost,
        estimated_rows=plan.rows,
        latency_ms=plan.latency,
        table=table,
        rewrite=rewrite,
        bind_attributes=columns,
        estimated_bindings=bindings,
    )


@dataclass
class _JoinIndex:
    """``query.joins`` resolved once per planning call (lowered names)."""

    #: ``(left table, right table, predicate, row divisor)`` in query
    #: order; the divisor is ``max(d_left, d_right, 1.0)``.
    joins: list[tuple[str, str, JoinPredicate, float]]
    #: Per table: its incident joins as ``(other table, predicate,
    #: divisor)``, in query order.
    edges: dict[str, list[tuple[str, JoinPredicate, float]]]
    #: Per table: the tables it shares a join with.
    adjacency: dict[str, set[str]]


@dataclass
class SuffixPlan:
    """A re-planned remainder from :meth:`Optimizer.optimize_suffix`.

    ``old_cost`` is the *old* plan's remaining steps re-costed under the
    same observed-cardinality overlay — the apples-to-apples baseline the
    executor compares ``cost`` against when estimating dollars saved.
    """

    plan: PlanNode
    cost: float
    latency_ms: float
    old_cost: float
    evaluated_plans: int


class Optimizer:
    """Algorithm 2 over the installation's :class:`QueryOptions`.

    ``options`` stands in for ``context.options`` (the ablation arms plan
    one context under several switch settings); ``objective`` is one
    call's choice from the Pareto frontier, the options' own by default.
    """

    def __init__(
        self,
        context: PlanningContext,
        options: QueryOptions | None = None,
        objective: PlanObjective | None = None,
    ):
        self.context = context
        self.options = options if options is not None else context.options
        self._objective = (
            objective if objective is not None else self.options.objective
        )
        self._tracing = False
        self._overlay: CardinalityOverlay | None = None

    # ------------------------------------------------------------------ entry

    def optimize(self, query: LogicalQuery) -> PlanningResult:
        tracer = self.context.tracer
        self._tracing = tracer.enabled
        with tracer.span("plan") as span:
            result = self._optimize(query)
            if span is not None:
                span.set(
                    evaluated_plans=result.evaluated_plans,
                    pruned_plans=result.pruned_plans,
                    cost=result.cost,
                    enumerated_boxes=result.enumerated_boxes,
                    kept_boxes=result.kept_boxes,
                )
        return result

    def _reset(self, query: LogicalQuery) -> None:
        """Initialize the per-run planning state for ``query``."""
        self._query = query
        self._evaluated = 0
        self._pruned = 0
        self._enumerated_boxes = 0
        self._kept_boxes = 0
        #: The comparison axes.  The paper's min_dollars compares
        #: candidates on (cost) alone, which keeps every subset's frontier
        #: at width 1 — latency is computed on every node but never
        #: consulted, so chosen plans are the single-objective DP's.
        #: Every other objective compares on (cost, latency).
        self._one_axis = self._objective.is_default
        self._latency_model = self.context.latency_model
        # Per-optimize() probe memos.  Safe because planning never mutates
        # the store or catalog: every probe is a pure function of the query
        # and the store state at planning time.  (The rewriter's own
        # epoch-keyed memo still guards reuse *across* queries.)
        self._memo_rewrite: dict[str, RewriteResult] = {}
        self._memo_direct: dict[str, _SubPlan] = {}
        self._memo_binds: dict[str, tuple] = {}
        self._memo_region_rows: dict[str, float] = {}
        self._memo_standalone: dict[str, bool] = {}
        self._memo_distinct: dict[tuple[str, str], float] = {}
        #: Built on first use, not here: ``optimize_suffix`` installs its
        #: overlay after ``_reset`` and the divisors read it.
        self._index: _JoinIndex | None = None
        #: Observed-cardinality overlay for adaptive suffix planning; a
        #: fresh ``optimize()`` always starts from shared estimates only.
        self._overlay = None

    def _optimize(self, query: LogicalQuery) -> PlanningResult:
        self._reset(query)
        market_tables = [t for t in query.tables if self.context.is_market(t)]
        local_tables = [t for t in query.tables if not self.context.is_market(t)]
        for table in local_tables:
            if not self.context.is_local(table):
                raise PlanningError(f"table {table!r} is neither local nor market")

        if not self.options.use_theorems:
            if not self._one_axis:
                raise PlanningError(
                    "the bushy debug enumerator supports only the "
                    "min_dollars objective; Pareto planning needs the "
                    "left-deep DP (use_theorems=True)"
                )
            return self._optimize_bushy(query, market_tables, local_tables)

        zero_market = [
            t for t in market_tables if self._is_zero_price(t)
        ]
        priced = [t for t in market_tables if t not in zero_market]
        block = self._build_block(local_tables, zero_market)

        if not priced:
            if block is None:
                raise PlanningError("query references no tables")
            return self._result([block])

        entries = self._frontier_program(priced, block)
        if not entries:
            raise PlanningError(
                "no feasible plan: some bound attributes can never be bound"
            )
        return self._result(entries)

    def _result(self, entries: list[_SubPlan]) -> PlanningResult:
        frontier = self._pareto_front(entries)
        chosen, note = self._select_from_frontier(frontier)
        return PlanningResult(
            plan=chosen.node,
            cost=chosen.cost,
            evaluated_plans=self._evaluated,
            enumerated_boxes=self._enumerated_boxes,
            kept_boxes=self._kept_boxes,
            pruned_plans=self._pruned,
            latency_ms=chosen.latency,
            objective=self._objective,
            frontier=tuple((entry.cost, entry.latency) for entry in frontier),
            objective_note=note,
        )

    # ------------------------------------------------------- adaptive suffix

    def optimize_suffix(
        self,
        query: LogicalQuery,
        prefix: MaterializedNode,
        overlay: CardinalityOverlay | None = None,
        old_steps: tuple[JoinNode, ...] = (),
    ) -> SuffixPlan | None:
        """Re-plan the joins *not yet executed*, resuming from ``prefix``.

        ``prefix`` is the materialized intermediate (actual cardinality,
        zero cost — its money is already spent), ``overlay`` layers the
        executor's observed cardinalities over the shared estimates for
        this call only, and ``old_steps`` is the original plan's
        remaining join steps, re-costed under the same overlay to price
        what staying the course would spend.

        Returns ``None`` whenever re-planning cannot (or should not)
        produce a resumable plan — the executor then simply keeps the
        original plan.  The same left-deep DP (on the active
        :class:`PlanObjective`'s axes) runs over only the remaining
        market tables, seeded with the prefix instead of the Theorem-2
        block.  Results are never cached: the plan cache only
        ever holds statically-planned trees (see plancache hygiene
        tests).
        """
        if not self.options.use_theorems:
            # The bushy debug arm has no left-deep prefix to resume from.
            return None
        self._reset(query)
        self._overlay = overlay
        remaining = [
            t
            for t in query.tables
            if self.context.is_market(t)
            and t.lower() not in prefix.relations
        ]
        if not remaining:
            return None
        remaining_set = frozenset(t.lower() for t in remaining)
        if len(self._components(remaining_set, prefix.relations)) > 1:
            # Join-disconnected remainders would re-enter Theorem-3
            # composition, which could only duplicate the prefix leaf.
            # Rare (the static planner already ordered the query); keep
            # the original plan instead.
            return None
        seed = _SubPlan(
            prefix.relations, 0.0, max(prefix.estimated_rows, 0.0), node=prefix
        )
        try:
            entries = self._frontier_program(remaining, seed)
            if not entries:
                return None
            chosen, __ = self._select_from_frontier(
                self._pareto_front(entries)
            )
        except PlanningError:
            # Includes InfeasibleObjectiveError: a bounded objective that
            # became unmeetable mid-query must not kill the running query
            # — the original plan stays in force.
            return None
        evaluated = self._evaluated
        old_cost = self._recost_steps(seed, old_steps)
        return SuffixPlan(
            plan=chosen.node,
            cost=chosen.cost,
            latency_ms=chosen.latency,
            old_cost=old_cost,
            evaluated_plans=evaluated,
        )

    def _recost_steps(
        self, seed: _SubPlan, old_steps: tuple[JoinNode, ...]
    ) -> float:
        """Price the original plan's remaining steps under the overlay.

        Each old step is matched to the freshly-costed extension
        candidate with the same access shape (same table, same bound
        attributes); a step with no matching candidate (the store state
        can narrow feasibility between plan and re-plan) falls back to
        re-attaching the stamped access node as-is.
        """
        current = seed
        for step in old_steps:
            access = step.right
            if not isinstance(access, MarketAccessNode):
                continue
            signature = tuple(access.bind_attributes)
            match: _SubPlan | None = None
            for candidate in self._extension_candidates(
                current, access.table
            ):
                right = candidate.node.right if isinstance(
                    candidate.node, JoinNode
                ) else None
                if (
                    isinstance(right, MarketAccessNode)
                    and tuple(right.bind_attributes) == signature
                ):
                    match = candidate
                    break
            if match is None:
                (match,) = self._attach(
                    current, access.table, [(_leaf(access), step.bind)]
                )
            current = match
        return current.cost

    # ---------------------------------------------------------------- theorems

    def _is_zero_price(self, table: str) -> bool:
        """Theorem 2 candidates: covered market relations are free."""
        if not self.options.use_sqr:
            return False
        if not self._standalone_feasible(table):
            return False
        rewrite = self._rewrite(table)
        return rewrite.fully_covered or rewrite.estimated_transactions == 0

    def _build_block(
        self, local_tables: list[str], zero_market: list[str]
    ) -> _SubPlan | None:
        """The Theorem-2 left-most leaf joining all zero-price relations."""
        tables = list(local_tables) + list(zero_market)
        if not tables:
            return None
        rows = 1.0
        for table in local_tables:
            rows *= max(self._local_filtered_count(table), 0)
        for table in zero_market:
            rewrite = self._rewrite(table)
            region_rows = sum(
                self.context.catalog.statistics(table).histogram.estimate(box)
                for box in rewrite.request_boxes
            )
            rows *= max(region_rows, 0.0)
        # Apply join selectivities for predicates internal to the block.
        lowered = frozenset(t.lower() for t in tables)
        for left_t, right_t, __, divisor in self._join_index().joins:
            if left_t in lowered and right_t in lowered:
                rows /= divisor
        return _leaf(
            LocalBlockNode(
                relations=lowered,
                cost=0.0,
                estimated_rows=rows,
                tables=tuple(tables),
                covered_market_tables=tuple(zero_market),
            )
        )

    def _join_index(self) -> _JoinIndex:
        """The query's join graph, resolved on first use: the hot loops
        then compare lowered names and divide by ready-made divisors."""
        index = self._index
        if index is None:
            joins = []
            edges = {t.lower(): [] for t in self._query.tables}
            for join in self._query.joins:
                left, right = join.left, join.right
                left_t, right_t = left.table.lower(), right.table.lower()
                divisor = max(
                    self._base_distinct(left.table, left.column),
                    self._base_distinct(right.table, right.column),
                    1.0,
                )
                joins.append((left_t, right_t, join, divisor))
                edges[left_t].append((right_t, join, divisor))
                edges[right_t].append((left_t, join, divisor))
            adjacency = {
                table: {other for other, __, __ in incident}
                for table, incident in edges.items()
            }
            index = self._index = _JoinIndex(joins, edges, adjacency)
        return index

    def _components(
        self, subset: frozenset[str], block_tables: frozenset[str]
    ) -> list[frozenset[str]]:
        """Theorem 3: connected components of ``subset`` in the join graph.

        Tables joined to the zero-price block are connected *through* it.
        Components come in order of their smallest member, so Theorem-3
        composition nests the same way in every process.
        """
        adjacency = self._join_index().adjacency
        through_block = {
            t for t in subset if not adjacency[t].isdisjoint(block_tables)
        }
        components = []
        unseen = set(subset)
        for start in sorted(subset):
            if start not in unseen:
                continue
            unseen.discard(start)
            component, frontier = {start}, [start]
            while frontier and unseen:
                table = frontier.pop()
                reached = adjacency[table] & unseen
                if table in through_block:
                    reached |= through_block & unseen
                unseen -= reached
                component |= reached
                frontier.extend(reached)
            components.append(frozenset(component))
        return components

    # ------------------------------------------------------------------- the DP
    #
    # One bottom-up left-deep enumeration.  Each subset keeps the frontier
    # of its subplans on the objective's comparison axes: (money, latency)
    # vectors in general, money alone for min_dollars — where the frontier
    # degenerates to the single cheapest subplan of the paper's DP.
    #
    # A candidate is a vector (``_SubPlan``): costing is float arithmetic
    # over the per-query join index, in a fixed operation order, and plan
    # nodes are built only for what is read back — ``_consider`` rejects
    # most candidates, and a rejected one never had a tree.

    def _frontier_program(
        self, priced: list[str], block: _SubPlan | None
    ) -> list[_SubPlan]:
        """Run the DP from ``block`` (the Theorem-2 leaf, or a materialized
        prefix); return the frontier entries covering all of ``priced`` —
        empty when no plan is feasible."""
        frontiers: dict[frozenset[str], list[_SubPlan]] = {}
        block_tables = block.relations if block is not None else frozenset()
        by_name = {t.lower(): t for t in priced}

        # Level 1.
        for table in priced:
            key = frozenset([table.lower()])
            for candidate in self._extension_candidates(block, table):
                self._consider(frontiers, key, candidate)

        # Levels 2..n.
        for size in range(2, len(priced) + 1):
            for subset_names in combinations(sorted(by_name), size):
                subset = frozenset(subset_names)
                components = self._components(subset, block_tables)
                if len(components) > 1:
                    for combined in self._combine_components(
                        frontiers, components
                    ):
                        self._evaluated += 1
                        self._consider(frontiers, subset, combined)
                    continue
                # Deterministic, not raw frozenset order: on ties the
                # first-seen candidate wins, so iteration order IS plan
                # choice — hash-order iteration would make tied plans
                # vary across processes.  Reverse-sorted extension
                # (largest table added last) canonicalizes ties to the
                # join order that reads in table-name order.
                for table_key in sorted(subset, reverse=True):
                    lefts = frontiers.get(subset - {table_key})
                    if not lefts:
                        continue
                    table = by_name[table_key]
                    for left in lefts:
                        for candidate in self._extension_candidates(
                            left, table
                        ):
                            self._consider(frontiers, subset, candidate)
        return frontiers.get(frozenset(by_name), [])

    def _consider(
        self,
        frontiers: dict[frozenset[str], list[_SubPlan]],
        key: frozenset[str],
        candidate: _SubPlan,
    ) -> None:
        cost, latency = candidate.cost, candidate.latency
        one_axis = self._one_axis
        accepted = True
        entries = frontiers.get(key)
        if entries is not None:
            # Within-subset *weak* dominance: an incumbent at least as
            # good on every axis rejects the candidate, so on exact ties
            # the first-seen plan is kept.  (Left-deep plans over one
            # table set expose the same usable bound attributes, fixed by
            # the set and the join graph, so nothing else distinguishes
            # them.)
            for incumbent in entries:
                if incumbent.cost <= cost and (
                    one_axis or incumbent.latency <= latency
                ):
                    accepted = False
                    break
        if self._tracing:
            # Rejected candidates are exactly what EXPLAIN cannot show —
            # the trace records every considered (sub)plan with its vector.
            attrs = {"tables": sorted(key), "cost": cost}
            if not one_axis:
                attrs["latency_ms"] = latency
            self.context.tracer.event(
                "plan_candidate", **attrs, accepted=accepted
            )
        if not accepted:
            self._pruned += 1
            return
        if entries is None:
            frontiers[key] = [candidate]
        else:
            # Drop incumbents strictly worse than the newcomer on every
            # axis (their extensions are strictly worse than the
            # newcomer's) — under one axis, the lone incumbent.
            # Weak ties stay, preserving first-seen representatives.
            # In place: this runs once per accepted candidate.
            kept = 0
            for incumbent in entries:
                if not (
                    cost < incumbent.cost
                    and (one_axis or latency < incumbent.latency)
                ):
                    entries[kept] = incumbent
                    kept += 1
            del entries[kept:]
            entries.append(candidate)

    def _combine_components(
        self,
        frontiers: dict[frozenset[str], list[_SubPlan]],
        components: list[frozenset[str]],
    ) -> list[_SubPlan]:
        """Theorem 3 composition: Best(C1) × Best(C2) × ..., one candidate
        per combination of the components' frontier entries."""
        parts = []
        for component in components:
            entries = frontiers.get(component)
            if not entries:
                return []
            parts.append(entries)
        return [self._combine_parts(combo) for combo in product(*parts)]

    @staticmethod
    def _combine_parts(parts: tuple[_SubPlan, ...]) -> _SubPlan:
        """Cartesian-product composition of component subplans."""
        parts = sorted(parts, key=lambda p: p.cost, reverse=True)
        combined = parts[0]
        for part in parts[1:]:
            combined = _SubPlan(
                combined.relations | part.relations,
                combined.cost + part.cost,
                combined.rows * part.rows,
                combined.latency + part.latency,
                build=partial(_join_node, combined, part, (), False),
            )
        return combined

    @staticmethod
    def _pareto_front(entries: list[_SubPlan]) -> list[_SubPlan]:
        """The non-dominated subset, in first-seen order.

        The per-subset lists may retain entries that a later, cheaper
        *and* faster plan never displaced (weak ties are deliberately
        kept during the run); the final sweep removes anything another
        entry beats on one axis without losing the other.
        """
        front = []
        for entry in entries:
            dominated = False
            for other in entries:
                if other is entry:
                    continue
                if (
                    other.cost <= entry.cost
                    and other.latency <= entry.latency
                    and (
                        other.cost < entry.cost
                        or other.latency < entry.latency
                    )
                ):
                    dominated = True
                    break
            if not dominated:
                front.append(entry)
        return front

    def _select_from_frontier(
        self, front: list[_SubPlan]
    ) -> tuple[_SubPlan, str]:
        """Pick the frontier point the objective asks for (or raise)."""
        objective = self._objective
        count = len(front)
        if objective.is_default:
            # One comparison axis: the frontier is the cheapest plan.
            (chosen,) = front
            return chosen, ""
        if objective.kind == "min_latency":
            chosen = min(front, key=lambda e: (e.latency, e.cost))
            return chosen, f"fastest of {count} Pareto point(s)"
        if objective.kind == "dollars_under_latency_ms":
            bound = objective.latency_bound_ms
            feasible = [e for e in front if e.latency <= bound]
            if not feasible:
                fastest = min(e.latency for e in front)
                raise InfeasibleObjectiveError(
                    f"no plan fits under {bound:g} ms: the fastest of "
                    f"{count} Pareto point(s) is estimated at "
                    f"{fastest:g} ms",
                    objective=objective,
                    frontier=tuple((e.cost, e.latency) for e in front),
                )
            chosen = min(feasible, key=lambda e: (e.cost, e.latency))
            return chosen, (
                f"cheapest of {len(feasible)}/{count} Pareto point(s) "
                f"within {bound:g} ms"
            )
        if objective.kind == "latency_under_dollars":
            bound = objective.dollar_bound
            feasible = [e for e in front if e.cost <= bound]
            if not feasible:
                cheapest = min(e.cost for e in front)
                raise InfeasibleObjectiveError(
                    f"no plan fits under ${bound:g}: the cheapest of "
                    f"{count} Pareto point(s) is estimated at "
                    f"${cheapest:g}",
                    objective=objective,
                    frontier=tuple((e.cost, e.latency) for e in front),
                )
            chosen = min(feasible, key=lambda e: (e.latency, e.cost))
            return chosen, (
                f"fastest of {len(feasible)}/{count} Pareto point(s) "
                f"under ${bound:g}"
            )
        weight_dollars = objective.dollar_weight
        weight_latency = objective.latency_weight_per_ms
        chosen = min(
            front,
            key=lambda e: (
                weight_dollars * e.cost + weight_latency * e.latency,
                e.cost,
                e.latency,
            ),
        )
        return chosen, (
            f"best {objective.describe()} score over {count} Pareto point(s)"
        )

    # ----------------------------------------------------------- access costing

    def _extension_candidates(
        self, left: _SubPlan | None, table: str
    ) -> list[_SubPlan]:
        """All ways to add ``table`` to the current left subtree."""
        accesses: list[tuple[_SubPlan, bool]] = []
        if self._standalone_feasible(table):
            accesses.append((self._direct_access(table), False))
        if left is not None:
            (
                own, rewrite, region_rows, uncovered, options
            ) = self._bind_options(table)
            left_relations, left_rows = left.relations, left.rows
            most_bindings = max(left_rows, 1.0)
            for (
                outers, distincts, columns, rows_per_binding, call_price,
                call_ms,
            ) in options:
                if not outers <= left_relations:
                    continue
                # One call per distinct binding combination.
                bindings = 1.0
                for outer_distinct in distincts:
                    bindings *= max(min(outer_distinct, left_rows), 1.0)
                bindings = min(bindings, most_bindings)
                # One REST call per uncovered binding combination, each
                # at ``call_price`` and taking ``call_ms``.
                access = _SubPlan(
                    own,
                    bindings * uncovered * call_price,
                    min(rows_per_binding * bindings, region_rows),
                    bindings * uncovered * call_ms,
                    build=partial(_bind_node, table, rewrite, columns, bindings),
                )
                accesses.append((access, True))
        self._count_accesses(table, len(accesses))
        return self._attach(left, table, accesses)

    def _count_accesses(self, table: str, count: int) -> None:
        """Tick the candidate and Figure-15 box counters: once per costed
        access, memoized or not."""
        if count:
            rewrite = self._rewrite(table)
            self._evaluated += count
            self._enumerated_boxes += count * rewrite.enumerated_boxes
            self._kept_boxes += count * rewrite.kept_boxes

    def _attach(
        self,
        left: _SubPlan | None,
        table: str,
        accesses: list[tuple[_SubPlan, bool]],
    ) -> list[_SubPlan]:
        """``left`` joined with each ``(access to table, is bind join)`` on
        every predicate between them; the accesses alone without a left."""
        if left is None or not accesses:
            return [access for access, __ in accesses]
        left_relations = left.relations
        applicable = [
            edge
            for edge in self._join_index().edges[table.lower()]
            if edge[0] in left_relations
        ]
        predicates = tuple(join for __, join, __ in applicable)
        divisors = [divisor for __, __, divisor in applicable]
        relations = left_relations | accesses[0][0].relations
        left_cost, left_rows, left_latency = left.cost, left.rows, left.latency
        candidates = []
        for access, bind in accesses:
            rows = left_rows * access.rows
            for divisor in divisors:
                rows /= divisor
            candidates.append(
                _SubPlan(
                    relations,
                    left_cost + access.cost,
                    rows,
                    left_latency + access.latency,
                    build=partial(_join_node, left, access, predicates, bind),
                )
            )
        return candidates

    def _direct_access(self, table: str) -> _SubPlan:
        # The access is a pure function of the table (given the query and
        # store state), so one node is shared by every candidate that
        # embeds it; plans never mutate their nodes.
        key = table.lower()
        access = self._memo_direct.get(key)
        if access is None:
            rewrite = self._rewrite(table)
            access = self._memo_direct[key] = _leaf(
                MarketAccessNode(
                    relations=frozenset([key]),
                    cost=rewrite.estimated_price,
                    estimated_rows=self._region_rows(table),
                    latency_ms=self._access_latency(rewrite),
                    table=table,
                    rewrite=rewrite,
                )
            )
        return access

    def _region_rows(self, table: str) -> float:
        """Histogram estimate of the table's whole request region (memoized).

        An adaptive-replan overlay takes precedence: the executor has
        *seen* the region's exact row count, so the shared estimate is
        no longer the best truth for this one planning call.
        """
        key = table.lower()
        rows = self._memo_region_rows.get(key)
        if rows is None:
            if self._overlay is not None:
                observed = self._overlay.region_rows(table)
                if observed is not None:
                    self._memo_region_rows[key] = observed
                    return observed
            rewrite = self._rewrite(table)
            histogram = self.context.catalog.statistics(table).histogram
            rows = sum(
                histogram.estimate(box) for box in rewrite.request_boxes
            )
            self._memo_region_rows[key] = rows
        return rows

    def _bind_options(self, table: str) -> tuple:
        """Everything a bind-join access to ``table`` costs that does not
        depend on the left side (memoized).

        ``(relation set, rewrite, region rows, uncovered fraction,
        options)``: the first four are table-wide (``None`` without
        options); ``options`` has one ``(outer tables, outer distinct
        counts, bound columns, rows per binding, price per call, ms per
        call)`` per feasible combination of at most
        ``max_bind_attrs`` bindable incident joins, in ``combinations``
        order — the order candidates are considered in, hence part of
        how ties resolve.
        """
        key = table.lower()
        cached = self._memo_binds.get(key)
        if cached is not None:
            return cached
        space = self._space(table)
        bindable = []
        for other, join, __ in self._join_index().edges[key]:
            inner = join.side_for(table)
            # A bind join can only bind a constrainable (dimension) attribute.
            if space.has_dimension(inner.column):
                bindable.append((other, join.other_side(table), inner.column))
        feasible = []
        for r in range(1, min(self.options.max_bind_attrs, len(bindable)) + 1):
            for combination in combinations(bindable, r):
                columns = tuple(column for __, __, column in combination)
                if len(set(columns)) == r and self._feasible(table, columns):
                    feasible.append((combination, columns))
        own = rewrite = region_rows = uncovered = None
        options = []
        if feasible:
            pricing = self.context.pricing(table)
            rewrite = self._rewrite(table)
            region_rows = self._region_rows(table)
            if self.options.use_sqr and region_rows > 0:
                uncovered = rewrite.estimated_remainder_rows / region_rows
                uncovered = min(max(uncovered, 0.0), 1.0)
            elif self.options.use_sqr:
                uncovered = 0.0
            else:
                uncovered = 1.0
            own = frozenset([key])
            for combination, columns in feasible:
                selectivity = 1.0
                for column in columns:
                    selectivity /= max(
                        self._attribute_domain_size(table, column), 1.0
                    )
                rows_per_binding = region_rows * selectivity
                options.append((
                    frozenset(other for other, __, __ in combination),
                    [
                        self._base_distinct(outer.table, outer.column)
                        for __, outer, __ in combination
                    ],
                    columns,
                    rows_per_binding,
                    pricing.price_for(rows_per_binding),
                    self._latency_model.call_ms(
                        pricing.transactions_for(rows_per_binding)
                    ),
                ))
        cached = self._memo_binds[key] = (
            own, rewrite, region_rows, uncovered, options
        )
        return cached

    def _access_latency(self, rewrite: RewriteResult) -> float:
        """Estimated serial wall-clock of a direct access's remainder calls."""
        model = self._latency_model
        return sum(
            model.call_ms(query.estimated_transactions)
            for query in rewrite.remainder
        )

    def _rewrite(self, table: str) -> RewriteResult:
        """Rewrite a table access for costing (memoized per optimize()).

        The per-call memo is safe because planning never mutates the
        store: within one ``optimize()`` every probe of a table returns
        the same result.  The rewriter's own epoch-keyed memo still
        guards reuse *across* queries — it can never serve a result
        computed before a store mutation.
        """
        key = table.lower()
        cached = self._memo_rewrite.get(key)
        if cached is not None:
            return cached
        rewriter = self.context.rewriter
        previous = rewriter.enabled
        rewriter.enabled = previous and self.options.use_sqr
        try:
            result = rewriter.rewrite(
                table,
                self._query.constraints_for(table),
                self.context.pricing(table),
            )
        finally:
            rewriter.enabled = previous
        self._memo_rewrite[key] = result
        return result

    # ------------------------------------------------------------- feasibility

    def _space(self, table: str) -> BoxSpace:
        return self.context.catalog.statistics(table).space

    def _constrained_attributes(self, table: str) -> set[str]:
        return {
            c.attribute.lower() for c in self._query.constraints_for(table)
        }

    def _standalone_feasible(self, table: str) -> bool:
        """All bound dimensions are constrained by the query itself."""
        key = table.lower()
        cached = self._memo_standalone.get(key)
        if cached is None:
            cached = self._memo_standalone[key] = self._feasible(table)
        return cached

    def _feasible(self, table: str, bound_columns: tuple[str, ...] = ()) -> bool:
        """Every bound dimension is constrained by the query or receives
        a binding through ``bound_columns``."""
        constrained = self._constrained_attributes(table)
        constrained.update(column.lower() for column in bound_columns)
        return all(
            not dimension.is_bound or dimension.attribute.lower() in constrained
            for dimension in self._space(table).dimensions
        )

    # ----------------------------------------------------------------- statistics

    def _base_distinct(self, table: str, column: str) -> float:
        key = (table.lower(), column.lower())
        cached = self._memo_distinct.get(key)
        if cached is not None:
            return cached
        if self._overlay is not None:
            observed = self._overlay.distinct(table, column)
            if observed is not None:
                self._memo_distinct[key] = observed
                return observed
        if self.context.is_market(table):
            statistics = self.context.catalog.statistics(table)
            space = statistics.space
            index = space.dimension_index(column)
            if index is None:
                distinct = float(statistics.cardinality)
            else:
                dimension = space.dimensions[index]
                distinct = float(
                    min(dimension.high - dimension.low, statistics.cardinality)
                )
        else:
            distinct = float(self.context.local_info(table).distinct_of(column))
        self._memo_distinct[key] = distinct
        return distinct

    def _attribute_domain_size(self, table: str, column: str) -> float:
        statistics = self.context.catalog.statistics(table)
        index = statistics.space.dimension_index(column)
        if index is None:
            return float(statistics.cardinality)
        dimension = statistics.space.dimensions[index]
        return float(dimension.high - dimension.low)

    def _local_filtered_count(self, table: str) -> float:
        """Exact matching-row count of a local table (local data is free)."""
        data = self.context.local_db.table(table)
        predicates = [
            c.to_expression(table) for c in self._query.constraints_for(table)
        ]
        predicates.extend(self._query.residuals_for(table))
        if not predicates:
            return float(len(data))
        from repro.relational.operators import filter_rows, scan

        return float(len(filter_rows(scan(data, alias=table), conjunction(predicates)).rows))

    # --------------------------------------------------------- bushy enumeration

    def _optimize_bushy(
        self,
        query: LogicalQuery,
        market_tables: list[str],
        local_tables: list[str],
    ) -> PlanningResult:
        """Exhaustive bushy enumeration — the "Disable All" arm of Figure 14.

        Every relation (local or market) is a base unit; every subset is
        planned by trying all (left, right) splits with local joins and all
        left-deep-style bind extensions.  No Theorem 1/2/3 shortcuts; the
        instrumentation counts every candidate plan formed.
        """
        units: dict[str, _SubPlan] = {}
        for table in local_tables:
            units[table.lower()] = _leaf(
                LocalBlockNode(
                    relations=frozenset([table.lower()]),
                    cost=0.0,
                    estimated_rows=self._local_filtered_count(table),
                    tables=(table,),
                )
            )
        feasible_market: dict[str, _SubPlan] = {}
        for table in market_tables:
            if self._standalone_feasible(table):
                feasible_market[table.lower()] = self._direct_access(table)
                self._count_accesses(table, 1)

        all_tables = sorted(
            [t.lower() for t in query.tables]
        )
        by_name = {t.lower(): t for t in query.tables}
        joins = self._join_index().joins
        # min_dollars only (checked by the caller): one comparison axis,
        # so every frontier below holds exactly one subplan.
        best: dict[frozenset[str], list[_SubPlan]] = {}
        for key, subplan in units.items():
            best[frozenset([key])] = [subplan]
        for key, subplan in feasible_market.items():
            self._consider(best, frozenset([key]), subplan)

        for size in range(2, len(all_tables) + 1):
            for subset_names in combinations(all_tables, size):
                subset = frozenset(subset_names)
                # (i) all binary splits joined locally (bushy shape).
                for r in range(1, size):
                    for left_names in combinations(sorted(subset), r):
                        left_set = frozenset(left_names)
                        right_set = subset - left_set
                        lefts = best.get(left_set)
                        rights = best.get(right_set)
                        if not lefts or not rights:
                            continue
                        (left,), (right,) = lefts, rights
                        self._evaluated += 1
                        rows = left.rows * right.rows
                        predicates = []
                        for left_t, right_t, join, divisor in joins:
                            if (left_t in left_set and right_t in right_set) or (
                                left_t in right_set and right_t in left_set
                            ):
                                predicates.append(join)
                                rows /= divisor
                        self._consider(
                            best,
                            subset,
                            _SubPlan(
                                subset,
                                left.cost + right.cost,
                                rows,
                                left.latency + right.latency,
                                build=partial(
                                    _join_node, left, right,
                                    tuple(predicates), False,
                                ),
                            ),
                        )
                # (ii) bind extensions: left subtree + one bound market table.
                # Reverse-sorted, like the left-deep loop: first-seen wins
                # cost ties, so frozenset order would make the chosen plan
                # depend on PYTHONHASHSEED.
                for table_key in sorted(subset, reverse=True):
                    table = by_name[table_key]
                    if not self.context.is_market(table):
                        continue
                    lefts = best.get(subset - {table_key})
                    if not lefts:
                        continue
                    (left,) = lefts
                    for candidate in self._extension_candidates(left, table):
                        self._consider(best, subset, candidate)

        key = frozenset(all_tables)
        if key not in best:
            raise PlanningError("no feasible bushy plan")
        return self._result(best[key])


# ------------------------------------------------------------------ formulas


def plan_space_baseline(
    n: int, tightened: bool = True, *, enumerated: bool = True
) -> int:
    """Candidate count of the bushy enumerator for an all-market chain query.

    The default is the **exact** number of candidate plans
    ``Optimizer(use_theorems=False)`` evaluates for a chain
    of ``n`` market tables with nothing covered (the topology the tests
    and ``bench_planner`` generate: table *i* shares one join attribute
    with table *i+1*, every attribute free): ``n`` feasible base accesses,
    plus per subset of size ``k`` every binary split (``2^k − 2``,
    memoized best-per-side) and every extension — one direct access per
    member plus ``j + C(j,2)`` bind combinations for a member with ``j``
    chain neighbours present.

    ``enumerated=False`` returns the paper's Section 4.1 closed form
    instead, which counts the un-memoized plan space:
    ``n + Σ_k C(n,k) · Σ_i C(k,i) · 4^min(i,k-i)``; its looser
    ``tightened=False`` variant (exponent ``k−i``) has the headline
    ``6^n − 5^n`` leading term.  ``tightened`` only affects the paper
    form.
    """
    if not enumerated:
        total = n
        for k in range(2, n + 1):
            inner = 0
            for i in range(1, k):
                exponent = min(i, k - i) if tightened else k - i
                inner += math.comb(k, i) * 4 ** exponent
            total += math.comb(n, k) * inner
        return total
    total = n  # level 1: one direct access per (feasible) market table
    for k in range(2, n + 1):
        # Every subset of size k gets all 2^k − 2 binary splits plus one
        # direct-access extension per member.
        total += math.comb(n, k) * (2 ** k - 2 + k)
        # Bind extensions: a member with j chain neighbours present in the
        # rest contributes C(j,1) + C(j,2) bind combinations (j <= 2).
        if n >= 3:
            both = (n - 2) * math.comb(n - 3, k - 3) if k >= 3 else 0
            one_interior = 2 * (n - 2) * math.comb(n - 3, k - 2)
            one_endpoint = 2 * math.comb(n - 2, k - 2)
            total += 3 * both + one_interior + one_endpoint
        elif n == 2:
            # Two tables: each extension has its single neighbour present.
            total += 2
    return total


def plan_space_payless(
    n: int, zero_price: int = 0, *, enumerated: bool = True
) -> int:
    """Candidate count with Theorems 1-3 for a chain query.

    The default is the **exact** number of candidate plans ``Optimizer``
    evaluates for a chain of ``n`` market tables whose first
    ``zero_price`` tables the store fully covers (so Theorem 2 folds
    them into the local block).  With ``n' = n − m``
    priced tables left: level 1 contributes one direct access each plus a
    block bind join for the table adjacent to the block; a connected
    interval of size ``k`` contributes ``4k − 4`` candidates (``4k − 2``
    when anchored at the block); each disconnected subset with all its
    components planned contributes one Theorem-3 combination.

    ``enumerated=False`` returns the previous closed-form approximation
    ``4n' + Σ_k (4·k·(n'-k+1) + (C(n',k) − (n'-k+1)))`` ≈ 2^n' + (2/3)n'³.
    """
    reduced = n - zero_price
    if not enumerated:
        if reduced <= 0:
            return 1
        total = 4 * reduced
        for k in range(2, reduced + 1):
            connected = reduced - k + 1
            disconnected = math.comb(reduced, k) - connected
            total += 4 * k * connected + disconnected
        return total
    if reduced <= 0:
        return 0  # the zero-price block is the plan; nothing is enumerated
    block = zero_price >= 1
    total = reduced + (1 if block else 0)
    for k in range(2, reduced + 1):
        intervals = reduced - k + 1
        if block:
            # The interval anchored at the block gains the block bind join.
            total += (intervals - 1) * (4 * k - 4) + (4 * k - 2)
        else:
            total += intervals * (4 * k - 4)
        total += math.comb(reduced, k) - intervals
    return total
