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
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product
from operator import attrgetter

from repro.core.context import PlanningContext
from repro.core.objectives import MIN_DOLLARS, PlanObjective
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
    """A kept candidate's vector — relation mask (bits of
    :attr:`_JoinIndex.names`), cost, rows, latency.

    Most candidates are rejected before one of these exists, and the plan
    tree is not built with it either: ``build(subplan)`` constructs it on
    the first read of ``node``.
    """

    __slots__ = ("mask", "cost", "rows", "latency", "_node", "_build")

    def __init__(self, mask, cost, rows, latency=0.0, node=None, build=None):
        self.mask: int = mask
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


def _join_node(index, left, right, bind, plan: _SubPlan) -> JoinNode:
    """``left`` joined with ``right`` (a subplan, or a function making the
    node) on every predicate between them, in query order."""
    right_mask = plan.mask & ~left.mask
    predicates = tuple(
        join
        for one, other, join, __ in index.joins
        if (one & left.mask and other & right_mask)
        or (one & right_mask and other & left.mask)
    )
    return JoinNode(
        relations=frozenset(index.tables(plan.mask)),
        cost=plan.cost,
        estimated_rows=plan.rows,
        latency_ms=plan.latency,
        left=left.node,
        right=right.node if isinstance(right, _SubPlan) else right(),
        predicates=predicates,
        bind=bind,
        cartesian=not predicates,
    )


def _product_node(parts: list[_SubPlan], plan: _SubPlan) -> PlanNode:
    """Theorem 3: the Cartesian product of ``parts`` in order, each step's
    vector accumulated as the DP costed it."""
    first = parts[0]
    node, cost, rows, latency = first.node, first.cost, first.rows, first.latency
    for part in parts[1:]:
        cost += part.cost
        rows *= part.rows
        latency += part.latency
        node = JoinNode(
            relations=node.relations | part.node.relations,
            cost=cost,
            estimated_rows=rows,
            latency_ms=latency,
            left=node,
            right=part.node,
            cartesian=True,
        )
    return node


def _first(frontiers, key, cost, latency) -> list[_SubPlan] | None:
    """Admission that keeps the first candidate only."""
    return None if key in frontiers else frontiers.setdefault(key, [])


_COST = attrgetter("cost")


@dataclass
class _JoinIndex:
    """``query.joins`` resolved once per planning call, over relation masks:
    bit ``i`` of a mask is ``names[i]``."""

    #: The query's lower-cased table names, sorted, and each one's bit.
    names: list[str]
    bits: dict[str, int]
    #: ``(left bit, right bit, predicate, row divisor)`` in query order;
    #: the divisor is ``max(d_left, d_right, 1.0)``.
    joins: list[tuple[int, int, JoinPredicate, float]]
    #: Per table bit: its incident joins as ``(other bit, predicate,
    #: divisor)`` in query order, and the mask of the tables they reach.
    edges: dict[int, list[tuple[int, JoinPredicate, float]]]
    adjacency: dict[int, int]
    #: Per table bit: its access recipe, made on the table's first use.
    recipes: dict[int, _Recipe] = field(default_factory=dict)

    def mask(self, relations) -> int:
        return sum(map(self.bits.__getitem__, relations))

    def tables(self, mask: int) -> list[str]:
        """The names in ``mask``, sorted."""
        return [name for i, name in enumerate(self.names) if mask >> i & 1]


@dataclass(slots=True)
class _Recipe:
    """What adding one table to a left-deep subplan costs that no left side
    changes, made on the table's first extension.

    ``direct`` is the shared direct-access leaf (``None`` when the query
    does not constrain every bound dimension).  ``binds`` stays ``None``
    until a left side first asks: ``(outer mask, outer distinct counts,
    bound columns, rows per binding, price per call, ms per call)`` per
    feasible combination of at most ``max_bind_attrs`` bindable incident
    joins, in ``combinations`` order — the order candidates are considered
    in, hence part of how ties resolve.
    """

    table: str
    bit: int
    relations: frozenset[str]
    edges: list[tuple[int, JoinPredicate, float]]
    direct: _SubPlan | None
    #: Set once the table is rewritten (for a direct or a bind access).
    rewrite: RewriteResult | None
    binds: list[tuple] | None = None
    region_rows: float = 0.0
    uncovered: float = 0.0

    def rows(self, left: _SubPlan, access_rows: float) -> float:
        """Join cardinality: ``left.rows · access_rows``, then one division
        per join to ``left`` in query order."""
        rows = left.rows * access_rows
        for other, __, divisor in self.edges:
            if other & left.mask:
                rows /= divisor
        return rows


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

    Every knob is read off ``context.options``; ``objective`` is one
    call's choice from the Pareto frontier, the options' own by default.
    """

    def __init__(
        self, context: PlanningContext, objective: PlanObjective | None = None
    ):
        self.context = context
        self.options = context.options
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
        self._memo_region_rows: dict[str, float] = {}
        self._memo_standalone: dict[str, bool] = {}
        self._memo_distinct: dict[tuple[str, str], float] = {}
        #: The masks, divisors and access recipes: built on first use, not
        #: here — ``optimize_suffix`` installs its overlay after ``_reset``
        #: and the divisors read it.
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
            return self._optimize_bushy(market_tables, local_tables)

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
        index = self._join_index()
        prefix_mask = index.mask(prefix.relations)
        through = self._through(prefix_mask)
        components: list[int] = []
        for bit in sorted(index.bits[t.lower()] for t in remaining):
            components = self._components_with(components, bit, through)
        if len(components) > 1:
            # Join-disconnected remainders would re-enter Theorem-3
            # composition, which could only duplicate the prefix leaf.
            # Rare (the static planner already ordered the query); keep
            # the original plan instead.
            return None
        seed = _SubPlan(
            prefix_mask, 0.0, max(prefix.estimated_rows, 0.0), node=prefix
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

        Each old step is matched to the first freshly-costed extension
        candidate with the same access shape (same table, same bound
        attributes); a step with none (the store state can narrow
        feasibility between plan and re-plan) re-attaches its stamped
        access node as-is.
        """
        current = seed
        for step in old_steps:
            access = step.right
            if not isinstance(access, MarketAccessNode):
                continue
            recipe = self._recipe(access.table)
            key = current.mask | recipe.bit
            match: dict[int, list[_SubPlan]] = {}
            self._extend(match, key, current, recipe, access.bind_attributes)
            current = match[key][0] if match else _SubPlan(
                key, current.cost + access.cost,
                recipe.rows(current, access.estimated_rows),
                current.latency + access.latency_ms,
            )
        return current.cost

    # ---------------------------------------------------------------- theorems

    def _is_zero_price(self, table: str) -> bool:
        """Theorem 2 candidates: covered market relations are free."""
        if not (
            self.context.store.policy.rewriting_enabled
            and self._standalone_feasible(table)
        ):
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
            rows *= max(self._region_rows(table), 0.0)
        # Apply join selectivities for predicates internal to the block.
        index = self._join_index()
        lowered = frozenset(t.lower() for t in tables)
        mask = index.mask(lowered)
        for left_bit, right_bit, __, divisor in index.joins:
            if left_bit & mask and right_bit & mask:
                rows /= divisor
        node = LocalBlockNode(
            relations=lowered,
            cost=0.0,
            estimated_rows=rows,
            tables=tuple(tables),
            covered_market_tables=tuple(zero_market),
        )
        return _SubPlan(mask, 0.0, rows, node=node)

    def _join_index(self) -> _JoinIndex:
        """The query's join graph over relation masks, resolved on first
        use: the hot loops then test bits and divide by ready-made
        divisors."""
        index = self._index
        if index is None:
            names = sorted({t.lower() for t in self._query.tables})
            bits = {name: 1 << i for i, name in enumerate(names)}
            joins = []
            edges = {bit: [] for bit in bits.values()}
            adjacency = dict.fromkeys(edges, 0)
            for join in self._query.joins:
                left, right = join.left, join.right
                left_bit = bits[left.table.lower()]
                right_bit = bits[right.table.lower()]
                divisor = max(
                    self._base_distinct(left.table, left.column),
                    self._base_distinct(right.table, right.column),
                    1.0,
                )
                joins.append((left_bit, right_bit, join, divisor))
                edges[left_bit].append((right_bit, join, divisor))
                edges[right_bit].append((left_bit, join, divisor))
                adjacency[left_bit] |= right_bit
                adjacency[right_bit] |= left_bit
            index = self._index = _JoinIndex(
                names, bits, joins, edges, adjacency
            )
        return index

    def _through(self, block_mask: int) -> int:
        """The tables joined to the zero-price block (or prefix)."""
        return sum(
            bit
            for bit, adjacent in self._join_index().adjacency.items()
            if adjacent & block_mask
        )

    def _components_with(
        self, components: list[int], bit: int, through: int
    ) -> list[int]:
        """Theorem 3: the connected components of a relation set plus
        ``bit`` (above every member), from the set's own ``components``.
        Tables joined to the zero-price block (``through``) are connected
        *through* it.  Components stay in order of their lowest bit — their
        smallest name — so compositions nest the same way in every process.
        """
        reach = self._index.adjacency[bit]
        if bit & through:
            reach |= through
        merged, kept, at = bit, [], None
        for component in components:
            if component & reach:
                merged |= component
                if at is None:
                    at = len(kept)
            else:
                kept.append(component)
        kept.insert(len(kept) if at is None else at, merged)
        return kept

    # ------------------------------------------------------------------- the DP
    #
    # One bottom-up left-deep enumeration.  Each subset keeps the frontier
    # of its subplans on the objective's comparison axes: (money, latency)
    # vectors in general, money alone for min_dollars — where the frontier
    # degenerates to the single cheapest subplan of the paper's DP.
    #
    # A relation set is an int mask over the query's sorted table names.  A
    # candidate is bare floats, costed in a fixed operation order and tested
    # against its subset's frontier before anything is allocated.

    def _frontier_program(
        self, priced: list[str], block: _SubPlan | None
    ) -> list[_SubPlan]:
        """Run the DP from ``block`` (the Theorem-2 leaf, or a materialized
        prefix); return the frontier entries covering all of ``priced`` —
        empty when no plan is feasible.  Frontiers are keyed by masks of
        priced tables; a subplan's own mask also holds the block's."""
        frontiers: dict[int, list[_SubPlan]] = {}
        through = self._through(block.mask) if block is not None else 0

        # Level 1.
        recipes = {}
        for table in priced:
            recipe = self._recipe(table)
            recipes[recipe.bit] = recipe
            self._extend(frontiers, recipe.bit, block, recipe)

        # Levels 2..n in ``combinations`` order of the sorted names; a
        # subset's components come from those of it minus its highest bit.
        bits = sorted(recipes)
        components = {bit: [bit] for bit in bits}
        for size in range(2, len(bits) + 1):
            for combo in combinations(bits, size):
                subset = sum(combo)
                highest = combo[-1]
                parts = components[subset] = self._components_with(
                    components[subset ^ highest], highest, through
                )
                if len(parts) > 1:
                    self._compose(frontiers, subset, parts)
                    continue
                # On ties the first-seen candidate wins, so iteration
                # order IS plan choice: highest bit first (largest table
                # added last) canonicalizes ties to the join order that
                # reads in table-name order.
                for bit in reversed(combo):
                    lefts = frontiers.get(subset ^ bit)
                    if not lefts:
                        continue
                    recipe = recipes[bit]
                    for left in lefts:
                        self._extend(frontiers, subset, left, recipe)
        return frontiers.get(sum(bits), [])

    def _admit(
        self,
        frontiers: dict[int, list[_SubPlan]],
        key: int,
        cost: float,
        latency: float,
    ) -> list[_SubPlan] | None:
        """Test a candidate's vector against ``key``'s frontier: the list to
        append the accepted candidate to, or ``None`` when it is rejected."""
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
            attrs = {"tables": self._index.tables(key), "cost": cost}
            if not one_axis:
                attrs["latency_ms"] = latency
            self.context.tracer.event(
                "plan_candidate", **attrs, accepted=accepted
            )
        if not accepted:
            self._pruned += 1
            return None
        if entries is None:
            entries = frontiers[key] = []
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
        return entries

    def _compose(
        self,
        frontiers: dict[int, list[_SubPlan]],
        key: int,
        components: list[int],
    ) -> None:
        """Theorem 3 composition: Best(C1) × Best(C2) × ..., one candidate
        per combination of the components' frontier entries, its parts
        Cartesian-joined most expensive first."""
        parts = []
        for component in components:
            entries = frontiers.get(component)
            if not entries:
                return
            parts.append(entries)
        for combination in product(*parts):
            ordered = sorted(combination, key=_COST, reverse=True)
            cost, latency = ordered[0].cost, ordered[0].latency
            for part in ordered[1:]:
                cost += part.cost
                latency += part.latency
            self._evaluated += 1
            entries = self._admit(frontiers, key, cost, latency)
            if entries is not None:
                mask, rows = ordered[0].mask, ordered[0].rows
                for part in ordered[1:]:
                    mask |= part.mask
                    rows *= part.rows
                entries.append(_SubPlan(
                    mask, cost, rows, latency,
                    build=partial(_product_node, ordered),
                ))

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

    def _recipe(self, table: str) -> _Recipe:
        """``table``'s access recipe, made on first use with the probes a
        first extension always makes: standalone feasibility and, when
        feasible, the direct access (hence a rewrite)."""
        index = self._join_index()
        bit = index.bits[table.lower()]
        recipe = index.recipes.get(bit)
        if recipe is None:
            direct = rewrite = None
            relations = frozenset([table.lower()])
            if self._standalone_feasible(table):
                # A pure function of the table (given the query and store
                # state), so one node is shared by every candidate that
                # embeds it; plans never mutate their nodes.
                rewrite = self._rewrite(table)
                node = MarketAccessNode(
                    relations=relations,
                    cost=rewrite.estimated_price,
                    estimated_rows=self._region_rows(table),
                    latency_ms=self._access_latency(rewrite),
                    table=table,
                    rewrite=rewrite,
                )
                direct = _SubPlan(
                    bit, node.cost, node.estimated_rows, node.latency_ms, node
                )
            recipe = index.recipes[bit] = _Recipe(
                table, bit, relations, index.edges[bit], direct, rewrite
            )
        return recipe

    def _extend(
        self,
        frontiers: dict[int, list[_SubPlan]],
        key: int,
        left: _SubPlan | None,
        recipe: _Recipe,
        shape: tuple[str, ...] | None = None,
    ) -> None:
        """Add ``recipe``'s table to ``left`` (or start with it) every way
        it can be accessed — directly, then by each applicable bind
        combination — keeping what ``key``'s frontier admits.  Cost and
        latency are admitted before anything is allocated; rows and the
        deferred node come with acceptance.  With ``shape`` (bound columns,
        ``()`` for direct) only the first candidate of that access shape is
        kept, unconditionally and untraced: an old plan's step re-priced.
        """
        admit = self._admit if shape is None else _first
        index, direct, count = self._index, recipe.direct, 0
        if direct is not None and not shape:
            count = 1
            cost, latency = direct.cost, direct.latency
            if left is not None:
                cost, latency = left.cost + cost, left.latency + latency
            entries = admit(frontiers, key, cost, latency)
            if entries is not None:
                entries.append(direct if left is None else _SubPlan(
                    left.mask | recipe.bit, cost,
                    recipe.rows(left, direct.rows), latency,
                    build=partial(_join_node, index, left, direct, False),
                ))
        if left is not None:
            binds = recipe.binds
            if binds is None:
                binds = self._bind_options(recipe)
            mask, left_rows = left.mask, left.rows
            left_cost, left_latency = left.cost, left.latency
            most_bindings = max(left_rows, 1.0)
            uncovered = recipe.uncovered
            for option in binds:
                outers, distincts, columns, per_binding, price, ms = option
                if outers & ~mask or (shape is not None and columns != shape):
                    continue
                count += 1
                # One call per distinct binding combination.
                bindings = 1.0
                for outer_distinct in distincts:
                    bindings *= max(min(outer_distinct, left_rows), 1.0)
                bindings = min(bindings, most_bindings)
                # One REST call per uncovered binding combination, each
                # at ``price`` dollars and taking ``ms``.
                access_cost = bindings * uncovered * price
                access_latency = bindings * uncovered * ms
                cost = left_cost + access_cost
                latency = left_latency + access_latency
                entries = admit(frontiers, key, cost, latency)
                if entries is not None:
                    rows = min(per_binding * bindings, recipe.region_rows)
                    access = partial(
                        MarketAccessNode, relations=recipe.relations,
                        cost=access_cost, estimated_rows=rows,
                        latency_ms=access_latency, table=recipe.table,
                        rewrite=recipe.rewrite, bind_attributes=columns,
                        estimated_bindings=bindings,
                    )
                    entries.append(_SubPlan(
                        mask | recipe.bit, cost, recipe.rows(left, rows),
                        latency,
                        build=partial(_join_node, index, left, access, True),
                    ))
        if count:  # candidates and Figure-15 boxes, once per costed access
            rewrite = recipe.rewrite
            self._evaluated += count
            self._enumerated_boxes += count * rewrite.enumerated_boxes
            self._kept_boxes += count * rewrite.kept_boxes

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

    def _bind_options(self, recipe: _Recipe) -> list[tuple]:
        """Fill in ``recipe.binds`` (see :class:`_Recipe`) and the
        table-wide region rows and uncovered fraction they are priced
        with."""
        table = recipe.table
        space = self._space(table)
        bindable = []
        for other, join, __ in recipe.edges:
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
        options = recipe.binds = []
        if feasible:
            pricing = self.context.pricing(table)
            rewrite = recipe.rewrite = self._rewrite(table)
            region_rows = recipe.region_rows = self._region_rows(table)
            if not self.context.store.policy.rewriting_enabled:
                uncovered = 1.0
            elif region_rows > 0:
                uncovered = rewrite.estimated_remainder_rows / region_rows
                uncovered = min(max(uncovered, 0.0), 1.0)
            else:
                uncovered = 0.0
            recipe.uncovered = uncovered
            for combination, columns in feasible:
                selectivity = 1.0
                for column in columns:
                    selectivity /= max(
                        self._attribute_domain_size(table, column), 1.0
                    )
                rows_per_binding = region_rows * selectivity
                outers = 0
                for other, __, __ in combination:
                    outers |= other
                options.append((
                    outers,
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
        return options

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
        result = self._memo_rewrite[key] = self.context.rewriter.rewrite(
            table,
            self._query.constraints_for(table),
            self.context.pricing(table),
        )
        return result

    # ------------------------------------------------------------- feasibility

    def _space(self, table: str) -> BoxSpace:
        return self.context.catalog.statistics(table).space

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
        constrained = {
            c.attribute.lower() for c in self._query.constraints_for(table)
        }
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
        self, market_tables: list[str], local_tables: list[str]
    ) -> PlanningResult:
        """Exhaustive bushy enumeration — the "Disable All" arm of Figure 14.

        Every relation (local or market) is a base unit; every subset is
        planned by trying all (left, right) splits with local joins and all
        left-deep-style bind extensions.  No Theorem 1/2/3 shortcuts; the
        instrumentation counts every candidate plan formed.
        """
        index = self._join_index()
        # min_dollars only (checked by the caller): one comparison axis,
        # so every frontier below holds exactly one subplan.
        best: dict[int, list[_SubPlan]] = {}
        for table in local_tables:
            node = LocalBlockNode(
                relations=frozenset([table.lower()]),
                cost=0.0,
                estimated_rows=self._local_filtered_count(table),
                tables=(table,),
            )
            bit = index.bits[table.lower()]
            best[bit] = [_SubPlan(bit, 0.0, node.estimated_rows, node=node)]
        recipes = {}
        for table in market_tables:
            recipe = self._recipe(table)
            recipes[recipe.bit] = recipe
            self._extend(best, recipe.bit, None, recipe)

        bits = sorted(index.bits.values())
        for size in range(2, len(bits) + 1):
            for combo in combinations(bits, size):
                subset = sum(combo)
                # (i) all binary splits joined locally (bushy shape).
                for r in range(1, size):
                    for left_combo in combinations(combo, r):
                        left_mask = sum(left_combo)
                        right_mask = subset ^ left_mask
                        lefts = best.get(left_mask)
                        rights = best.get(right_mask)
                        if not lefts or not rights:
                            continue
                        (left,), (right,) = lefts, rights
                        self._evaluated += 1
                        cost = left.cost + right.cost
                        latency = left.latency + right.latency
                        entries = self._admit(best, subset, cost, latency)
                        if entries is None:
                            continue
                        rows = left.rows * right.rows
                        for one, other, __, divisor in index.joins:
                            if (one & left_mask and other & right_mask) or (
                                one & right_mask and other & left_mask
                            ):
                                rows /= divisor
                        entries.append(_SubPlan(
                            subset, cost, rows, latency,
                            build=partial(_join_node, index, left, right, False),
                        ))
                # (ii) bind extensions: left subtree + one bound market
                # table, highest bit first like the left-deep loop.
                for bit in reversed(combo):
                    recipe = recipes.get(bit)
                    lefts = best.get(subset ^ bit)
                    if recipe is None or not lefts:
                        continue
                    (left,) = lefts
                    self._extend(best, subset, left, recipe)

        key = sum(bits)
        if key not in best:
            raise PlanningError("no feasible bushy plan")
        return self._result(best[key])


# ------------------------------------------------------------------ formulas


def plan_space_baseline(
    n: int, tightened: bool = True, *, enumerated: bool = True
) -> int:
    """Candidate count of the bushy enumerator for an all-market chain query.

    The default is the **exact** number of candidate plans an
    installation with ``QueryOptions(use_theorems=False)`` (the
    ``payless_disable_all`` arm) evaluates for a chain
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
