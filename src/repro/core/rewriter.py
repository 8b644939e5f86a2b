"""Semantic query rewriting: answer from the store, buy only what's missing.

Given a table and the (pushable) constraints of a query against it, the
rewriter:

1. maps the constraints to their request region (one or more boxes —
   point-set constraints fan out, the decomposed-disjunction case);
2. subtracts the store's covered region, yielding the elementary boxes of
   the missing data V̄ (Figures 6/7);
3. runs Algorithm 1 to generate candidate bounding boxes, with both pruning
   rules;
4. solves the weighted set cover to pick the cheapest set of valid
   remainder queries;
5. compares against the *direct* plan (fetch the request region outright,
   no rewriting) and keeps whichever is estimated cheaper — the comparison
   in Algorithm 2 (line 14);
6. rents or buys: when the table's running spend plus that cheaper plan
   would pass the buy threshold θ times the whole-table price, the access
   buys the whole table in one unconstrained call instead.  At θ = 1 this
   is the introduction's "download everything once the transactions would
   exceed it", without the foreknowledge: ski rental.  At θ = 0 it is the
   Download All baseline: every table bought whole at first touch.

Every call is priced by the caller's schedule: the dataset's
:class:`~repro.market.pricing.PricingPolicy`, which the seller bills with.

Elementary boxes that are not expressible as a single call (a partial
multi-value categorical extent, e.g. "every country except Canada") can
still be *elements* of the cover; for them the rewriter adds a snapped
fallback candidate (categorical extent widened to the whole domain), so a
cover always exists.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import PlanningError
from repro.core.bounding_boxes import (
    CandidateBox,
    GenerationResult,
    _axis_masks,
    _bit_indices,
    generate_candidates,
)
from repro.core.set_cover import CoverCandidate, greedy_weighted_set_cover
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.semstore.boxes import Box
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog, TableStatistics


@dataclass(frozen=True)
class RemainderQuery:
    """One REST call to issue: a box plus its constraint rendering."""

    box: Box
    constraints: tuple[AttributeConstraint, ...]
    estimated_rows: float
    estimated_transactions: int


@dataclass(frozen=True)
class WholeTable:
    """Why an access buys its whole table: ``spent + access > bar``."""

    #: Dollars already billed for the table's (still fresh) purchases.
    spent: float
    #: The cheaper of the direct and rewritten plans for this access.
    access: float
    #: The bar it passed: the buy threshold times the whole table's price,
    #: from its published cardinality.
    bar: float


@dataclass
class RewriteResult:
    """The outcome of rewriting one table access."""

    table: str
    #: The region the query asks for (disjoint boxes).
    request_boxes: list[Box]
    #: Remainder queries to send to the market (empty when fully covered).
    remainder: list[RemainderQuery]
    #: Whether the store already covers the whole request region.
    fully_covered: bool
    #: Whether rewriting (vs the direct fetch) won the cost comparison.
    used_rewriting: bool
    #: Figure 15 instrumentation: bounding boxes enumerated / kept.
    enumerated_boxes: int = 0
    kept_boxes: int = 0
    #: Estimated rows the remainder queries will pull from the market.
    estimated_remainder_rows: float = 0.0
    #: The remainder's estimated cost under the schedule it was priced by.
    estimated_price: float = 0.0
    #: Set when the rent-or-buy rule bought the whole table instead.
    whole_table: WholeTable | None = None
    #: The store epoch of ``table`` this result was computed at.  A result
    #: is only valid while the store is at this epoch; the executor asserts
    #: it before issuing any REST call (see ``core.executor``).
    store_epoch: int = -1

    @property
    def estimated_transactions(self) -> int:
        """Estimated pages the remainder queries return, in total."""
        return sum(query.estimated_transactions for query in self.remainder)

    @property
    def is_free(self) -> bool:
        return self.estimated_transactions == 0 and not self.remainder


class SemanticRewriter:
    """Rewrites table accesses against a semantic store + catalog.

    ``rewrite()`` results are memoized per ``(table, constraints, pricing,
    clock, store epoch)``.  The epoch component makes
    invalidation automatic: any store mutation (``record`` or a persisted
    restore, the only changes to the table's running spend too) bumps the
    table epoch, so the optimizer's many probe rewrites
    within one DP run — and repeat queries between store writes — hit the
    cache, while execution-time rewrites after a purchase never reuse a
    planning-epoch result.  Cached :class:`RewriteResult` objects are
    shared between callers and must be treated as immutable.
    """

    #: Memo entries are cheap (the results are shared, not copied), but a
    #: long-lived installation should not grow without bound; the whole
    #: memo is dropped past this size (practically never in one session).
    MEMO_CAP = 4096

    def __init__(self, store: SemanticStore, catalog: Catalog):
        self.store = store
        self.catalog = catalog
        #: θ of the rent-or-buy rule: buy whole once ``spent + access``
        #: passes θ times the whole-table price.  Set before the first
        #: rewrite (the memo key does not carry it).
        self.buy_threshold = 1.0
        self._memo: dict[tuple, RewriteResult] = {}
        #: Guards only the memo dict and the counters below.  The rewrite
        #: computation itself runs *outside* this lock: it probes the store
        #: (which takes the per-table lock), and an executor holding the
        #: table lock may call ``rewrite`` — holding the memo lock across
        #: the compute would deadlock.  Concurrent duplicate computes are
        #: idempotent and last-write-wins into the memo.
        self._memo_lock = threading.Lock()
        #: Memoization observability (asserted by tests, shown in benches).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Of the ``cache_misses``, the rewrites the store fully covered.
        self.covered_rewrites = 0
        #: Tracing hook, wired by :class:`~repro.core.context.
        #: PlanningContext` (``None`` = standalone rewriter, no reporting).
        self.tracer = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of ``rewrite()`` calls answered from the memo."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- public API -----------------------------------------------------------

    def rewrite(
        self,
        table: str,
        constraints: Sequence[AttributeConstraint],
        pricing: PricingPolicy,
    ) -> RewriteResult:
        """Compute (or recall) the cheapest set of REST calls for a request,
        priced by ``pricing``."""
        epoch = self.store.epoch_of(table)
        key = (
            table.lower(),
            tuple(constraints),
            pricing,
            self.store.clock,
            epoch,
        )
        try:
            hash(key)
        except TypeError:  # unhashable constraint value: compute uncached
            key = None
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        if key is not None:
            with self._memo_lock:
                cached = self._memo.get(key)
                if cached is not None:
                    self.cache_hits += 1
            if cached is not None:
                if tracing:
                    tracer.event("memo", table=table, hit=True)
                return cached
        with self._memo_lock:
            self.cache_misses += 1
        if tracing:
            tracer.event("memo", table=table, hit=False)
            with tracer.span("rewrite", table=table) as span:
                result = self._rewrite_uncached(table, constraints, pricing)
                span.set(
                    remainder=len(result.remainder),
                    estimated_transactions=result.estimated_transactions,
                    fully_covered=result.fully_covered,
                    used_rewriting=result.used_rewriting,
                )
        else:
            result = self._rewrite_uncached(table, constraints, pricing)
        result.store_epoch = epoch
        with self._memo_lock:
            if result.fully_covered:
                self.covered_rewrites += 1
            if key is not None:
                if len(self._memo) >= self.MEMO_CAP:
                    self._memo.clear()
                self._memo[key] = result
        return result

    def _rewrite_uncached(
        self,
        table: str,
        constraints: Sequence[AttributeConstraint],
        pricing: PricingPolicy,
    ) -> RewriteResult:
        """Compute the cheapest set of REST calls answering the request.

        Both strategies are *priced* first (a list of candidate calls each);
        only the one returned is rendered into constraints."""
        statistics = self.catalog.statistics(table)
        request_boxes = statistics.space.boxes_for_constraints(constraints)
        # Strong consistency ("PayLess w/o SQR") reuses nothing: what is
        # still to buy is the whole request, fetched directly.
        rewriting = self.store.policy.rewriting_enabled
        missing = (
            self.store.remainder(table, request_boxes)
            if rewriting
            else request_boxes
        )
        if not missing:
            # Nothing to buy, so nothing to price: the store covers the
            # request region, or the region is empty (off-domain point).
            return RewriteResult(
                table=table,
                request_boxes=request_boxes,
                remainder=[],
                fully_covered=True,
                used_rewriting=bool(request_boxes),
            )
        estimate = statistics.histogram.estimate
        direct = [_priced(box, estimate(box), pricing) for box in request_boxes]
        if not rewriting:
            return self._render(statistics, pricing, request_boxes, direct)
        cover, generation = self._cover_plan(
            statistics, request_boxes, missing, pricing
        )
        direct_wins = _total_price(direct) < _total_price(cover)
        calls = direct if direct_wins else cover
        # Rent or buy.  Strictly greater: on a tie (a free table above
        # all) renting is kept.
        spent, access = self.store.spent(table), _total_price(calls)
        bar = self.buy_threshold * pricing.price_for(statistics.cardinality)
        if spent + access > bar:
            space = statistics.space
            whole = _priced(space.full_box, statistics.cardinality, pricing)
            if space.expressible(whole.box):
                result = self._render(
                    statistics,
                    pricing,
                    request_boxes,
                    [whole],
                    generation=generation,
                )
                result.whole_table = WholeTable(spent, access, bar)
                return result
        return self._render(
            statistics,
            pricing,
            request_boxes,
            calls,
            used_rewriting=not direct_wins,
            generation=generation,
        )

    # -- strategies ---------------------------------------------------------------

    def _render(
        self,
        statistics: TableStatistics,
        pricing: PricingPolicy,
        request_boxes: list[Box],
        calls: list[CandidateBox],
        used_rewriting: bool = False,
        generation: GenerationResult | None = None,
    ) -> RewriteResult:
        """The result that issues ``calls``, one REST call per box."""
        space = statistics.space
        return RewriteResult(
            table=statistics.table,
            request_boxes=request_boxes,
            remainder=[
                RemainderQuery(
                    box=call.box,
                    constraints=space.constraints_for_box(call.box),
                    estimated_rows=call.estimated_rows,
                    estimated_transactions=pricing.transactions_for(
                        call.estimated_rows
                    ),
                )
                for call in calls
            ],
            fully_covered=False,
            used_rewriting=used_rewriting,
            enumerated_boxes=generation.enumerated_count if generation else 0,
            kept_boxes=generation.kept_count if generation else 0,
            estimated_remainder_rows=sum(call.estimated_rows for call in calls),
            estimated_price=_total_price(calls),
        )

    #: Above this many elementary boxes, per-box histogram estimates are
    #: replaced by a constant-density approximation over the request region
    #: (one histogram probe total instead of thousands).
    DENSITY_FALLBACK_THRESHOLD = 256

    def _cover_plan(
        self,
        statistics: TableStatistics,
        request_boxes: list[Box],
        elementary: list[Box],
        pricing: PricingPolicy,
    ) -> tuple[list[CandidateBox], GenerationResult]:
        """Algorithm 1 + weighted set cover over the missing region: the
        chosen candidates, and the generation they were chosen from."""
        space = statistics.space
        estimate = statistics.histogram.estimate
        if len(elementary) > self.DENSITY_FALLBACK_THRESHOLD:
            region_rows = sum(
                statistics.histogram.estimate(box) for box in request_boxes
            )
            region_volume = sum(box.volume() for box in request_boxes)
            density = region_rows / region_volume if region_volume else 0.0
            estimate = lambda box: density * box.volume()  # noqa: E731
        generation = generate_candidates(space, elementary, estimate, pricing)
        candidates = self._coverage_candidates(
            statistics, generation, pricing, estimate
        )
        if generation.merged_candidates:
            cover_input = [
                CoverCandidate(covers=c.covers, cost=c.price)
                for c in candidates
            ]
            chosen = greedy_weighted_set_cover(len(elementary), cover_input)
        else:
            # No merged boxes to weigh against (single elementary box, or
            # the enumeration was capped): the cover is simply every
            # fallback candidate — skip the greedy entirely.
            chosen = range(len(candidates))
        return [candidates[index] for index in chosen], generation

    def _coverage_candidates(
        self,
        statistics: TableStatistics,
        generation: GenerationResult,
        pricing: PricingPolicy,
        estimate=None,
    ) -> list[CandidateBox]:
        """All candidates offered to the set cover, guaranteeing feasibility.

        Expressible elementary boxes stand for themselves; inexpressible
        ones get a snapped fallback (categorical extents widened to the full
        domain), whose cover set is the AND of one containment bitmask per
        axis, as in Algorithm 1's own enumeration.  Algorithm 1's merged
        candidates come last.
        """
        space = statistics.space
        if estimate is None:
            estimate = statistics.histogram.estimate
        fallbacks = [
            None if space.expressible(candidate.box)
            else self._snap(space, candidate.box)
            for candidate in generation.elementary_candidates
        ]
        snapped = [box.extents for box in fallbacks if box is not None]
        elementary = generation.elementary
        axis_masks = [
            dict(_axis_masks(dict.fromkeys(extents), elementary, axis))
            for axis, extents in enumerate(zip(*snapped))
        ]
        candidates: list[CandidateBox] = []
        seen: set[tuple] = set()
        for candidate, fallback in zip(
            generation.elementary_candidates, fallbacks
        ):
            if fallback is None:
                candidates.append(candidate)
                continue
            if fallback.extents in seen:
                continue
            seen.add(fallback.extents)
            covered = -1
            for masks, extent in zip(axis_masks, fallback.extents):
                covered &= masks[extent]
            candidates.append(
                _priced(
                    fallback,
                    estimate(fallback),
                    pricing,
                    frozenset(_bit_indices(covered)),
                )
            )
        for candidate in generation.merged_candidates:
            if space.expressible(candidate.box):
                candidates.append(candidate)
        return candidates

    @staticmethod
    def _snap(space, box: Box) -> Box:
        """Widen invalid categorical extents to the whole domain."""
        extents = []
        for dimension, extent in zip(space.dimensions, box.extents):
            low, high = extent
            if (
                dimension.is_categorical
                and high - low > 1
                and extent != dimension.full_extent
            ):
                if dimension.is_bound:
                    raise PlanningError(
                        f"{space.table}: cannot express remainder on bound "
                        f"categorical attribute {dimension.attribute!r}"
                    )
                extents.append(dimension.full_extent)
            else:
                extents.append(extent)
        return Box(tuple(extents))


def _priced(
    box: Box,
    rows: float,
    pricing: PricingPolicy,
    covers: frozenset[int] = frozenset(),
) -> CandidateBox:
    """``box`` as a candidate call at its estimated price."""
    return CandidateBox(
        box=box,
        estimated_rows=rows,
        price=pricing.price_for(rows),
        covers=covers,
    )


def _total_price(calls: Sequence[CandidateBox]) -> float:
    return sum(call.price for call in calls)
