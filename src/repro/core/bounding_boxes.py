"""Algorithm 1: candidate remainder-query (bounding-box) generation.

Given the elementary boxes of the missing-data region V̄, enumerate bounding
boxes from the per-dimension separator sets and keep the promising ones:

* **pruning rule 1** — only *minimum* bounding boxes survive: a candidate is
  dropped when a strictly smaller valid box contains the same elementary
  boxes (Figure 7c: B2 ⊋ B1 with the same contents is pruned);
* **pruning rule 2** — a candidate is dropped when its estimated price is
  not below the summed prices of the elementary boxes it contains
  (Figure 7c: B3 at 4 transactions loses to fetching E3 and E6 separately
  for 2).  Prices come from the dataset's
  :class:`~repro.market.pricing.PricingPolicy`.

Categorical dimensions only admit single-value or whole-domain extents
(Figure 8), and whole-domain is additionally invalid for *bound*
categorical attributes.  Elementary boxes themselves are always available
to the set-cover stage as fallback candidates (a cover must exist), but are
not counted as "generated bounding boxes" for the Figure 15 metric.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.market.pricing import PricingPolicy
from repro.semstore.boxes import Box, Extent
from repro.semstore.space import BoxSpace

#: Candidate-enumeration budget; once exhausted the result is flagged
#: ``capped`` and the set cover proceeds with what was generated (the
#: elementary fallbacks always keep it feasible).
DEFAULT_ENUMERATION_CAP = 20_000

#: With more elementary boxes than this, enumeration is skipped outright —
#: per-candidate work grows with the element count, and a remainder this
#: fragmented gains little from merged bounding boxes anyway.
DEFAULT_ELEMENTARY_CAP = 160

#: Per-axis candidate-extent budget; beyond it the axis falls back to
#: elementary-own extents + the tight span (see :func:`_axis_extents`).
AXIS_EXTENT_CAP = 512

Estimator = Callable[[Box], float]


@dataclass(frozen=True)
class CandidateBox:
    """A candidate remainder query: the box, its price, what it covers."""

    box: Box
    estimated_rows: float
    price: float
    covers: frozenset[int]  # indices into the elementary-box list


@dataclass
class GenerationResult:
    """Output of Algorithm 1 plus instrumentation for Figure 15."""

    elementary: list[Box]
    elementary_candidates: list[CandidateBox]
    merged_candidates: list[CandidateBox]
    #: Raw bounding boxes enumerated before pruning ("No Pruning" series).
    enumerated_count: int = 0
    #: Bounding boxes surviving both pruning rules ("PayLess" series).
    kept_count: int = 0
    #: Whether the enumeration cap forced the elementary-only fallback.
    capped: bool = False

    @property
    def all_candidates(self) -> list[CandidateBox]:
        return self.elementary_candidates + self.merged_candidates


def _axis_extents(
    space: BoxSpace, elementary: Sequence[Box], axis: int
) -> list[Extent]:
    """Candidate extents for one dimension, respecting Figure 8 validity.

    Numeric extents pair a *low edge* with a *high edge* of the elementary
    boxes: any other extent cannot be minimal (pruning rule 1 would snap it
    to these edges anyway), so enumerating them would be wasted work.
    """
    dimension = space.dimensions[axis]
    if dimension.is_categorical:
        positions = sorted(
            {
                position
                for box in elementary
                for position in range(box.extents[axis][0], box.extents[axis][1])
            }
        )
        extents: list[Extent] = [(p, p + 1) for p in positions]
        if not dimension.is_bound and dimension.full_extent not in extents:
            extents.append(dimension.full_extent)
        return extents
    lows = sorted({box.extents[axis][0] for box in elementary})
    highs = sorted({box.extents[axis][1] for box in elementary})
    pairs = [(low, high) for low in lows for high in highs if low < high]
    if len(pairs) <= AXIS_EXTENT_CAP:
        return pairs
    # Too fragmented on this axis: fall back to each elementary box's own
    # extent plus the tight overall span (still enough to merge everything
    # or nothing on this axis; intermediate widths are sacrificed).
    own = sorted({box.extents[axis] for box in elementary})
    span = (lows[0], highs[-1])
    if span not in own:
        own.append(span)
    return own


def _is_minimal(
    box: Box, covered: Sequence[Box], space: BoxSpace
) -> bool:
    """Pruning rule 1: ``box`` is the smallest valid box around ``covered``."""
    for axis, dimension in enumerate(space.dimensions):
        tight_low = min(element.extents[axis][0] for element in covered)
        tight_high = max(element.extents[axis][1] for element in covered)
        if dimension.is_categorical and tight_high - tight_low > 1:
            tight_low, tight_high = dimension.full_extent
        if box.extents[axis] != (tight_low, tight_high):
            return False
    return True


def _axis_masks(
    extents: Iterable[Extent], elementary: Sequence[Box], axis: int
) -> list[tuple[Extent, int]]:
    """For each extent, the bitmask of elementary boxes it contains on
    ``axis``; extents containing nothing are dropped (their candidates
    cannot cover anything).

    The elementary boxes are grouped by their own extent on the axis and
    the groups sorted by low edge, so an extent looks only at the groups
    that start inside it: a point extent at one or two of them, however
    many elementary boxes there are."""
    groups: dict[Extent, int] = {}
    for index, element in enumerate(elementary):
        own = element.extents[axis]
        groups[own] = groups.get(own, 0) | (1 << index)
    ordered = sorted(groups.items())
    lows = [low for (low, __), __ in ordered]
    entries: list[tuple[Extent, int]] = []
    for extent in extents:
        low, high = extent
        mask = 0
        for (__, group_high), group in ordered[
            bisect_left(lows, low):bisect_left(lows, high)
        ]:
            if group_high <= high:
                mask |= group
        if mask:
            entries.append((extent, mask))
    return entries


def generate_candidates(
    space: BoxSpace,
    elementary: Sequence[Box],
    estimate: Estimator,
    pricing: PricingPolicy,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    prune: bool = True,
    elementary_cap: int = DEFAULT_ELEMENTARY_CAP,
) -> GenerationResult:
    """Run Algorithm 1 over ``elementary`` boxes.

    With ``prune=False`` both pruning rules are skipped (every enumerated
    box with a nonempty covered set is kept) — the "No Pruning" arm of the
    Figure 15 experiment.

    The enumeration intersects per-axis elementary-coverage bitmasks, so a
    candidate's covered set costs ``d`` integer ANDs rather than ``|E|``
    box-containment tests, and whole subtrees of the product are pruned as
    soon as the running mask goes empty.  ``enumeration_cap`` bounds the
    number of candidates considered; if it is hit the result is flagged
    ``capped`` (the set cover still succeeds via the elementary fallbacks).
    """
    elementary = list(elementary)
    result = GenerationResult(
        elementary=elementary,
        elementary_candidates=[],
        merged_candidates=[],
    )
    price = pricing.price_for
    for index, element in enumerate(elementary):
        rows = estimate(element)
        result.elementary_candidates.append(
            CandidateBox(
                box=element,
                estimated_rows=rows,
                price=price(rows),
                covers=frozenset([index]),
            )
        )
    if len(elementary) <= 1:
        return result
    if len(elementary) > elementary_cap:
        result.capped = True
        return result

    axis_entries = [
        _axis_masks(
            _axis_extents(space, elementary, axis), elementary, axis
        )
        for axis in range(space.dimensionality)
    ]
    if any(not entries for entries in axis_entries):
        return result

    elementary_set = {box.extents for box in elementary}
    elementary_prices = [c.price for c in result.elementary_candidates]
    dimensionality = space.dimensionality
    all_mask = (1 << len(elementary)) - 1
    seen: set[tuple[Extent, ...]] = set()
    stack: list[tuple[int, tuple[Extent, ...], int]] = [(0, (), all_mask)]
    # Partial expansions count against a node budget too — an adversarial
    # fragment pattern can otherwise explore far more interior nodes than
    # complete candidates.
    node_budget = enumeration_cap * 8
    nodes = 0
    while stack:
        nodes += 1
        if nodes > node_budget:
            result.capped = True
            break
        axis, prefix, mask = stack.pop()
        if axis == dimensionality:
            extents = prefix
            if extents in seen:
                continue
            seen.add(extents)
            covered_bits = mask
            if covered_bits & (covered_bits - 1) == 0 and extents in elementary_set:
                continue  # identical to a single elementary candidate
            result.enumerated_count += 1
            if result.enumerated_count > enumeration_cap:
                result.capped = True
                break
            covered = frozenset(_bit_indices(covered_bits))
            box = Box(extents)
            if prune and not _is_minimal(
                box, [elementary[i] for i in covered], space
            ):
                continue
            rows = estimate(box)
            cost = price(rows)
            if prune and cost >= sum(elementary_prices[i] for i in covered):
                continue
            result.kept_count += 1
            result.merged_candidates.append(
                CandidateBox(
                    box=box,
                    estimated_rows=rows,
                    price=cost,
                    covers=covered,
                )
            )
            continue
        for extent, extent_mask in axis_entries[axis]:
            running = mask & extent_mask
            if running:
                stack.append((axis + 1, prefix + (extent,), running))
    return result


def _bit_indices(mask: int) -> list[int]:
    """Set-bit positions, isolating the lowest bit each step (O(popcount))."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices
