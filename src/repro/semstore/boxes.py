"""d-dimensional box algebra over integer grids.

Everything the semantic-rewriting machinery of the paper does — coverage,
remainder computation (Figure 6/7), elementary-box decomposition, bounding
boxes (Algorithm 1) — happens in a per-table *box space*:

* every constrainable attribute of a market table is one dimension;
* numeric (INT/DATE) attributes map to a half-open integer axis
  ``[domain_min, domain_max + 1)``;
* categorical attributes are enumerated: the k domain values map to axis
  positions ``0..k`` in a stable sort order (this is exactly how Figure 8
  draws a categorical axis).

With that mapping every region is an axis-aligned integer :class:`Box`, and
subtraction/decomposition are exact.  Decomposition of ``Q − ⋃Vᵢ`` uses the
classic split-by-box sweep (each subtraction splits a piece into at most
``2d`` disjoint slabs) followed by a greedy merge pass; any disjoint
decomposition is valid input to Algorithm 1 and the merge keeps separator
sets small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ReproError

Extent = tuple[int, int]  # half-open [low, high)


class BoxError(ReproError):
    """A box operation received incompatible or degenerate input."""


@dataclass(frozen=True, slots=True)
class Box:
    """An axis-aligned d-dimensional box with half-open integer extents."""

    extents: tuple[Extent, ...]

    def __post_init__(self) -> None:
        for low, high in self.extents:
            if low >= high:
                raise BoxError(f"degenerate extent [{low}, {high})")

    @classmethod
    def unchecked(cls, extents: tuple[Extent, ...]) -> "Box":
        """Trusted constructor for internal hot paths.

        Skips ``__post_init__`` validation; callers must guarantee every
        extent is non-degenerate (true whenever the extents are derived
        from already-validated boxes — intersection, subtraction, merge).
        """
        box = object.__new__(cls)
        object.__setattr__(box, "extents", extents)
        return box

    @property
    def dimensions(self) -> int:
        return len(self.extents)

    def volume(self) -> int:
        """Number of grid cells inside (not tuples — tuples come from stats)."""
        product = 1
        for low, high in self.extents:
            product *= high - low
        return product

    def contains_box(self, other: "Box") -> bool:
        self._check_compatible(other)
        return all(
            mine[0] <= theirs[0] and theirs[1] <= mine[1]
            for mine, theirs in zip(self.extents, other.extents)
        )

    def contains_point(self, point: Sequence[int]) -> bool:
        extents = self.extents
        if len(point) != len(extents):
            raise BoxError("point dimensionality mismatch")
        for (low, high), value in zip(extents, point):
            if value < low or value >= high:
                return False
        return True

    def intersect(self, other: "Box") -> "Box | None":
        """The overlap box, or ``None`` when disjoint."""
        mine, theirs = self.extents, other.extents
        if len(mine) != len(theirs):
            self._check_compatible(other)
        extents: list[Extent] = []
        append = extents.append
        for (low_a, high_a), (low_b, high_b) in zip(mine, theirs):
            low = low_a if low_a >= low_b else low_b
            high = high_a if high_a <= high_b else high_b
            if low >= high:
                return None
            append((low, high))
        return Box.unchecked(tuple(extents))

    def overlaps(self, other: "Box") -> bool:
        return self.intersect(other) is not None

    def subtract(self, other: "Box") -> list["Box"]:
        """``self − other`` as at most ``2d`` disjoint boxes."""
        overlap = self.intersect(other)
        if overlap is None:
            return [self]
        unchecked = Box.unchecked
        pieces: list[Box] = []
        remaining = list(self.extents)
        overlap_extents = overlap.extents
        for axis in range(len(remaining)):
            low, high = remaining[axis]
            cut_low, cut_high = overlap_extents[axis]
            if low < cut_low:
                extents = list(remaining)
                extents[axis] = (low, cut_low)
                pieces.append(unchecked(tuple(extents)))
            if cut_high < high:
                extents = list(remaining)
                extents[axis] = (cut_high, high)
                pieces.append(unchecked(tuple(extents)))
            remaining[axis] = (cut_low, cut_high)
        return pieces

    def _check_compatible(self, other: "Box") -> None:
        if self.dimensions != other.dimensions:
            raise BoxError(
                f"dimensionality mismatch: {self.dimensions} vs {other.dimensions}"
            )

    def __repr__(self) -> str:
        inner = " x ".join(f"[{low},{high})" for low, high in self.extents)
        return f"Box({inner})"


#: Fragment guard for high-dimensional subtraction: once a decomposition
#: exceeds this many pieces, remaining covers are ignored.  The result then
#: *over-approximates* the true remainder — always sound for rewriting (at
#: worst some already-stored tuples are re-bought), never incorrect.
DEFAULT_PIECE_CAP = 512

#: At most this many (largest) covers are subtracted per remainder
#: computation; ignoring the tail is the same sound over-approximation.
DEFAULT_COVER_CAP = 128


def subtract_all(
    base: Box, covers: Iterable[Box], piece_cap: int | None = None
) -> list[Box]:
    """``base − ⋃covers`` as a list of disjoint boxes (possibly empty).

    Covers are applied largest-volume-first (big covers annihilate pieces
    early, which keeps fragmentation down).  ``piece_cap`` bounds the
    intermediate piece count; see :data:`DEFAULT_PIECE_CAP`.
    """
    ordered = sorted(covers, key=lambda cover: cover.volume(), reverse=True)
    cap = DEFAULT_PIECE_CAP if piece_cap is None else piece_cap
    pieces = [base]
    for cover in ordered:
        if len(pieces) > cap:
            break
        next_pieces: list[Box] = []
        for piece in pieces:
            next_pieces.extend(piece.subtract(cover))
        pieces = next_pieces
        if not pieces:
            break
    return pieces


#: Above this many boxes the quadratic merge pass is skipped — Algorithm 1
#: still works on the unmerged decomposition, it just sees more elements.
MERGE_INPUT_CAP = 512


def merge_adjacent(boxes: list[Box]) -> list[Box]:
    """Greedily merge boxes that differ in exactly one dimension and touch.

    Runs passes until a fixpoint.  The result is still disjoint and covers
    the same region; it just has fewer, fatter boxes — which keeps
    Algorithm 1's separator sets small.
    """
    if len(boxes) > MERGE_INPUT_CAP:
        return list(boxes)
    current = list(boxes)
    changed = True
    while changed:
        changed = False
        merged: list[Box] = []
        used = [False] * len(current)
        for i, box in enumerate(current):
            if used[i]:
                continue
            accumulated = box
            for j in range(i + 1, len(current)):
                if used[j]:
                    continue
                candidate = _try_merge(accumulated, current[j])
                if candidate is not None:
                    accumulated = candidate
                    used[j] = True
                    changed = True
            merged.append(accumulated)
            used[i] = True
        current = merged
    return current


def _try_merge(a: Box, b: Box) -> Box | None:
    """Merge two boxes into one iff their union is exactly a box."""
    mine, theirs = a.extents, b.extents
    if len(mine) != len(theirs):
        raise BoxError("dimensionality mismatch in merge")
    differing = None
    axis = 0
    for extent_a, extent_b in zip(mine, theirs):
        if extent_a != extent_b:
            if differing is not None:
                return None
            differing = axis
        axis += 1
    if differing is None:
        # Identical boxes (shouldn't happen with disjoint input): keep one.
        return a
    (low_a, high_a) = mine[differing]
    (low_b, high_b) = theirs[differing]
    if high_a == low_b:
        joined = (low_a, high_b)
    elif high_b == low_a:
        joined = (low_b, high_a)
    else:
        return None
    return Box.unchecked(mine[:differing] + (joined,) + mine[differing + 1:])


def remainder_decomposition(
    query: Box, covers: Iterable[Box], cover_cap: int = DEFAULT_COVER_CAP
) -> list[Box]:
    """Elementary boxes of ``query − ⋃covers`` (disjoint, merged).

    This is the decomposition of the missing-data space V̄ (Figure 7b/c)
    that Algorithm 1 consumes.  Covers are clipped to the query box,
    deduplicated, and — when very many distinct covers overlap the query —
    only the ``cover_cap`` largest are subtracted (a sound
    over-approximation; see :func:`subtract_all`).
    """
    relevant: dict[tuple, Box] = {}
    for cover in covers:
        clipped = query.intersect(cover)
        if clipped is None:
            continue
        if clipped.extents == query.extents:
            return []  # one cover swallows the whole query box
        relevant.setdefault(clipped.extents, clipped)
    clipped_covers = list(relevant.values())
    if len(clipped_covers) > cover_cap:
        clipped_covers.sort(key=lambda box: box.volume(), reverse=True)
        clipped_covers = clipped_covers[:cover_cap]
    return merge_adjacent(subtract_all(query, clipped_covers))


def covers_fully(query: Box, covers: Iterable[Box]) -> bool:
    """Whether ``query`` is entirely inside the union of ``covers``."""
    return not subtract_all(query, covers)


def union_volume(boxes: Sequence[Box]) -> int:
    """Grid volume of a union of (possibly overlapping) boxes."""
    disjoint: list[Box] = []
    for box in boxes:
        pieces = [box]
        for existing in disjoint:
            next_pieces: list[Box] = []
            for piece in pieces:
                next_pieces.extend(piece.subtract(existing))
            pieces = next_pieces
            if not pieces:
                break
        disjoint.extend(pieces)
    return sum(piece.volume() for piece in disjoint)


def bounding_box(boxes: Sequence[Box]) -> Box:
    """The minimum box enclosing all ``boxes``."""
    if not boxes:
        raise BoxError("bounding box of zero boxes")
    dimensions = boxes[0].dimensions
    extents: list[Extent] = []
    for axis in range(dimensions):
        low = min(box.extents[axis][0] for box in boxes)
        high = max(box.extents[axis][1] for box in boxes)
        extents.append((low, high))
    return Box(tuple(extents))
