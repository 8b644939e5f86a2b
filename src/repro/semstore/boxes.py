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
``2d`` disjoint slabs) followed by a per-axis sort-and-sweep merge; any
disjoint decomposition is valid input to Algorithm 1 and the merge keeps
separator sets small.
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
        mine, theirs = self.extents, other.extents
        if len(mine) != len(theirs):
            self._check_compatible(other)
        for (low, high), (other_low, other_high) in zip(mine, theirs):
            if other_low < low or high < other_high:
                return False
        return True

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


def merge_adjacent(boxes: list[Box]) -> list[Box]:
    """Merge boxes that differ in exactly one dimension and touch.

    One axis at a time: boxes are bucketed by their extents on the *other*
    axes (only members of one bucket can fuse along this one), each bucket
    is sorted on the axis and touching runs are fused — a dict pass and a
    sort, not a test of every pair.  The axes are swept round until none
    of them fuses anything.  The result is still disjoint and covers the
    same region; it just has fewer, fatter boxes, each standing where the
    earliest of its members stood — which keeps Algorithm 1's separator
    sets small.
    """
    current = list(boxes)
    if len(current) < 2:
        return current
    dimensions = len(current[0].extents)
    axis = idle = 0  # idle: axes in a row that are at their fixpoint
    while idle < dimensions:
        fused = _fuse_along(current, axis)
        if fused is None:
            idle += 1
        else:
            current, idle = fused, 1  # runs along this axis are now maximal
        axis = (axis + 1) % dimensions
    return current


def _fuse_along(boxes: list[Box], axis: int) -> list[Box] | None:
    """``boxes`` with every touching run along ``axis`` fused into one box,
    or ``None`` when nothing touches (the caller keeps its list)."""
    buckets: dict[tuple[Extent, ...], list[int]] = {}
    for index, box in enumerate(boxes):
        rest = box.extents[:axis] + box.extents[axis + 1:]
        buckets.setdefault(rest, []).append(index)
    if len(buckets) == len(boxes):
        return None  # every bucket a singleton
    result: list[Box | None] = list(boxes)
    for rest, members in buckets.items():
        if len(members) == 1:
            continue
        members.sort(key=lambda index: boxes[index].extents[axis])
        stands = members[0]
        low, high = boxes[stands].extents[axis]
        for index in members[1:]:
            next_low, next_high = boxes[index].extents[axis]
            if next_low != high:
                stands, low, high = index, next_low, next_high
                continue
            result[max(stands, index)] = None
            stands, high = min(stands, index), next_high
            result[stands] = Box.unchecked(
                rest[:axis] + ((low, high),) + rest[axis:]
            )
    fused = [box for box in result if box is not None]
    return fused if len(fused) < len(boxes) else None


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
