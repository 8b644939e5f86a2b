"""The uniform spatial grid index of the semantic store.

The store's three hot questions — "is this request region fully covered?",
"what is the remainder?", and "which cached rows fall inside this region?" —
all start from "which stored boxes overlap this one?".  A flat scan over
every covered box / every purchased batch grows linearly with store age,
which is exactly what the store's never-evict design makes unbounded.

:class:`BoxGridIndex` buckets boxes into a uniform grid over the per-table
:class:`~repro.semstore.space.BoxSpace`, with a cell size derived from the
space extents.  A probe for a query box touches only the buckets the query
overlaps, returning a *superset* of the truly-overlapping boxes (callers
clip/intersect anyway, so supersets are harmless and keep insertion
O(cells per box)).  Boxes spanning more than :data:`OVERSIZED_CELL_CAP`
buckets go into a small always-checked side list instead of being exploded
into thousands of bucket entries.  Each table keeps two: one over its
covered boxes, one over the bounds of its row chunks.

Ids come back in ascending order, and both users assign them in insertion
order, which is what makes the indexed store paths *byte-identical* to the
brute-force scans (the remainder pipeline's dedup/sort steps are stable in
input order; assembled rows keep the order they were cached in).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

from repro.semstore.boxes import Box, Extent

#: Target number of grid cells along each axis.  Coarse on purpose: the
#: index only has to prune, not answer exactly, and fewer cells keep the
#: per-box insertion cost down.
TARGET_CELLS_PER_AXIS = 32

#: A box overlapping more than this many buckets is kept in the oversized
#: side list (always probed) instead of being inserted into every bucket.
OVERSIZED_CELL_CAP = 256


class BoxGridIndex:
    """Grid index over boxes; ids are caller-assigned and stable."""

    def __init__(self, extents: Sequence[Extent]):
        self._origins = tuple(low for low, _ in extents)
        self._cell_sizes = tuple(
            max(1, (high - low + TARGET_CELLS_PER_AXIS - 1) // TARGET_CELLS_PER_AXIS)
            for low, high in extents
        )
        self._buckets: dict[tuple[int, ...], list[int]] = {}
        #: ids of boxes too large to bucket; always part of every probe.
        self._oversized: list[int] = []

    def _cell_ranges(self, box: Box) -> list[range]:
        """The cell coordinates ``box`` spans along each axis."""
        return [
            range((low - origin) // size, (high - 1 - origin) // size + 1)
            for (low, high), origin, size in zip(
                box.extents, self._origins, self._cell_sizes
            )
        ]

    def _placement(self, box: Box) -> Iterable[tuple[int, ...]] | None:
        """The bucket cells ``box`` goes into, or None when oversized.  A
        function of the box alone, so removal recomputes it instead of the
        index remembering every box's cells."""
        ranges = self._cell_ranges(box)
        if math.prod(map(len, ranges)) > OVERSIZED_CELL_CAP:
            return None
        return product(*ranges)

    def insert(self, box_id: int, box: Box) -> None:
        cells = self._placement(box)
        if cells is None:
            self._oversized.append(box_id)
            return
        for cell in cells:
            self._buckets.setdefault(cell, []).append(box_id)

    def export_state(self) -> dict:
        """Deep-enough copies of the index internals for persistence.

        The values are primitive containers (tuples, lists, dicts) so a
        snapshot can serialize them without touching index code, and
        :meth:`adopt_state` can re-inhale them at cold restart instead of
        re-deriving every bucket."""
        return {
            "buckets": {cell: list(ids) for cell, ids in self._buckets.items()},
            "oversized": list(self._oversized),
        }

    def adopt_state(self, state: dict) -> None:
        """Adopt exported internals wholesale (cold-restart fast path).

        Ownership of ``state`` transfers to the index: the caller must
        hand over a freshly deserialized (or otherwise unshared) value —
        cell keys must already be tuples, as pickle round-trips them.
        Only valid on an empty index."""
        if self._buckets or self._oversized:
            raise ValueError("adopt_state requires an empty index")
        self._buckets = state["buckets"]
        self._oversized = state["oversized"]

    def remove(self, box_id: int, box: Box) -> None:
        """Forget ``box_id``, inserted with ``box``."""
        cells = self._placement(box)
        if cells is None:
            self._oversized.remove(box_id)
            return
        for cell in cells:
            bucket = self._buckets[cell]
            bucket.remove(box_id)
            if not bucket:
                del self._buckets[cell]

    def candidates(self, box: Box) -> list[int]:
        """Ids of boxes *possibly* overlapping ``box``, ascending.

        A superset of the truly-overlapping set (cell-granular), plus every
        oversized box.  Ascending ids == insertion order, which downstream
        stable sorts rely on for brute-force equivalence.
        """
        ranges = self._cell_ranges(box)
        buckets = self._buckets
        found: set[int] = set(self._oversized)
        if math.prod(map(len, ranges)) > len(buckets):
            # The probe box spans more cells than are occupied: walk the
            # occupied buckets instead of enumerating empty ones.
            for cell, ids in buckets.items():
                for coordinate, span in zip(cell, ranges):
                    if coordinate not in span:
                        break
                else:
                    found.update(ids)
        else:
            for cell in product(*ranges):
                ids = buckets.get(cell)
                if ids is not None:
                    found.update(ids)
        return sorted(found)
