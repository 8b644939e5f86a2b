"""Uniform spatial grid indexes for the semantic store.

The store's three hot questions — "is this request region fully covered?",
"what is the remainder?", and "which cached rows fall inside this region?" —
were all answered by flat scans over every covered box / every cached row.
Both scans grow linearly with store age, which is exactly what the store's
never-evict design makes unbounded.  This module provides two sub-linear
indexes over the per-table :class:`~repro.semstore.space.BoxSpace` grid:

* :class:`BoxGridIndex` — covered boxes bucketed into a uniform grid whose
  cell size is derived from the space extents.  A probe for a query box
  touches only the buckets the query overlaps, returning a *superset* of
  the truly-overlapping covers in insertion order (callers clip/intersect
  anyway, so supersets are harmless and keep insertion O(cells per box)).
  Boxes spanning more than :data:`OVERSIZED_CELL_CAP` buckets go into a
  small always-checked side list instead of being exploded into thousands
  of bucket entries.

* :class:`PointGridIndex` — cached-row grid points hashed by coarse grid
  cell, so region row-assembly visits only the rows whose cell overlaps
  the region, O(matching rows) instead of O(all rows).

Both indexes return ids in ascending insertion order, which is what makes
the indexed store paths *byte-identical* to the brute-force scans (the
remainder pipeline's dedup/sort steps are stable in input order).
"""

from __future__ import annotations

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


class _GridGeometry:
    """Shared cell arithmetic over a fixed set of axis extents."""

    __slots__ = ("origins", "cell_sizes")

    def __init__(self, extents: Sequence[Extent]):
        self.origins = tuple(low for low, _ in extents)
        self.cell_sizes = tuple(
            max(1, (high - low + TARGET_CELLS_PER_AXIS - 1) // TARGET_CELLS_PER_AXIS)
            for low, high in extents
        )

    def cell_of_point(self, point: Sequence[int]) -> tuple[int, ...]:
        origins = self.origins
        sizes = self.cell_sizes
        return tuple(
            (value - origins[axis]) // sizes[axis]
            for axis, value in enumerate(point)
        )

    def cell_ranges(self, box: Box) -> list[tuple[int, int]]:
        """Inclusive cell-coordinate range of ``box`` along each axis."""
        origins = self.origins
        sizes = self.cell_sizes
        return [
            (
                (low - origins[axis]) // sizes[axis],
                (high - 1 - origins[axis]) // sizes[axis],
            )
            for axis, (low, high) in enumerate(box.extents)
        ]

    @staticmethod
    def cell_count(ranges: Sequence[tuple[int, int]]) -> int:
        count = 1
        for low, high in ranges:
            count *= high - low + 1
        return count

    @staticmethod
    def cells(ranges: Sequence[tuple[int, int]]) -> Iterable[tuple[int, ...]]:
        return product(*(range(low, high + 1) for low, high in ranges))


class BoxGridIndex:
    """Grid index over covered boxes; ids are caller-assigned and stable."""

    def __init__(self, extents: Sequence[Extent]):
        self._geometry = _GridGeometry(extents)
        self._buckets: dict[tuple[int, ...], list[int]] = {}
        #: ids of boxes too large to bucket; always part of every probe.
        self._oversized: list[int] = []
        #: id -> the bucket cells (or None for oversized) for O(1) removal.
        self._placements: dict[int, list[tuple[int, ...]] | None] = {}

    def __len__(self) -> int:
        return len(self._placements)

    def insert(self, box_id: int, box: Box) -> None:
        ranges = self._geometry.cell_ranges(box)
        if self._geometry.cell_count(ranges) > OVERSIZED_CELL_CAP:
            self._oversized.append(box_id)
            self._placements[box_id] = None
            return
        cells = list(self._geometry.cells(ranges))
        for cell in cells:
            self._buckets.setdefault(cell, []).append(box_id)
        self._placements[box_id] = cells

    def export_state(self) -> dict:
        """Deep-enough copies of the index internals for persistence.

        The values are primitive containers (tuples, lists, dicts) so a
        snapshot can serialize them without touching index code, and
        :meth:`adopt_state` can re-inhale them at cold restart instead of
        re-deriving every bucket."""
        return {
            "buckets": {cell: list(ids) for cell, ids in self._buckets.items()},
            "oversized": list(self._oversized),
            "placements": dict(self._placements),
        }

    def adopt_state(self, state: dict) -> None:
        """Adopt exported internals wholesale (cold-restart fast path).

        Ownership of ``state`` transfers to the index: the caller must
        hand over a freshly deserialized (or otherwise unshared) value —
        cell keys must already be tuples, as pickle round-trips them.
        Only valid on an empty index."""
        if self._placements:
            raise ValueError("adopt_state requires an empty index")
        self._buckets = state["buckets"]
        self._oversized = state["oversized"]
        self._placements = state["placements"]

    def remove(self, box_id: int) -> None:
        cells = self._placements.pop(box_id)
        if cells is None:
            self._oversized.remove(box_id)
            return
        for cell in cells:
            bucket = self._buckets.get(cell)
            if bucket is not None:
                bucket.remove(box_id)
                if not bucket:
                    del self._buckets[cell]

    def candidates(self, box: Box) -> list[int]:
        """Ids of boxes *possibly* overlapping ``box``, ascending.

        A superset of the truly-overlapping set (cell-granular), plus every
        oversized box.  Ascending ids == insertion order, which downstream
        stable sorts rely on for brute-force equivalence.
        """
        ranges = self._geometry.cell_ranges(box)
        buckets = self._buckets
        found: set[int] = set(self._oversized)
        if self._geometry.cell_count(ranges) > len(buckets):
            # The probe box spans more cells than are occupied: walk the
            # occupied buckets instead of enumerating empty ones.
            for cell, ids in buckets.items():
                if all(
                    low <= coordinate <= high
                    for coordinate, (low, high) in zip(cell, ranges)
                ):
                    found.update(ids)
        else:
            for cell in self._geometry.cells(ranges):
                ids = buckets.get(cell)
                if ids is not None:
                    found.update(ids)
        return sorted(found)


class PointGridIndex:
    """Coarse-cell hash of cached-row grid points.

    Append-only (the store never evicts rows); ids are list positions in
    the store's row list, so ascending ids reproduce row insertion order.
    """

    def __init__(self, extents: Sequence[Extent]):
        self._geometry = _GridGeometry(extents)
        self._cells: dict[tuple[int, ...], list[int]] = {}

    def insert(self, row_id: int, point: Sequence[int]) -> None:
        cell = self._geometry.cell_of_point(point)
        self._cells.setdefault(cell, []).append(row_id)

    def export_state(self) -> dict:
        """Copies of the cell buckets, primitive enough to serialize."""
        return {
            "cells": {cell: list(ids) for cell, ids in self._cells.items()}
        }

    def adopt_state(self, state: dict) -> None:
        """Adopt exported buckets wholesale; same ownership contract as
        :meth:`BoxGridIndex.adopt_state`.  Only valid on an empty index."""
        if self._cells:
            raise ValueError("adopt_state requires an empty index")
        self._cells = state["cells"]

    def candidates(self, box: Box) -> list[int]:
        """Row ids whose cell overlaps ``box`` (superset, unsorted)."""
        ranges = self._geometry.cell_ranges(box)
        cells = self._cells
        found: list[int] = []
        if self._geometry.cell_count(ranges) > len(cells):
            for cell, ids in cells.items():
                if all(
                    low <= coordinate <= high
                    for coordinate, (low, high) in zip(cell, ranges)
                ):
                    found.extend(ids)
        else:
            for cell in self._geometry.cells(ranges):
                ids = cells.get(cell)
                if ids is not None:
                    found.extend(ids)
        return found
