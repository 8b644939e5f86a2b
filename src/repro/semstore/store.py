"""The semantic store: every REST call and its result, kept forever.

PayLess "stores all the data market access requests and their returned data
in a semantic store" (Figure 3, step 5.3) and deliberately never evicts —
cheap local storage buys freedom from ever re-buying the same tuples.  Per
market table the store tracks

* the union of *covered boxes* (the regions of constraint space whose tuples
  are locally complete), each stamped with the logical week it was fetched,
* the cached rows themselves (deduplicated), and

answers the two questions the optimizer and executor ask: "which part of
this request region is missing?" (remainder decomposition) and "give me the
cached rows inside this region" (result assembly).

Because the store never evicts, both questions must stay *sub-linear* in
store age: covered boxes live in a :class:`~repro.semstore.grid.BoxGridIndex`
and cached-row grid points in a :class:`~repro.semstore.grid.PointGridIndex`,
so probes touch only the grid buckets a query overlaps.  The pre-index flat
scans survive behind ``debug_bruteforce=True`` as the oracle the equivalence
tests compare against.  Every mutation bumps a per-table ``epoch``, which
the rewriter keys its memoization on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ReproError
from repro.relational.schema import Schema
from repro.relational.table import Row
from repro.semstore.boxes import (
    Box,
    covers_fully,
    remainder_decomposition,
)
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.grid import BoxGridIndex, PointGridIndex
from repro.semstore.space import BoxSpace


@dataclass(frozen=True)
class CoveredBox:
    """One stored region: where it is, when it was fetched, what it held."""

    box: Box
    stored_at: float
    row_count: int


class TableStore:
    """Per-table slice of the semantic store.

    ``debug_bruteforce`` selects the pre-index flat-scan probing for every
    coverage/remainder/assembly question; storage is identical either way,
    so the two modes must return byte-identical answers (asserted by the
    property tests in ``tests/test_store_index.py``).
    """

    def __init__(
        self, space: BoxSpace, schema: Schema, debug_bruteforce: bool = False
    ):
        self.space = space
        self.schema = schema
        self.debug_bruteforce = debug_bruteforce
        #: Per-table concurrency guard.  Every public mutation and probe
        #: takes it, so grid/point indexes never tear under concurrent
        #: sessions; it is an RLock so an executor holding it for a
        #: rewrite-record-assemble critical section can still call the
        #: probes.  Lock order (see DESIGN.md): a table lock may be held
        #: while entering the singleflight registry, never the reverse.
        self.lock = threading.RLock()
        #: Monotonically increasing mutation counter.  Anything derived
        #: from store state (rewrite results, coverage verdicts) is valid
        #: only for the epoch it was computed at.  Bumps happen under
        #: :attr:`lock`, so an epoch read inside the lock is exact.
        self.epoch: int = 0
        grid_extents = tuple(d.full_extent for d in space.dimensions)
        self._covers: dict[int, CoveredBox] = {}
        self._next_cover_id: int = 0
        self._cover_index = BoxGridIndex(grid_extents)
        self._rows: list[Row] = []
        #: Dedup set over ``_rows``; ``None`` after a bulk adopt until the
        #: first mutation needs it (hashing 100k restored rows costs more
        #: than a cold restart should pay for a read-only workload).
        self._row_set: set[Row] | None = set()
        #: Grid point of each cached row, computed once at insert time.
        self._points: list[tuple[int, ...] | None] = []
        #: Columnar bulk payload adopted at cold restart, materialized
        #: into ``_rows``/``_points`` on first touch (same idiom as
        #: ``Relation``'s columnar backing): recovery hands back control
        #: without paying for 100k row tuples the workload may not read.
        self._deferred_bulk: dict | None = None
        self._point_index = PointGridIndex(grid_extents)

    @property
    def cached_row_count(self) -> int:
        deferred = self._deferred_bulk
        if deferred is not None:
            return deferred["row_count"]
        return len(self._rows)

    @property
    def covered(self) -> list[CoveredBox]:
        """Covered regions in insertion order (read-only snapshot)."""
        with self.lock:
            return list(self._covers.values())

    @property
    def covered_count(self) -> int:
        return len(self._covers)

    # -- mutation ------------------------------------------------------------

    def record(self, box: Box, rows: Iterable[Row], stored_at: float) -> int:
        """Store a fetched region; returns how many rows were new."""
        with self.lock:
            self.epoch += 1
            self._materialize_deferred()
            new = 0
            count = 0
            row_set = self._ensure_row_set()
            for row in rows:
                count += 1
                if row not in row_set:
                    row_set.add(row)
                    self._point_index_insert(row)
                    new += 1
            # Consolidate the coverage set: a region subsumed by an
            # equally-fresh cover adds nothing, and covers subsumed by this
            # fresher region can be dropped.  Containment implies overlap,
            # so the grid index narrows both checks to overlapping covers
            # only.
            candidate_ids = self._overlapping_cover_ids(box)
            for cover_id in candidate_ids:
                existing = self._covers[cover_id]
                if existing.stored_at >= stored_at and existing.box.contains_box(
                    box
                ):
                    return new
            for cover_id in candidate_ids:
                existing = self._covers[cover_id]
                if existing.stored_at <= stored_at and box.contains_box(
                    existing.box
                ):
                    del self._covers[cover_id]
                    self._cover_index.remove(cover_id)
            self._append_cover(
                CoveredBox(box=box, stored_at=stored_at, row_count=count)
            )
            return new

    def export_bulk_state(self) -> dict:
        """The table's whole persistent state as primitive containers.

        Snapshots serialize this (e.g. with pickle) and feed it back to
        :meth:`adopt_bulk_state` at cold restart, which re-inhales rows,
        covers *and the prebuilt grid indexes* without re-deriving a
        single bucket.  Copies are taken under the table lock, so the
        caller may serialize at leisure."""
        with self.lock:
            self._materialize_deferred()
            # Rows and points go out columnar / flattened: deserializing
            # a handful of long primitive lists is several times faster
            # than re-materializing 100k three-element tuples, and adopt
            # rebuilds the tuples with one C-level zip.
            points_flat: list[int] = []
            points_none: list[int] = []
            dims = 0
            for row_id, point in enumerate(self._points):
                if point is None:
                    points_none.append(row_id)
                else:
                    points_flat.extend(point)
                    dims = len(point)
            return {
                "covers": [
                    (cover_id, covered.box.extents, covered.stored_at,
                     covered.row_count)
                    for cover_id, covered in self._covers.items()
                ],
                "next_cover_id": self._next_cover_id,
                "row_columns": [
                    list(column) for column in zip(*self._rows)
                ],
                "row_count": len(self._rows),
                "points_flat": points_flat,
                "points_none": points_none,
                "dims": dims,
                "point_index": self._point_index.export_state(),
                "cover_index": self._cover_index.export_state(),
            }

    def adopt_bulk_state(self, state: dict) -> None:
        """Adopt an exported state wholesale (one lock, one epoch bump).

        Ownership of ``state`` transfers to the table — hand over a
        freshly deserialized value.  Only valid on an empty table."""
        with self.lock:
            if self._rows or self._covers or self._deferred_bulk is not None:
                raise ReproError("adopt_bulk_state requires an empty table")
            self.epoch += 1
            # Box.unchecked: the extents round-tripped from validated
            # boxes (pickle preserves the tuples exactly), so re-running
            # __post_init__ on tens of thousands of covers buys nothing.
            self._covers = {
                cover_id: CoveredBox(
                    box=Box.unchecked(extents),
                    stored_at=stored_at,
                    row_count=row_count,
                )
                for cover_id, extents, stored_at, row_count in state["covers"]
            }
            self._next_cover_id = state["next_cover_id"]
            # Rows/points stay columnar until something reads them; the
            # grid indexes adopt now so coverage checks work immediately.
            self._deferred_bulk = state
            self._row_set = None  # rebuilt lazily on the first mutation
            self._point_index.adopt_state(state["point_index"])
            self._cover_index.adopt_state(state["cover_index"])

    def _materialize_deferred(self) -> None:
        """Build ``_rows``/``_points`` from a deferred bulk payload.

        Runs at most once per adopt, on the first row-touching call;
        callers must hold ``self.lock``."""
        state = self._deferred_bulk
        if state is None:
            return
        self._deferred_bulk = None
        columns = state["row_columns"]
        self._rows = list(zip(*columns)) if columns else []
        points_flat = state["points_flat"]
        dims = state["dims"]
        if points_flat:
            chunks = [iter(points_flat)] * dims
            grid_points = list(zip(*chunks))
        else:
            grid_points = []
        points_none = state["points_none"]
        if points_none:
            none_positions = set(points_none)
            grid_iter = iter(grid_points)
            self._points = [
                None if row_id in none_positions else next(grid_iter)
                for row_id in range(state["row_count"])
            ]
        else:
            self._points = grid_points

    def _ensure_row_set(self) -> set[Row]:
        row_set = self._row_set
        if row_set is None:
            self._materialize_deferred()
            row_set = self._row_set = set(self._rows)
        return row_set

    def _append_cover(self, covered: CoveredBox) -> None:
        cover_id = self._next_cover_id
        self._next_cover_id += 1
        self._covers[cover_id] = covered
        self._cover_index.insert(cover_id, covered.box)

    def _point_index_insert(self, row: Row) -> None:
        point = self.space.row_point(row, self.schema)
        row_id = len(self._rows)
        self._rows.append(row)
        self._points.append(point)
        if point is not None:
            self._point_index.insert(row_id, point)

    # -- coverage probes -------------------------------------------------------

    def _overlapping_cover_ids(self, box: Box) -> list[int]:
        """Ids of covers possibly overlapping ``box``, insertion-ordered."""
        if self.debug_bruteforce:
            return list(self._covers)
        return self._cover_index.candidates(box)

    def _fresh_overlapping_covers(
        self, box: Box, policy: ConsistencyPolicy, now: float
    ) -> list[Box]:
        covers = self._covers
        return [
            covers[cover_id].box
            for cover_id in self._overlapping_cover_ids(box)
            if policy.is_fresh(covers[cover_id].stored_at, now)
        ]

    def effective_covers(
        self, policy: ConsistencyPolicy, now: float
    ) -> list[Box]:
        """Covered boxes still reusable under ``policy`` at clock ``now``."""
        if not policy.rewriting_enabled:
            return []
        with self.lock:
            return [
                covered.box
                for covered in self._covers.values()
                if policy.is_fresh(covered.stored_at, now)
            ]

    def remainder(
        self, query: Box, policy: ConsistencyPolicy, now: float
    ) -> list[Box]:
        """Elementary boxes of the part of ``query`` that must be fetched."""
        if not policy.rewriting_enabled:
            return [query]
        with self.lock:
            return remainder_decomposition(
                query, self._fresh_overlapping_covers(query, policy, now)
            )

    def is_covered(
        self, query: Box, policy: ConsistencyPolicy, now: float
    ) -> bool:
        if not policy.rewriting_enabled:
            return False
        with self.lock:
            return covers_fully(
                query, self._fresh_overlapping_covers(query, policy, now)
            )

    # -- row assembly ----------------------------------------------------------

    def rows_in_box(self, box: Box) -> list[Row]:
        """Cached rows whose grid point lies inside ``box``."""
        with self.lock:
            self._materialize_deferred()
            if self.debug_bruteforce:
                return [
                    row
                    for row, point in zip(self._rows, self._points)
                    if point is not None and box.contains_point(point)
                ]
            rows = self._rows
            points = self._points
            contains = box.contains_point
            return [
                rows[row_id]
                for row_id in sorted(self._point_index.candidates(box))
                if contains(points[row_id])
            ]

    def rows_in_boxes(self, boxes: Sequence[Box]) -> list[Row]:
        """Cached rows inside the union of ``boxes`` (boxes must be disjoint)."""
        if not boxes:
            return []
        with self.lock:
            self._materialize_deferred()
            if self.debug_bruteforce:
                return self._rows_in_boxes_bruteforce(boxes)
            points = self._points
            selected: set[int] = set()
            for box in boxes:
                contains = box.contains_point
                for row_id in self._point_index.candidates(box):
                    if row_id not in selected and contains(points[row_id]):
                        selected.add(row_id)
            rows = self._rows
            return [rows[row_id] for row_id in sorted(selected)]

    def _rows_in_boxes_bruteforce(self, boxes: Sequence[Box]) -> list[Row]:
        """The pre-index scan, kept as the equivalence-test oracle.

        Large box sets (bind-join fan-outs produce one box per binding
        value) are probed through an *anchor dimension* hash so each row
        checks only the handful of boxes sharing its anchor coordinate.
        """
        self._materialize_deferred()
        if len(boxes) <= 16:
            return [
                row
                for row, point in zip(self._rows, self._points)
                if point is not None
                and any(box.contains_point(point) for box in boxes)
            ]
        dimensionality = boxes[0].dimensions
        anchor = max(
            range(dimensionality),
            key=lambda axis: sum(
                1
                for box in boxes
                if box.extents[axis][1] - box.extents[axis][0] == 1
            ),
        )
        buckets: dict[int, list[Box]] = {}
        residual: list[Box] = []
        for box in boxes:
            low, high = box.extents[anchor]
            if high - low == 1:
                buckets.setdefault(low, []).append(box)
            else:
                residual.append(box)
        selected = []
        for row, point in zip(self._rows, self._points):
            if point is None:
                continue
            bucket = buckets.get(point[anchor], ())
            if any(box.contains_point(point) for box in bucket) or any(
                box.contains_point(point) for box in residual
            ):
                selected.append(row)
        return selected

    def columns_in_boxes(
        self, boxes: Sequence[Box]
    ) -> tuple[tuple[tuple[Any, ...], ...], int]:
        """Rows inside the union of ``boxes``, assembled column-wise.

        Returns ``(columns, count)`` — one tuple per schema attribute —
        so the vectorized engine can build a columnar relation without an
        intermediate row-tuple materialization pass.
        """
        rows = self.rows_in_boxes(boxes)
        if not rows:
            return tuple(() for __ in self.schema.names), 0
        return tuple(zip(*rows)), len(rows)

    def count_in_box(self, box: Box) -> int:
        """Exact number of cached rows inside ``box``."""
        return len(self.rows_in_box(box))

    def all_rows(self) -> list[Row]:
        """Every cached row, in insertion order (a copy)."""
        with self.lock:
            self._materialize_deferred()
            return list(self._rows)


class SemanticStore:
    """The buyer-side store of everything ever retrieved from the market."""

    def __init__(
        self,
        policy: ConsistencyPolicy | None = None,
        debug_bruteforce: bool = False,
    ):
        self.policy = policy or ConsistencyPolicy.weak()
        #: Route every probe through the pre-index flat scans (test oracle).
        self.debug_bruteforce = debug_bruteforce
        self._tables: dict[str, TableStore] = {}
        #: Logical clock in weeks; the harness advances it to model time
        #: passing between query batches (only matters under X-week policy).
        self.clock: float = 0.0
        #: Durability hook: called with the new clock value after every
        #: :meth:`advance_clock` (wired by PayLess when a WAL backend is
        #: active, so restarts restore the clock too).
        self.on_clock_advance = None

    def register_table(self, space: BoxSpace, schema: Schema) -> TableStore:
        key = space.table.lower()
        if key in self._tables:
            raise ReproError(f"table {space.table!r} already registered")
        store = TableStore(
            space, schema, debug_bruteforce=self.debug_bruteforce
        )
        self._tables[key] = store
        return store

    def table(self, name: str) -> TableStore:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ReproError(f"table {name!r} not registered in store") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def epoch_of(self, table: str) -> int:
        """The table's current mutation epoch (see :attr:`TableStore.epoch`)."""
        return self.table(table).epoch

    def advance_clock(self, weeks: float) -> None:
        if weeks < 0:
            raise ReproError("the clock only moves forward")
        self.clock += weeks
        if self.on_clock_advance is not None:
            self.on_clock_advance(self.clock)

    # -- convenience pass-throughs using the store's policy & clock ---------

    def remainder(self, table: str, query: Box) -> list[Box]:
        return self.table(table).remainder(query, self.policy, self.clock)

    def is_covered(self, table: str, query: Box) -> bool:
        return self.table(table).is_covered(query, self.policy, self.clock)

    def effective_covers(self, table: str) -> list[Box]:
        return self.table(table).effective_covers(self.policy, self.clock)

    def record(self, table: str, box: Box, rows: Iterable[Row]) -> int:
        return self.table(table).record(box, rows, self.clock)

    def rows_in_boxes(self, table: str, boxes: Sequence[Box]) -> list[Row]:
        return self.table(table).rows_in_boxes(boxes)

    def columns_in_boxes(
        self, table: str, boxes: Sequence[Box]
    ) -> tuple[tuple[tuple[Any, ...], ...], int]:
        return self.table(table).columns_in_boxes(boxes)
