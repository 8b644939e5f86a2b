"""The semantic store: every REST call and its result, kept forever.

PayLess "stores all the data market access requests and their returned data
in a semantic store" (Figure 3, step 5.3) and deliberately never evicts —
cheap local storage buys freedom from ever re-buying the same tuples.  Per
market table the store tracks

* the union of *covered boxes* (the regions of constraint space whose tuples
  are locally complete), each stamped with the logical week it was fetched,
* the cached rows themselves (deduplicated), column-wise: one append-only
  list per schema attribute and per box-space dimension, and one *chunk*
  per purchased batch — its row range and the box its coordinates span,

and answers the two questions the optimizer and executor ask: "which part of
this request region is missing?" (remainder decomposition) and "give me the
cached rows inside this region" (result assembly).

Because the store never evicts, both questions must stay *sub-linear* in
store age: covered boxes and chunk bounds each live in a
:class:`~repro.semstore.grid.BoxGridIndex`, so a probe touches only the grid
buckets a query overlaps.  Assembly is box algebra per chunk and per axis:
an extent inside the request's needs no test, a disjoint one skips the
chunk, and only a straddling one has that axis's coordinates compared.
``debug_bruteforce=True`` replaces all of it by one flat scan over the same
columns, the oracle the equivalence tests compare against.  Every mutation
bumps a per-table ``epoch``, which the rewriter keys its memoization on.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import Any, Iterable, Sequence

from repro.errors import ReproError
from repro.relational.schema import Schema
from repro.relational.table import Row
from repro.semstore.boxes import (
    Box,
    Extent,
    covers_fully,
    remainder_decomposition,
)
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.grid import BoxGridIndex
from repro.semstore.space import BoxSpace


@dataclass(frozen=True)
class CoveredBox:
    """One stored region: where it is, when it was fetched, what it held."""

    box: Box
    stored_at: float
    row_count: int


def _as_products(boxes: Sequence[Box]) -> list[list[list[Extent]]]:
    """``boxes`` as cross products of per-axis extent lists.

    A request arrives as the boxes :meth:`BoxSpace.boxes_for_constraints`
    multiplied out — a bind join's *n* values are *n* point boxes differing
    on one axis.  Folded back into one product, they cost one probe and a
    set-membership test, not *n* probes.  Any other list of boxes is one
    single-box product each.
    """
    extents = list(dict.fromkeys(box.extents for box in boxes))
    axes = [list(dict.fromkeys(axis)) for axis in zip(*extents)]
    if math.prod(map(len, axes)) == len(extents) and all(
        len(axis) == 1 or all(high - low == 1 for low, high in axis)
        for axis in axes
    ):
        return [axes]
    return [[[extent] for extent in box_extents] for box_extents in extents]


def _bind_axis(boxes: Sequence[Box]) -> int | None:
    """The one axis on which ``boxes`` differ, each being a single point
    there (the request of a bind join); ``None`` for any other request."""
    products = _as_products(boxes)
    if len(products) != 1:
        return None
    varying = [
        axis for axis, extents in enumerate(products[0]) if len(extents) > 1
    ]
    return varying[0] if len(varying) == 1 else None


class TableStore:
    """Per-table slice of the semantic store.

    ``debug_bruteforce`` selects flat-scan probing for every
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
        #: takes it, so columns and grid indexes never tear under
        #: concurrent sessions; it is an RLock so an executor holding it
        #: for a rewrite-record-assemble critical section can still call
        #: the probes.  Lock order (see DESIGN.md): a table lock may be held
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
        #: Schema position of each dimension's attribute.
        self._axis_columns = [
            schema.position(d.attribute) for d in space.dimensions
        ]
        #: Dedup set over the cached rows; ``None`` after a bulk adopt
        #: until the first mutation needs it (hashing 100k restored rows
        #: costs more than a cold restart should pay for a read-only
        #: workload).
        self._row_set: set[Row] | None = set()
        #: One append-only list per schema attribute.
        self._columns: list[list[Any]] = [[] for __ in schema.names]
        #: Per categorical dimension, the axis position of every row's
        #: value.  An on-domain numeric value is its own coordinate: a
        #: numeric axis has ``None`` here and reads its attribute column.
        self._codes: list[list[int | None] | None] = [
            [] if d.is_categorical else None for d in space.dimensions
        ]
        #: The chunk table, column-wise (flat int lists unpickle several
        #: times faster than a tuple per chunk): ``start, stop``, then
        #: ``low, high`` per axis.  Chunk ``i`` is a run of on-domain rows
        #: one ``record`` appended; ``[low[i], high[i])`` spans their own
        #: coordinates on that axis.  A row with an off-domain value is in
        #: no chunk: cached and counted, never assembled.  ``i`` is the id
        #: in ``_chunk_index``, so ascending ids are row-insertion order.
        self._chunks: list[list[int]] = [
            [] for __ in range(2 + 2 * space.dimensionality)
        ]
        self._chunk_index = BoxGridIndex(grid_extents)
        #: Dollars billed for the table's recorded purchases, per week
        #: they were stored at: the running spend the rewriter's
        #: rent-or-buy rule weighs against the whole-table price.
        self._spent: dict[float, float] = {}

    def _coordinates(self) -> list[list]:
        """Per dimension, the list holding every row's coordinate."""
        return [
            self._columns[position] if codes is None else codes
            for position, codes in zip(self._axis_columns, self._codes)
        ]

    @property
    def cached_row_count(self) -> int:
        return len(self._columns[0])

    @property
    def covered(self) -> list[CoveredBox]:
        """Covered regions in insertion order (read-only snapshot)."""
        with self.lock:
            return list(self._covers.values())

    @property
    def covered_count(self) -> int:
        return len(self._covers)

    # -- mutation ------------------------------------------------------------

    def record(
        self,
        box: Box,
        rows: Iterable[Row],
        stored_at: float,
        price: float = 0.0,
    ) -> int:
        """Store a fetched region billed ``price`` dollars; returns how
        many rows were new."""
        with self.lock:
            self.epoch += 1
            if price:
                self._spent[stored_at] = self._spent.get(stored_at, 0.0) + price
            if not isinstance(rows, (list, tuple)):
                rows = list(rows)
            row_set = self._row_set
            if row_set is None:  # first mutation since a bulk adopt
                row_set = self._row_set = set(zip(*self._columns))
            fresh = [row for row in dict.fromkeys(rows) if row not in row_set]
            if fresh:
                self._append_rows(fresh)
                row_set.update(fresh)
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
                    return len(fresh)
            for cover_id in candidate_ids:
                existing = self._covers[cover_id]
                if existing.stored_at <= stored_at and box.contains_box(
                    existing.box
                ):
                    del self._covers[cover_id]
                    self._cover_index.remove(cover_id, existing.box)
            self._append_cover(
                CoveredBox(box=box, stored_at=stored_at, row_count=len(rows))
            )
            return len(fresh)

    def spent(self, policy: ConsistencyPolicy, now: float) -> float:
        """Dollars billed for purchases still fresh under ``policy`` at
        clock ``now``: spend on expired covers stops counting."""
        with self.lock:
            return sum(
                price
                for stored_at, price in self._spent.items()
                if policy.is_fresh(stored_at, now)
            )

    def _append_rows(self, fresh: list[Row]) -> None:
        """Append a deduplicated batch column-wise and chunk it.  Only a
        batch holding an off-domain value is walked row by row, to cut it
        into the runs of on-domain rows that become its chunks."""
        columns = self._columns
        if set(map(len, fresh)) != {len(columns)}:
            raise ReproError(
                f"{self.space.table}: a cached row needs {len(columns)} values"
            )
        batch = list(zip(*fresh))
        base = len(columns[0])
        for column, values in zip(columns, batch):
            column.extend(values)
        positions: list[Sequence[int | None]] = []
        on_domain = True
        for dimension, at, codes in zip(
            self.space.dimensions, self._axis_columns, self._codes
        ):
            axis = dimension.positions_of(batch[at])
            on_domain = on_domain and (axis is batch[at] or None not in axis)
            if codes is not None:
                codes.extend(axis)
            positions.append(axis)
        placed = (
            repeat(True, len(fresh))
            if on_domain
            else (None not in point for point in zip(*positions))
        )
        start = 0
        for on_axes, run in groupby(placed):
            stop = start + len(list(run))
            if on_axes:
                bounds = [
                    (min(part), max(part) + 1)
                    for part in (axis[start:stop] for axis in positions)
                ]
                self._chunk_index.insert(
                    len(self._chunks[0]), Box.unchecked(tuple(bounds))
                )
                for column, value in zip(
                    self._chunks,
                    (base + start, base + stop, *chain.from_iterable(bounds)),
                ):
                    column.append(value)
            start = stop

    def export_bulk_state(self) -> dict:
        """The table's whole persistent state as primitive containers.

        Snapshots serialize this (e.g. with pickle) and feed it back to
        :meth:`adopt_bulk_state` at cold restart, which takes the columns,
        categorical coordinates, chunk ranges, covers *and both prebuilt
        grid indexes* as they are, without re-deriving a single bucket.
        Copies are taken under the table lock, so the caller may
        serialize at leisure."""
        with self.lock:
            return {
                "covers": [
                    (cover_id, covered.box.extents, covered.stored_at,
                     covered.row_count)
                    for cover_id, covered in self._covers.items()
                ],
                "next_cover_id": self._next_cover_id,
                "columns": [list(column) for column in self._columns],
                "codes": [
                    None if codes is None else list(codes)
                    for codes in self._codes
                ],
                "chunks": [list(column) for column in self._chunks],
                "chunk_index": self._chunk_index.export_state(),
                "cover_index": self._cover_index.export_state(),
                "spent": dict(self._spent),
            }

    def adopt_bulk_state(self, state: dict) -> None:
        """Adopt an exported state wholesale (one lock, one epoch bump).

        Ownership of ``state`` transfers to the table — hand over a
        freshly deserialized value.  Only valid on an empty table."""
        with self.lock:
            if self._columns[0] or self._covers:
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
            self._columns = state["columns"]
            self._codes = state["codes"]
            self._chunks = state["chunks"]
            self._row_set = None
            self._chunk_index.adopt_state(state["chunk_index"])
            self._cover_index.adopt_state(state["cover_index"])
            self._spent = state["spent"]

    def _append_cover(self, covered: CoveredBox) -> None:
        cover_id = self._next_cover_id
        self._next_cover_id += 1
        self._covers[cover_id] = covered
        self._cover_index.insert(cover_id, covered.box)

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
        self, queries: Sequence[Box], policy: ConsistencyPolicy, now: float
    ) -> list[Box]:
        """Elementary boxes of the part of the request region ``queries``
        that must be fetched: each box's decomposition, in request order."""
        if not policy.rewriting_enabled:
            return list(queries)
        with self.lock:
            axis = None if self.debug_bruteforce else _bind_axis(queries)
            if axis is not None:
                return self._bind_remainder(queries, axis, policy, now)
            return [
                piece
                for query in queries
                for piece in remainder_decomposition(
                    query, self._fresh_overlapping_covers(query, policy, now)
                )
            ]

    def _bind_remainder(
        self,
        queries: Sequence[Box],
        axis: int,
        policy: ConsistencyPolicy,
        now: float,
    ) -> list[Box]:
        """:meth:`remainder` of a bind join's request: point boxes that
        differ on ``axis`` only.

        On that axis a point is either inside a cover's extent or outside
        it, so two keys that meet the same clipped covers in the same order
        have the same decomposition but for the key itself.  The covers are
        probed and clipped once for the whole request, the keys grouped by
        what they meet, and one decomposition per group is stamped with
        each key's extent — byte for byte what decomposing box by box
        returns (``debug_bruteforce`` does that)."""
        first = queries[0].extents
        keys = sorted({query.extents[axis] for query in queries})
        lows = [low for low, __ in keys]
        request = Box.unchecked(
            first[:axis] + ((lows[0], keys[-1][1]),) + first[axis + 1:]
        )
        # Every distinct clipped cover with the key axis taken out, and per
        # key the ones it meets (as positions in ``clips``), in cover order.
        clips: dict[tuple[Extent, ...], int] = {}
        met: list[list[int]] = [[] for __ in keys]
        for cover in self._fresh_overlapping_covers(request, policy, now):
            clipped = request.intersect(cover)
            if clipped is None:
                continue
            extents = clipped.extents
            low, high = extents[axis]
            rest = extents[:axis] + extents[axis + 1:]
            clip = clips.setdefault(rest, len(clips))
            for at in range(bisect_left(lows, low), bisect_left(lows, high)):
                met[at].append(clip)
        rests = list(clips)

        def stamped(extents: tuple[Extent, ...], key: Extent) -> Box:
            return Box.unchecked(extents[:axis] + (key,) + extents[axis:])

        shared: dict[tuple[int, ...], list[tuple[Extent, ...]]] = {}
        pieces: dict[Extent, list[Box]] = {}
        for key, meets in zip(keys, map(tuple, met)):
            decomposed = shared.get(meets)
            if decomposed is None:
                decomposed = shared[meets] = [
                    piece.extents[:axis] + piece.extents[axis + 1:]
                    for piece in remainder_decomposition(
                        stamped(first[:axis] + first[axis + 1:], key),
                        [stamped(rests[clip], key) for clip in meets],
                    )
                ]
            pieces[key] = [stamped(rest, key) for rest in decomposed]
        return [
            piece for query in queries for piece in pieces[query.extents[axis]]
        ]

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

    def _select(self, boxes: Sequence[Box]) -> list[range | list[int]]:
        """Ids of the cached rows inside the union of ``boxes``, ascending
        (= row-insertion order): a ``range`` where chunks were taken whole,
        a list where one was filtered.  The caller holds the table lock."""
        if not boxes:
            return []
        if self.debug_bruteforce:
            coords = self._coordinates()
            return [
                [
                    row_id
                    for start, stop in zip(*self._chunks[:2])
                    for row_id in range(start, stop)
                    if any(
                        box.contains_point([axis[row_id] for axis in coords])
                        for box in boxes
                    )
                ]
            ]
        products = _as_products(boxes)
        if len(products) == 1:
            return self._select_product(products[0])
        # Boxes that are no product may overlap: union their ids.
        selected: set[int] = set()
        for axes in products:
            selected.update(*self._select_product(axes))
        return [sorted(selected)]

    def _select_product(
        self, axes: Sequence[Sequence[Extent]]
    ) -> list[range | list[int]]:
        """Rows inside a cross product of per-axis extents (one range, or
        several points).  One index probe with its bounding box finds the
        chunks; each is decided axis by axis from its bounds, and only a
        straddled axis has its coordinates compared, over the rows still
        standing."""
        tests = [
            (axis[0][0], axis[0][1], range(*axis[0]), True)
            if len(axis) == 1
            else (
                min(low for low, __ in axis),
                max(high for __, high in axis),
                frozenset(low for low, __ in axis),
                False,
            )
            for axis in axes
        ]
        bounding = Box.unchecked(tuple(test[:2] for test in tests))
        starts, stops, *bounds = self._chunks
        plan = list(zip(tests, bounds[0::2], bounds[1::2], self._coordinates()))
        pieces: list[range | list[int]] = []
        for chunk_id in self._chunk_index.candidates(bounding):
            start, stop = starts[chunk_id], stops[chunk_id]
            ids: list[int] | None = None
            for (low, high, members, contiguous), lows, highs, axis in plan:
                chunk_low, chunk_high = lows[chunk_id], highs[chunk_id]
                if chunk_high <= low or high <= chunk_low:
                    break
                if contiguous:
                    if low <= chunk_low and chunk_high <= high:
                        continue
                elif chunk_high - chunk_low == 1:
                    if chunk_low in members:
                        continue
                    break
                if ids is None:
                    ids = [
                        row_id
                        for row_id, at in enumerate(axis[start:stop], start)
                        if at in members
                    ]
                else:
                    ids = [row_id for row_id in ids if axis[row_id] in members]
                if not ids:
                    break
            else:
                last = pieces[-1] if pieces else None
                if ids is not None:
                    if type(last) is list:
                        last.extend(ids)
                    else:
                        pieces.append(ids)
                elif type(last) is range and last.stop == start:
                    pieces[-1] = range(last.start, stop)
                else:
                    pieces.append(range(start, stop))
        return pieces

    def columns_in_boxes(
        self, boxes: Sequence[Box]
    ) -> tuple[tuple[Sequence[Any], ...], int]:
        """Rows inside the union of ``boxes``, assembled column-wise.

        Returns ``(columns, count)`` — one fresh sequence per schema
        attribute, in row-insertion order — so the vectorized engine can
        build a columnar relation; no row tuple is built on the way.
        """
        with self.lock:
            # A range, like a lone id, is read as the slice it spans.
            getters = [
                itemgetter(*piece)
                if type(piece) is list and len(piece) > 1
                else itemgetter(slice(piece[0], piece[-1] + 1))
                for piece in self._select(boxes)
                if piece
            ]
            if len(getters) == 1:
                columns = tuple(getters[0](c) for c in self._columns)
            else:
                columns = tuple(
                    list(chain.from_iterable(get(c) for get in getters))
                    for c in self._columns
                )
        return columns, len(columns[0])

    def rows_in_boxes(self, boxes: Sequence[Box]) -> list[Row]:
        """Cached rows inside the union of ``boxes``, in insertion order."""
        return list(zip(*self.columns_in_boxes(boxes)[0]))

    def rows_in_box(self, box: Box) -> list[Row]:
        """Cached rows whose grid point lies inside ``box``."""
        return self.rows_in_boxes([box])

    def count_in_box(self, box: Box) -> int:
        """Exact number of cached rows inside ``box``."""
        with self.lock:
            return sum(map(len, self._select([box])))

    def all_rows(self) -> list[Row]:
        """Every cached row, in insertion order (a copy)."""
        with self.lock:
            return list(zip(*self._columns))


class SemanticStore:
    """The buyer-side store of everything ever retrieved from the market."""

    def __init__(
        self,
        policy: ConsistencyPolicy | None = None,
        debug_bruteforce: bool = False,
    ):
        self.policy = policy or ConsistencyPolicy.weak()
        #: Route every probe through the flat scans (test oracle).
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

    def remainder(self, table: str, queries: Sequence[Box]) -> list[Box]:
        return self.table(table).remainder(queries, self.policy, self.clock)

    def is_covered(self, table: str, query: Box) -> bool:
        return self.table(table).is_covered(query, self.policy, self.clock)

    def effective_covers(self, table: str) -> list[Box]:
        return self.table(table).effective_covers(self.policy, self.clock)

    def record(
        self, table: str, box: Box, rows: Iterable[Row], price: float = 0.0
    ) -> int:
        return self.table(table).record(box, rows, self.clock, price)

    def spent(self, table: str) -> float:
        return self.table(table).spent(self.policy, self.clock)

    def rows_in_boxes(self, table: str, boxes: Sequence[Box]) -> list[Row]:
        return self.table(table).rows_in_boxes(boxes)

    def columns_in_boxes(
        self, table: str, boxes: Sequence[Box]
    ) -> tuple[tuple[Sequence[Any], ...], int]:
        return self.table(table).columns_in_boxes(boxes)
