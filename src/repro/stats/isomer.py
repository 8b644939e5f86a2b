"""An ISOMER-style feedback histogram over a table's box space.

The paper plugs ISOMER [Srivastava et al., ICDE'06] into PayLess as its
updatable statistic: cardinality estimates start from the textbook uniform
assumption over published domains and become *consistent with every observed
query result* as feedback arrives.  This module implements that contract
with an STHoles-flavoured structure that is simpler than full ISOMER's
iterative-scaling solver but preserves the property the optimizer needs:

* the table's total cardinality is known and fixed;
* a set of disjoint *refined boxes* carries exact observed counts;
* everything outside the refined region follows the maximum-entropy choice —
  the residual count spread uniformly over the residual volume.

Feedback with a region that overlaps existing refined boxes splits those
boxes, apportioning their counts by volume (the max-entropy assumption
within a box), then records the new region exactly — so re-estimating any
previously observed region returns its observed count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import StatisticsError
from repro.semstore.boxes import Box
from repro.semstore.space import BoxSpace

#: Soft cap on refined boxes; beyond it the smallest fragments are folded
#: back into the uniform residual to bound estimation cost (each estimate
#: is linear in this count, and Algorithm 1 estimates many boxes).
DEFAULT_MAX_BOXES = 512


@dataclass
class _Refined:
    box: Box
    count: float
    #: Cached ``box.volume()`` — the estimate hot loop reads it once per
    #: refined box per call, and recomputing the extent product dominated
    #: profile time before it was cached here.
    volume: int = 0

    def __post_init__(self) -> None:
        if self.volume == 0:
            self.volume = self.box.volume()


class FeedbackHistogram:
    """Uniform-until-observed cardinality estimates for one table."""

    def __init__(
        self,
        space: BoxSpace,
        cardinality: int,
        max_boxes: int = DEFAULT_MAX_BOXES,
    ):
        if cardinality < 0:
            raise StatisticsError("cardinality cannot be negative")
        if max_boxes < 1:
            raise StatisticsError("max_boxes must be positive")
        self.space = space
        self.cardinality = cardinality
        self.max_boxes = max_boxes
        self._refined: list[_Refined] = []
        #: Running totals over ``_refined`` (volume in grid cells, count in
        #: tuples), maintained by every writer so ``estimate`` never has to
        #: re-sum the whole list.
        self._total_refined_volume = 0
        self._total_refined_count = 0.0
        self.feedback_count = 0
        #: Guards ``_refined``/totals/``feedback_count``: concurrent
        #: sessions share one histogram per table.  Writers install a NEW
        #: list (copy-on-write, never in-place mutation), so ``estimate``
        #: only holds the lock long enough to snapshot the reference and
        #: the matching totals.
        self._lock = threading.Lock()

    # -- estimation -----------------------------------------------------------

    def estimate(self, box: Box) -> float:
        """Estimated number of tuples inside ``box``."""
        full = self.space.full_box
        query = full.intersect(box)
        if query is None:
            return 0.0
        estimate = 0.0
        query_refined_volume = 0
        with self._lock:
            # Writers replace the list wholesale, so holding the reference
            # outside the lock is safe; the totals are snapshotted with it
            # so both describe the same refined set.
            refined_snapshot = self._refined
            refined_volume = self._total_refined_volume
            refined_count = self._total_refined_count
        query_extents = query.extents
        for refined in refined_snapshot:
            # Inline the box intersection on raw extents: the hot loop
            # runs once per refined box per estimate, and allocating an
            # intermediate Box per overlap dominated its cost.
            overlap_volume = 1
            for (q_low, q_high), (r_low, r_high) in zip(
                query_extents, refined.box.extents
            ):
                low = q_low if q_low > r_low else r_low
                high = q_high if q_high < r_high else r_high
                if low >= high:
                    overlap_volume = 0
                    break
                overlap_volume *= high - low
            if overlap_volume:
                query_refined_volume += overlap_volume
                estimate += refined.count * overlap_volume / refined.volume
        residual_count = max(self.cardinality - refined_count, 0.0)
        residual_volume = full.volume() - refined_volume
        query_residual_volume = query.volume() - query_refined_volume
        if residual_volume > 0 and query_residual_volume > 0:
            estimate += residual_count * query_residual_volume / residual_volume
        return estimate

    def estimate_full(self) -> float:
        return self.estimate(self.space.full_box)

    # -- feedback -------------------------------------------------------------

    def observe(self, box: Box, actual_count: int) -> None:
        """Record that ``box`` was observed to contain ``actual_count`` tuples.

        Existing refined boxes overlapping ``box`` are split; the piece
        inside ``box`` is discarded (superseded by the exact observation)
        and the outside pieces keep a volume-proportional share of the old
        count.
        """
        if actual_count < 0:
            raise StatisticsError("observed count cannot be negative")
        full = self.space.full_box
        observed = full.intersect(box)
        if observed is None:
            return
        with self._lock:
            survivors: list[_Refined] = []
            for refined in self._refined:
                overlap = refined.box.intersect(observed)
                if overlap is None:
                    survivors.append(refined)
                    continue
                outside_pieces = refined.box.subtract(observed)
                old_volume = refined.volume
                for piece in outside_pieces:
                    survivors.append(
                        _Refined(
                            box=piece,
                            count=refined.count * piece.volume() / old_volume,
                        )
                    )
            survivors.append(
                _Refined(box=observed, count=float(actual_count))
            )
            self._refined = survivors
            self.feedback_count += 1
            if len(self._refined) > self.max_boxes:
                self._compact()
            self._recompute_totals()

    def _compact(self) -> None:
        """Fold the smallest fragments back into the uniform residual.

        Called with ``_lock`` held (only from :meth:`observe`).  Builds a
        new list rather than sorting in place — lock-free readers may
        still be iterating the current one.
        """
        self._refined = sorted(
            self._refined,
            key=lambda refined: refined.volume,
            reverse=True,
        )[: self.max_boxes // 2]

    def _recompute_totals(self) -> None:
        """Refresh the running totals.  Called with ``_lock`` held."""
        self._total_refined_volume = sum(r.volume for r in self._refined)
        self._total_refined_count = sum(r.count for r in self._refined)

    # -- persistence ------------------------------------------------------------

    def state_snapshot(self) -> dict:
        """The histogram's learned state as plain JSON-ready data.

        Paired with :meth:`restore_state`; the box JSON shape matches
        :func:`repro.durable.records.box_to_json`.
        """
        with self._lock:
            return {
                "cardinality": self.cardinality,
                "feedback_count": self.feedback_count,
                "refined": [
                    {
                        "box": [list(extent) for extent in refined.box.extents],
                        "count": refined.count,
                    }
                    for refined in self._refined
                ],
            }

    def restore_state(
        self,
        cardinality: int,
        feedback_count: int,
        refined: list[tuple[Box, float]],
    ) -> None:
        """Overwrite the learned state with a persisted one."""
        with self._lock:
            self.cardinality = cardinality
            self.feedback_count = feedback_count
            self._refined = [
                _Refined(box=box, count=count) for box, count in refined
            ]
            self._recompute_totals()

    # -- introspection ----------------------------------------------------------

    @property
    def refined_box_count(self) -> int:
        return len(self._refined)

    def refined_total(self) -> float:
        return sum(refined.count for refined in self._refined)
