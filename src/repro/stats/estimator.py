"""Cardinality estimation helpers on top of the catalog.

These are the "basic textbook methods" the paper falls back on before
feedback exists (Section 4.3): uniform distribution over published domains,
attribute-independence, and containment-of-value-sets for joins.  Once the
feedback histogram has observations the same entry points transparently
return refined estimates, because they all route through the histogram.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.relational.query import AttributeConstraint
from repro.semstore.boxes import Box
from repro.stats.catalog import TableStatistics


def estimate_box(statistics: TableStatistics, box: Box) -> float:
    """Estimated tuples of a table inside ``box``."""
    return statistics.histogram.estimate(box)


def estimate_boxes(statistics: TableStatistics, boxes: Sequence[Box]) -> float:
    """Estimated tuples inside a union of disjoint boxes."""
    return sum(statistics.histogram.estimate(box) for box in boxes)


def estimate_constraints(
    statistics: TableStatistics,
    constraints: Sequence[AttributeConstraint],
) -> float:
    """Estimated tuples matching a conjunction of (pushable) constraints."""
    boxes = statistics.space.boxes_for_constraints(constraints)
    return estimate_boxes(statistics, boxes)


def estimate_distinct(
    statistics: TableStatistics,
    attribute: str,
    tuple_count: float,
) -> float:
    """Expected distinct values of ``attribute`` among ``tuple_count`` tuples.

    Textbook balls-into-bins: with ``d`` possible values and ``n`` tuples,
    ``d * (1 - (1 - 1/d)^n)``, capped by both ``d`` and ``n``.
    """
    if tuple_count <= 0:
        return 0.0
    domain = statistics.domain_size(attribute)
    if domain <= 0:
        return 0.0
    expected = domain * (1.0 - math.pow(1.0 - 1.0 / domain, tuple_count))
    return min(expected, float(domain), tuple_count)
