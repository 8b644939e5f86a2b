"""Multi-query (batch) optimization — the paper's future-work sketch.

The conclusion of the paper: "we will incorporate multi-query optimization
in PayLess if users are willing to defer theirs to become a batch."  When
several queries are available at once, the *order* they execute in changes
the bill: running a broad query first makes narrower overlapping queries
free, while running the narrow ones first buys the same region in fragments
— and every fragment pays its own ``ceil(rows/t)`` rounding.

The heuristic here is deliberately simple (it is future work in the paper):
estimate each query's request-region size per market table and execute in
descending containment order — queries whose regions are supersets of
others go first; ties break toward larger estimated regions.  The serving
front-end's ``QueryScheduler.flush`` runs a deferred batch in this order.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.payless import PayLess
from repro.relational.query import LogicalQuery
from repro.semstore.boxes import Box, covers_fully


def _request_regions(
    payless: PayLess, query: LogicalQuery
) -> dict[str, list[Box]]:
    """The per-market-table region each query asks for (pre-binding)."""
    regions: dict[str, list[Box]] = {}
    for table in query.tables:
        if not payless.context.is_market(table):
            continue
        statistics = payless.catalog.statistics(table)
        boxes = statistics.space.boxes_for_constraints(
            query.constraints_for(table)
        )
        regions[table.lower()] = boxes
    return regions


def _region_size(payless: PayLess, regions: dict[str, list[Box]]) -> float:
    total = 0.0
    for table, boxes in regions.items():
        statistics = payless.catalog.statistics(table)
        total += sum(statistics.histogram.estimate(box) for box in boxes)
    return total


def _contains(outer: dict[str, list[Box]], inner: dict[str, list[Box]]) -> bool:
    """Whether ``outer``'s regions cover ``inner``'s on every shared table."""
    shared = set(outer) & set(inner)
    if not shared:
        return False
    for table in shared:
        for box in inner[table]:
            if not covers_fully(box, outer[table]):
                return False
    return True


def plan_batch_order(
    payless: PayLess, queries: Sequence[LogicalQuery]
) -> list[int]:
    """Execution order: containing queries first, then by region size."""
    regions = [_request_regions(payless, query) for query in queries]
    sizes = [_region_size(payless, region) for region in regions]
    # Count how many other queries each one (at least partially) dominates.
    dominated = [0] * len(queries)
    for i, outer in enumerate(regions):
        for j, inner in enumerate(regions):
            if i != j and _contains(outer, inner):
                dominated[i] += 1
    order = sorted(
        range(len(queries)),
        key=lambda index: (dominated[index], sizes[index]),
        reverse=True,
    )
    return order
