"""A straightforward evaluator for :class:`LogicalQuery` over a :class:`Database`.

This is the "DBMS query engine" box of the paper's architecture (Figure 3):
once PayLess has materialized all required data-market rows locally, the
final join/aggregate work happens here.  The *plan* is deliberately simple —
scan, filter, hash-join in join-graph order, then aggregate/sort/limit —
and it reads only the columns the query names: each scan evaluates its
table's selection over the whole row, then emits just the columns some
join, grouping, aggregate argument, output, HAVING or ORDER BY refers to
(everything for ``SELECT *``), so no join carries a column nothing above
it reads.  The pruning lives in :func:`evaluate`, above the operator set,
so it cannot split the two interchangeable implementations that execute
the plan:

* ``"vectorized"`` (the default): columnar batches + compiled expression
  kernels (:mod:`repro.relational.operators`) — the one PayLess runs;
* ``"reference"``: the original row-at-a-time interpreter
  (:mod:`repro.relational.reference`), kept as a differential test oracle.

Both produce identical results, row order included.  An installation has
no engine switch: :class:`ExecutionConfig` picks the operator set only for
a direct :func:`evaluate` call, which is how
:func:`repro.testing.oracle_evaluate` and the parity suite
(``tests/test_engine_parity.py``) run the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ExecutionError
from repro.relational import operators as _vectorized
from repro.relational import reference as _reference
from repro.relational.database import Database
from repro.relational.expressions import ColumnRef, conjunction
from repro.relational.operators import Relation
from repro.relational.query import LogicalQuery

#: engine name -> operator module (same function-level API in each).
_ENGINES = {
    "vectorized": _vectorized,
    "reference": _reference,
}


@dataclass(frozen=True)
class ExecutionConfig:
    """How local evaluation runs; ``engine`` selects the operator set."""

    engine: str = "vectorized"

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ExecutionError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{sorted(_ENGINES)}"
            )

    @property
    def ops(self):
        """The operator module implementing this engine."""
        return _ENGINES[self.engine]


DEFAULT_EXECUTION = ExecutionConfig()


def _referenced_columns(query: LogicalQuery) -> list[ColumnRef] | None:
    """Every column the query reads after selection; ``None`` = all of them.

    Joins, grouping, aggregate arguments, plain outputs, HAVING and ORDER
    BY — constraints and residuals are applied at the scan, before anything
    is dropped.  ``SELECT *`` outputs every column, so nothing is pruned.
    """
    if query.is_star:
        return None
    refs: list[ColumnRef] = []
    for join in query.joins:
        refs += (join.left, join.right)
    refs += query.group_by
    for output in query.outputs:
        if output.column is not None:
            refs.append(output.column)
        elif output.aggregate.arg is not None:
            refs += output.aggregate.arg.columns()
    if query.having is not None:
        refs += query.having.columns()
    refs += query.order_by
    return refs


def _scan_with_selection(
    database: Database,
    query: LogicalQuery,
    name: str,
    ops,
    referenced: list[ColumnRef] | None,
) -> Relation:
    """Scan ``name``, apply its selection, emit the ``referenced`` columns.

    A reference without a table (an unqualified column, or an aggregate
    alias in HAVING / ORDER BY) keeps the column of that name in every
    table that has one: it may mean any of them.
    """
    table = database.table(name)
    relation = ops.scan(table, alias=name)
    keep = None
    if referenced is not None:
        lowered = name.lower()
        wanted = {
            ref.column.lower()
            for ref in referenced
            if ref.table is None or ref.table.lower() == lowered
        }
        names = table.schema.names
        kept = [column for column in names if column.lower() in wanted]
        if len(kept) < len(names):
            keep = [ColumnRef(name, column) for column in kept]
    predicates = [c.to_expression(name) for c in query.constraints_for(name)]
    predicates.extend(query.residuals_for(name))
    if predicates:
        return ops.filter_rows(relation, conjunction(predicates), keep)
    if keep is not None:
        return ops.project(relation, keep)
    return relation


def _join_order(query: LogicalQuery) -> list[str]:
    """Tables ordered so each (when possible) joins something already placed."""
    remaining = list(query.tables)
    ordered: list[str] = []
    while remaining:
        placed_lower = {name.lower() for name in ordered}
        chosen = None
        if ordered:
            for candidate in remaining:
                if query.joins_between(placed_lower, candidate):
                    chosen = candidate
                    break
        if chosen is None:
            chosen = remaining[0]
        remaining.remove(chosen)
        ordered.append(chosen)
    return ordered


def evaluate(
    database: Database,
    query: LogicalQuery,
    execution: ExecutionConfig | None = None,
) -> Relation:
    """Evaluate ``query`` against ``database`` and return the result relation."""
    if not query.tables:
        raise ExecutionError("query references no tables")
    ops = (execution or DEFAULT_EXECUTION).ops

    referenced = _referenced_columns(query)
    ordered = _join_order(query)
    result = _scan_with_selection(database, query, ordered[0], ops, referenced)
    joined = [ordered[0]]
    for name in ordered[1:]:
        right = _scan_with_selection(database, query, name, ops, referenced)
        join_predicates = query.joins_between(joined, name)
        if join_predicates:
            keys = []
            for join in join_predicates:
                right_ref = join.side_for(name)
                left_ref = join.other_side(name)
                keys.append((left_ref, right_ref))
            result = ops.hash_join(result, right, keys)
        else:
            result = ops.cross_product(result, right)
        joined.append(name)

    if query.has_aggregates:
        result = ops.aggregate_rows(result, query.group_by, query.aggregates)
        if query.having is not None:
            result = ops.filter_rows(result, query.having)
    elif query.group_by:
        result = ops.distinct(ops.project(result, query.group_by))
    elif not query.is_star:
        result = ops.project(result, [out.column for out in query.outputs])

    if query.select_distinct:
        result = ops.distinct(result)
    if query.order_by:
        result = ops.sort(result, query.order_by, query.order_descending or None)
    if query.limit is not None:
        result = ops.limit(result, query.limit)
    return result


def row_count(
    database: Database,
    query: LogicalQuery,
    execution: ExecutionConfig | None = None,
) -> int:
    """Number of rows ``query`` yields — convenience for tests/validation."""
    return len(evaluate(database, query, execution))
