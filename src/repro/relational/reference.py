"""Row-at-a-time reference operators — the differential test oracle.

This module preserves the original interpreter-style engine: expressions
bound to per-row callables, tuple-building joins, list-of-rows GROUP BY.
It is deliberately simple and obviously correct, and the parity suite
(``tests/test_engine_parity.py``) runs every operator through both this
module and the vectorized :mod:`repro.relational.operators`, asserting
*identical* output — the same oracle pattern the semantic store uses for
``debug_bruteforce``.

Both engines implement the same SQL semantics, including the NULL rules:
``hash_join`` never matches ``NULL = NULL`` keys, ``COUNT(col)`` counts
only non-NULL values, SUM/AVG/MIN/MAX skip NULLs (and return NULL over
zero non-NULL inputs), and ``sort`` orders NULLs last regardless of sort
direction.  Row *order* is also identical by construction (same
build-side tie-break in joins, insertion-ordered groups, stable sorts),
so parity tests compare row lists exactly.

PayLess always executes with the vectorized operators; this module runs
only where a query is evaluated with ``ExecutionConfig(engine="reference")``
(see :mod:`repro.relational.engine`), as
:func:`repro.testing.oracle_evaluate` does to compute ground truth.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExecutionError
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    Row,
    RowLayout,
)
from repro.relational.operators import Aggregate
from repro.relational.relation import Relation
from repro.relational.table import Table


def scan(table: Table, alias: str | None = None) -> Relation:
    """Full scan of ``table``, columns qualified by ``alias`` (or table name)."""
    name = alias or table.name
    layout = RowLayout.for_table(name, table.schema.names)
    return Relation(layout, list(table.rows))


def filter_rows(
    relation: Relation,
    predicate: Expression,
    keep: Sequence[ColumnRef] | None = None,
) -> Relation:
    """Keep only rows satisfying ``predicate``; with ``keep``, project the
    survivors to those columns."""
    check = predicate.bind(relation.layout)
    kept = Relation(relation.layout, [row for row in relation.rows if check(row)])
    return kept if keep is None else project(kept, keep)


def project(relation: Relation, refs: Sequence[ColumnRef]) -> Relation:
    """Project to the given column references, in order (bag semantics)."""
    positions = [relation.layout.resolve(ref.table, ref.column) for ref in refs]
    layout = RowLayout([(ref.table, ref.column) for ref in refs])
    rows = [tuple(row[p] for p in positions) for row in relation.rows]
    return Relation(layout, rows)


def hash_join(
    left: Relation,
    right: Relation,
    keys: Sequence[tuple[ColumnRef, ColumnRef]],
) -> Relation:
    """Equi-join on ``keys`` (pairs of left-side / right-side references).

    Builds a hash table on the smaller input.  Rows with a NULL in any
    join key never match (SQL: ``NULL = NULL`` is not true) and are
    skipped on both sides.  The output layout is ``left ++ right``.
    """
    if not keys:
        return cross_product(left, right)
    left_positions = [left.layout.resolve(l.table, l.column) for l, _ in keys]
    right_positions = [right.layout.resolve(r.table, r.column) for _, r in keys]

    build_right = len(right.rows) <= len(left.rows)
    if build_right:
        build, probe = right.rows, left.rows
        build_positions, probe_positions = right_positions, left_positions
    else:
        build, probe = left.rows, right.rows
        build_positions, probe_positions = left_positions, right_positions

    buckets: dict[tuple[Any, ...], list[Row]] = {}
    for row in build:
        key = tuple(row[p] for p in build_positions)
        if None in key:
            continue
        buckets.setdefault(key, []).append(row)

    output: list[Row] = []
    for row in probe:
        key = tuple(row[p] for p in probe_positions)
        if None in key:
            continue
        matches = buckets.get(key)
        if not matches:
            continue
        if build_right:
            output.extend(row + match for match in matches)
        else:
            output.extend(match + row for match in matches)
    return Relation(left.layout.concat(right.layout), output)


def cross_product(left: Relation, right: Relation) -> Relation:
    """Cartesian product; layout is ``left ++ right``."""
    output = [l + r for l in left.rows for r in right.rows]
    return Relation(left.layout.concat(right.layout), output)


def distinct(relation: Relation) -> Relation:
    """Remove duplicate rows, preserving first-seen order."""
    seen: set[Row] = set()
    output: list[Row] = []
    for row in relation.rows:
        if row not in seen:
            seen.add(row)
            output.append(row)
    return Relation(relation.layout, output)


def sort(
    relation: Relation,
    refs: Sequence[ColumnRef],
    descending: Sequence[bool] | None = None,
) -> Relation:
    """Sort by the given columns; ``descending[i]`` flips the i-th key.

    NULLs order last in both directions (deterministic NULLS LAST), and
    the sort key never compares ``None`` against a value.
    """
    positions = [relation.layout.resolve(ref.table, ref.column) for ref in refs]
    flags = list(descending) if descending is not None else [False] * len(positions)
    if len(flags) != len(positions):
        raise ExecutionError("sort: descending flags do not match sort keys")
    rows = list(relation.rows)
    # Stable sort applied key-by-key from the least-significant key.
    for position, flag in reversed(list(zip(positions, flags))):
        if flag:
            # reverse=True flips the null flag too, so "is not None" puts
            # NULLs last after the reversal.
            rows.sort(
                key=lambda row: ((v := row[position]) is not None, v),
                reverse=True,
            )
        else:
            rows.sort(key=lambda row: ((v := row[position]) is None, v))
    return Relation(relation.layout, rows)


def limit(relation: Relation, count: int) -> Relation:
    return Relation(relation.layout, relation.rows[:count])


def union_all(relations: Iterable[Relation]) -> Relation:
    """Bag union of relations sharing column count (layout of the first)."""
    relations = list(relations)
    if not relations:
        raise ExecutionError("union_all of zero relations")
    width = len(relations[0].layout)
    rows: list[Row] = []
    for relation in relations:
        if len(relation.layout) != width:
            raise ExecutionError("union_all: mismatched column counts")
        rows.extend(relation.rows)
    return Relation(relations[0].layout, rows)


def _evaluate_aggregate(aggregate: Aggregate, values: list[Any]) -> Any:
    values = [value for value in values if value is not None]
    if aggregate.func == "COUNT":
        return len(values)
    if not values:
        return None
    if aggregate.func == "SUM":
        return sum(values)
    if aggregate.func == "AVG":
        return sum(values) / len(values)
    if aggregate.func == "MIN":
        return min(values)
    return max(values)


def aggregate_rows(
    relation: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """GROUP BY + aggregate evaluation.

    With an empty ``group_by`` this produces exactly one row (global
    aggregation), even over an empty input — matching SQL semantics.
    ``COUNT(*)`` counts rows; every other aggregate sees only the
    non-NULL values of its argument.
    """
    group_positions = [
        relation.layout.resolve(ref.table, ref.column) for ref in group_by
    ]
    value_getters: list[Callable[[Row], Any] | None] = []
    for aggregate in aggregates:
        if aggregate.arg is None:
            value_getters.append(None)
        else:
            value_getters.append(aggregate.arg.bind(relation.layout))

    groups: dict[tuple[Any, ...], list[Row]] = {}
    for row in relation.rows:
        groups.setdefault(tuple(row[p] for p in group_positions), []).append(row)
    if not group_by and not groups:
        groups[()] = []

    layout = RowLayout(
        [(ref.table, ref.column) for ref in group_by]
        + [(None, aggregate.alias) for aggregate in aggregates]
    )
    output: list[Row] = []
    for key, rows in groups.items():
        computed = []
        for aggregate, getter in zip(aggregates, value_getters):
            if getter is None:
                computed.append(len(rows))
            else:
                values = [getter(row) for row in rows]
                computed.append(_evaluate_aggregate(aggregate, values))
        output.append(key + tuple(computed))
    return Relation(layout, output)
