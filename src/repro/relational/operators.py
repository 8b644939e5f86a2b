"""Vectorized physical operators over columnar relations.

A :class:`Relation` is stored as one sequence per column (see
:mod:`repro.relational.relation`); operators are plain functions from
relations to relations with the same signatures the row-at-a-time engine
always had, so the executor, rewriter-remainder assembly, and obs spans
work unchanged.  Internally every hot path is batch-wise:

* ``filter_rows`` compiles the predicate to a single mask kernel
  (:mod:`repro.relational.compile`) and selects each column the caller
  keeps with ``itertools.compress`` — no per-row interpreter dispatch;
* ``project`` is zero-copy (the output shares column sequences);
* ``hash_join`` builds buckets of *row indices* from the key columns and
  gathers output columns with ``map(column.__getitem__, indices)``;
* ``aggregate_rows`` streams: one pass assigns group indices, then each
  aggregate folds its compiled value column into per-group accumulators
  (with C-level ``sum``/``min``/``max``/``list.count`` fast paths when a
  batch has no NULLs) — no per-group row lists.

Semantics — including the NULL rules (NULL join keys never match,
``COUNT(col)`` counts non-NULL only, SUM/AVG/MIN/MAX skip NULLs, sort is
NULLS LAST) *and* output row order — are identical to the row-at-a-time
oracle in :mod:`repro.relational.reference`; the parity suite asserts
exact equality between the two engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Iterable, Sequence

from repro.errors import ExecutionError
from repro.relational.compile import predicate_kernel, value_kernel
from repro.relational.expressions import (
    ColumnRef,
    Expression,
    Row,
    RowLayout,
)
from repro.relational.relation import Relation
from repro.relational.table import Table

__all__ = [
    "Aggregate",
    "Relation",
    "aggregate_rows",
    "cross_product",
    "distinct",
    "filter_rows",
    "hash_join",
    "limit",
    "project",
    "scan",
    "sort",
    "union_all",
]


def scan(table: Table, alias: str | None = None) -> Relation:
    """Full scan of ``table``, columns qualified by ``alias`` (or table name).

    Builds the relation directly from the table's cached column snapshot —
    no row tuples are materialized until something asks for them.
    """
    name = alias or table.name
    layout = RowLayout.for_table(name, table.schema.names)
    return Relation.from_columns(layout, table.columns_snapshot(), len(table))


def filter_rows(
    relation: Relation,
    predicate: Expression,
    keep: Sequence[ColumnRef] | None = None,
) -> Relation:
    """Keep only rows satisfying ``predicate`` (batch mask + compress).

    With ``keep`` the output holds just those columns, in that order: the
    mask is computed over the whole relation (the predicate may read any
    column), ``compress`` runs over the kept columns only.
    """
    kernel = predicate_kernel(predicate, relation.layout)
    source = relation if keep is None else project(relation, keep)
    if kernel.constant is not None:
        if kernel.constant:
            return source
        return Relation.from_columns(
            source.layout, tuple(() for __ in range(len(source.layout))), 0
        )
    mask = kernel.mask(relation.columns_data, len(relation))
    selected = tuple(list(compress(column, mask)) for column in source.columns_data)
    # A zero-width output has no column to measure: count the mask.
    count = len(selected[0]) if selected else sum(map(bool, mask))
    return Relation.from_columns(source.layout, selected, count)


def project(relation: Relation, refs: Sequence[ColumnRef]) -> Relation:
    """Project to the given column references, in order (bag semantics).

    Zero-copy: the output relation shares the selected column sequences.
    """
    positions = [relation.layout.resolve(ref.table, ref.column) for ref in refs]
    layout = RowLayout([(ref.table, ref.column) for ref in refs])
    columns = relation.columns_data
    return Relation.from_columns(
        layout, tuple(columns[p] for p in positions), len(relation)
    )


def _key_iter(columns: Sequence[Sequence[Any]], positions: Sequence[int]):
    """Join/group keys for every row: scalars for one key column, tuples else."""
    if len(positions) == 1:
        return columns[positions[0]]
    return zip(*(columns[p] for p in positions))


def hash_join(
    left: Relation,
    right: Relation,
    keys: Sequence[tuple[ColumnRef, ColumnRef]],
) -> Relation:
    """Equi-join on ``keys`` (pairs of left-side / right-side references).

    Builds index buckets on the smaller input, probes with the key column
    of the larger, and gathers output columns positionally.  Rows with a
    NULL in any join key never match (SQL: ``NULL = NULL`` is not true).
    The output layout is the concatenation ``left ++ right``.
    """
    if not keys:
        return cross_product(left, right)
    left_positions = [left.layout.resolve(l.table, l.column) for l, _ in keys]
    right_positions = [right.layout.resolve(r.table, r.column) for _, r in keys]

    build_right = len(right) <= len(left)
    if build_right:
        build_rel, probe_rel = right, left
        build_positions, probe_positions = right_positions, left_positions
    else:
        build_rel, probe_rel = left, right
        build_positions, probe_positions = left_positions, right_positions

    build_columns = build_rel.columns_data
    probe_columns = probe_rel.columns_data
    single_key = len(build_positions) == 1

    buckets: dict[Any, list[int]] = {}
    for index, key in enumerate(_key_iter(build_columns, build_positions)):
        if (key is None) if single_key else (None in key):
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [index]
        else:
            bucket.append(index)

    # NULL probe keys can never hit a bucket (NULL build keys were skipped),
    # so no probe-side check is needed.
    probe_count = len(probe_rel)
    probe_indices: list[int] | None
    if single_key and all(len(bucket) == 1 for bucket in buckets.values()):
        # Foreign-key shape: every build key is unique, so each probe row
        # has at most one match and output order is probe order either way.
        # The probe loop collapses to one C-level ``map`` over the key
        # column (a NULL probe key gets the miss sentinel, as required).
        index_of = {key: bucket[0] for key, bucket in buckets.items()}
        hits = list(map(index_of.get, probe_columns[probe_positions[0]]))
        if None in hits:
            mask = [hit is not None for hit in hits]
            build_indices = list(compress(hits, mask))
            probe_indices = list(compress(range(probe_count), mask))
        else:
            build_indices = hits
            probe_indices = None  # every probe row matched: identity gather
    else:
        probe_indices = []
        build_indices = []
        bucket_get = buckets.get
        for index, key in enumerate(_key_iter(probe_columns, probe_positions)):
            bucket = bucket_get(key)
            if bucket is None:
                continue
            if len(bucket) == 1:
                probe_indices.append(index)
                build_indices.append(bucket[0])
            else:
                probe_indices.extend(repeat(index, len(bucket)))
                build_indices.extend(bucket)

    if probe_indices is None:
        count = probe_count
        probe_part = probe_columns  # zero-copy pass-through
    else:
        count = len(probe_indices)
        probe_part = tuple(
            list(map(c.__getitem__, probe_indices)) for c in probe_columns
        )
    build_part = tuple(
        list(map(c.__getitem__, build_indices)) for c in build_columns
    )
    output = probe_part + build_part if build_right else build_part + probe_part
    return Relation.from_columns(
        left.layout.concat(right.layout), output, count
    )


def cross_product(left: Relation, right: Relation) -> Relation:
    """Cartesian product; layout is ``left ++ right``."""
    n_left, n_right = len(left), len(right)
    left_part = tuple(
        [value for value in column for __ in range(n_right)]
        for column in left.columns_data
    )
    right_part = tuple(list(column) * n_left for column in right.columns_data)
    return Relation.from_columns(
        left.layout.concat(right.layout), left_part + right_part, n_left * n_right
    )


def distinct(relation: Relation) -> Relation:
    """Remove duplicate rows, preserving first-seen order."""
    return Relation(relation.layout, list(dict.fromkeys(relation.rows)))


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
    if len(relation) <= count:
        return relation
    return Relation.from_columns(
        relation.layout,
        tuple(column[:count] for column in relation.columns_data),
        count,
    )


def union_all(relations: Iterable[Relation]) -> Relation:
    """Bag union of relations sharing column count (layout of the first)."""
    relations = list(relations)
    if not relations:
        raise ExecutionError("union_all of zero relations")
    width = len(relations[0].layout)
    for relation in relations:
        if len(relation.layout) != width:
            raise ExecutionError("union_all: mismatched column counts")
    columns = tuple(
        [value for relation in relations for value in relation.column(p)]
        for p in range(width)
    )
    return Relation.from_columns(
        relations[0].layout, columns, sum(len(r) for r in relations)
    )


@dataclass(frozen=True)
class Aggregate:
    """A single aggregate: ``func`` over ``arg`` (None means ``*``).

    ``arg`` may be any scalar :class:`Expression` — a plain column or an
    arithmetic combination like ``ExtendedPrice * Discount``.
    """

    func: str  # COUNT, SUM, AVG, MIN, MAX
    arg: Expression | None
    alias: str

    _SUPPORTED = ("COUNT", "SUM", "AVG", "MIN", "MAX")

    def __post_init__(self) -> None:
        if self.func not in self._SUPPORTED:
            raise ExecutionError(f"unsupported aggregate {self.func}")
        if self.func != "COUNT" and self.arg is None:
            raise ExecutionError(f"{self.func} requires a column argument")


def _fold_global(func: str, values: list[Any]) -> Any:
    """One aggregate over a whole value batch, skipping NULLs.

    When the batch has no NULLs everything runs at C level
    (``list.count`` to detect, then ``sum``/``min``/``max`` directly).
    """
    nulls = values.count(None)
    if func == "COUNT":
        return len(values) - nulls
    if nulls:
        values = [value for value in values if value is not None]
        if not values:
            return None
    elif not values:
        return None
    if func == "SUM":
        return sum(values)
    if func == "AVG":
        return sum(values) / len(values)
    if func == "MIN":
        return min(values)
    return max(values)


def _fold_grouped(
    func: str, values: list[Any], group_index: list[int], n_groups: int
) -> list[Any]:
    """One aggregate folded into per-group accumulators in a single pass."""
    if func == "COUNT":
        counts = [0] * n_groups
        for group, value in zip(group_index, values):
            if value is not None:
                counts[group] += 1
        return counts
    seen = [0] * n_groups
    if func in ("SUM", "AVG"):
        sums: list[Any] = [0] * n_groups
        for group, value in zip(group_index, values):
            if value is not None:
                sums[group] += value
                seen[group] += 1
        if func == "SUM":
            return [s if c else None for s, c in zip(sums, seen)]
        return [s / c if c else None for s, c in zip(sums, seen)]
    best: list[Any] = [None] * n_groups
    if func == "MIN":
        for group, value in zip(group_index, values):
            if value is not None:
                current = best[group]
                if current is None or value < current:
                    best[group] = value
    else:  # MAX
        for group, value in zip(group_index, values):
            if value is not None:
                current = best[group]
                if current is None or value > current:
                    best[group] = value
    return best


def aggregate_rows(
    relation: Relation,
    group_by: Sequence[ColumnRef],
    aggregates: Sequence[Aggregate],
) -> Relation:
    """GROUP BY + aggregate evaluation, streaming (no per-group row lists).

    With an empty ``group_by`` this produces exactly one row (global
    aggregation), even over an empty input — matching SQL semantics.
    ``COUNT(*)`` counts rows; every other aggregate sees only the
    non-NULL values of its argument.
    """
    layout = RowLayout(
        [(ref.table, ref.column) for ref in group_by]
        + [(None, aggregate.alias) for aggregate in aggregates]
    )
    columns = relation.columns_data
    count = len(relation)

    def value_batch(aggregate: Aggregate) -> list[Any]:
        return value_kernel(aggregate.arg, relation.layout).values(columns, count)

    if not group_by:
        computed = tuple(
            count
            if aggregate.arg is None
            else _fold_global(aggregate.func, value_batch(aggregate))
            for aggregate in aggregates
        )
        return Relation(layout, [computed])

    group_positions = [
        relation.layout.resolve(ref.table, ref.column) for ref in group_by
    ]
    single_key = len(group_positions) == 1

    # Single pass: assign every row its group index, groups in first-seen order.
    group_index: list[int] = []
    group_keys: list[tuple[Any, ...]] = []
    index_of: dict[Any, int] = {}
    append_index = group_index.append
    for key in _key_iter(columns, group_positions):
        group = index_of.get(key)
        if group is None:
            group = len(group_keys)
            index_of[key] = group
            group_keys.append((key,) if single_key else key)
        append_index(group)
    n_groups = len(group_keys)

    aggregate_columns: list[list[Any]] = []
    for aggregate in aggregates:
        if aggregate.arg is None:
            counts = [0] * n_groups
            for group in group_index:
                counts[group] += 1
            aggregate_columns.append(counts)
        else:
            aggregate_columns.append(
                _fold_grouped(
                    aggregate.func, value_batch(aggregate), group_index, n_groups
                )
            )

    output = [
        group_keys[g] + tuple(column[g] for column in aggregate_columns)
        for g in range(n_groups)
    ]
    return Relation(layout, output)
