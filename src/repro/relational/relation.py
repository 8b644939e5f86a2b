"""The columnar :class:`Relation`: tuple-of-columns with a lazy row view.

Intermediate results used to be bags of row tuples that every operator
immediately re-destructured.  The vectorized engine stores a relation as
one Python sequence per column instead, which lets the hot kernels run at
C speed (``itertools.compress`` for filters, ``map(column.__getitem__,
indices)`` for join gathers, ``list.count``/``sum``/``min``/``max`` for
aggregates) — while ``relation.rows`` stays available as a lazily
materialized view so every existing caller (the executor's staging loop,
``QueryResult.rows``, the reference engine) keeps working unchanged.

A relation can be built either way and converts on demand, caching the
other representation:

* ``Relation(layout, rows)`` — row-backed (the historical constructor);
* ``Relation.from_columns(layout, columns, count)`` — column-backed.

Relations are treated as immutable by every operator; sharing column
sequences between input and output (projection is zero-copy) is safe.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.relational.expressions import Row, RowLayout


class Relation:
    """A materialized intermediate result: columns + layout (+ lazy rows)."""

    __slots__ = ("layout", "_rows", "_columns", "_count")

    def __init__(self, layout: RowLayout, rows: list[Row] | None = None):
        self.layout = layout
        self._rows: list[Row] | None = rows if rows is not None else []
        self._columns: tuple[Sequence[Any], ...] | None = None
        self._count: int = len(self._rows)

    @classmethod
    def from_columns(
        cls,
        layout: RowLayout,
        columns: Sequence[Sequence[Any]],
        count: int | None = None,
    ) -> "Relation":
        """A column-backed relation; ``count`` defaults to the column length."""
        if len(columns) != len(layout):
            raise ExecutionError(
                f"relation has {len(columns)} columns, layout has {len(layout)}"
            )
        relation = cls.__new__(cls)
        relation.layout = layout
        relation._rows = None
        relation._columns = tuple(columns)
        if count is None:
            count = len(columns[0]) if columns else 0
        relation._count = count
        return relation

    def __len__(self) -> int:
        return self._count

    @property
    def rows(self) -> list[Row]:
        """The row-tuple view, materialized from the columns on first use."""
        if self._rows is None:
            if self._columns:
                self._rows = list(zip(*self._columns))
            else:
                # No column to zip: a zero-width relation still has rows.
                self._rows = [()] * self._count
        return self._rows

    @property
    def columns_data(self) -> tuple[Sequence[Any], ...]:
        """One sequence per column, transposed from the rows on first use."""
        if self._columns is None:
            rows = self._rows
            if rows:
                self._columns = tuple(zip(*rows))
            else:
                self._columns = tuple(() for __ in range(len(self.layout)))
        return self._columns

    def column(self, position: int) -> Sequence[Any]:
        return self.columns_data[position]

    def column_values(self, table: str | None, column: str) -> list[Any]:
        return list(self.column(self.layout.resolve(table, column)))

    def distinct_values(self, table: str | None, column: str) -> set[Any]:
        return set(self.column(self.layout.resolve(table, column)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.layout.columns == other.layout.columns
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        backing = "columnar" if self._rows is None else "rows"
        return (
            f"Relation({len(self.layout)} cols × {self._count} rows, {backing})"
        )
