"""A simple row-store table.

Tables are append-only — the paper (Section 2.1) observes that data-market
datasets are append-only because they are released for analytics — and that
assumption also keeps the semantic store sound (stored results never go
stale under the default *weak* consistency level).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.schema import Schema

Row = tuple[Any, ...]


class Table:
    """An in-memory, append-only row store with a fixed :class:`Schema`.

    Every stored value has been through :meth:`AttributeType.coerce`, or is
    known to be a value ``coerce`` returns unchanged: :meth:`extend` and
    :meth:`from_columns` check a whole batch per column
    (``set(map(type, column))`` against the attribute's exact type) and
    fall back to the per-row :meth:`append` loop for any batch that is not
    exact everywhere, so coercions, rejections and their messages are
    those of :meth:`append` whichever way a row arrives.
    """

    def __init__(self, name: str, schema: Schema, rows: Iterable[Sequence[Any]] = ()):
        if not name:
            raise SchemaError("table name must be non-empty")
        self.name = name
        self.schema = schema
        #: ``None`` while the table is column-backed (:meth:`from_columns`)
        #: and nothing has asked for row tuples yet.
        self._rows: list[Row] | None = []
        self._columns_cache: tuple[int, tuple[Sequence[Any], ...]] | None = None
        self.extend(rows)

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        count: int,
    ) -> "Table":
        """A table adopting ``columns`` (one sequence of ``count`` values per
        attribute) as its column snapshot, so a scan of it is zero-copy.

        Equivalent to ``Table(name, schema, zip(*columns))`` — which is
        what runs when a column is not exact — except that the caller must
        not mutate the sequences afterwards.
        """
        columns = tuple(columns)
        if any(len(column) != count for column in columns):
            raise TypeMismatchError(
                f"{name}: columns have {[len(c) for c in columns]} values, "
                f"expected {count} each"
            )
        if len(columns) != len(schema) or not _columns_exact(schema, columns):
            # Also the empty case: no column of no values is "exact".
            return cls(name, schema, zip(*columns))
        table = cls(name, schema)
        table._rows = None
        table._columns_cache = (count, columns)
        return table

    def __len__(self) -> int:
        rows = self._rows
        return len(rows) if rows is not None else self._columns_cache[0]

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows)"

    @property
    def rows(self) -> list[Row]:
        """The underlying row list (treat as read-only)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = list(zip(*self._columns_cache[1]))
        return rows

    def append(self, row: Sequence[Any]) -> None:
        """Validate ``row`` against the schema and append it."""
        if len(row) != len(self.schema):
            raise TypeMismatchError(
                f"{self.name}: row has {len(row)} values, schema has {len(self.schema)}"
            )
        coerced = tuple(
            attribute.type.coerce(value)
            for attribute, value in zip(self.schema, row)
        )
        self.rows.append(coerced)

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append every row of ``rows``, exactly as repeated :meth:`append`.

        A batch of plain tuples of the schema's width whose every column
        holds only the attribute's exact type is adopted as it stands;
        anything else takes the per-row loop, which coerces what can be
        coerced and raises at the first row that cannot, leaving the rows
        before it appended.
        """
        batch: list[Sequence[Any]] = []
        try:
            # list.extend keeps what it consumed if the iterable raises.
            batch.extend(rows)
        finally:
            self._extend_batch(batch)

    def _extend_batch(self, batch: list[Sequence[Any]]) -> None:
        if set(map(type, batch)) == {tuple} and set(map(len, batch)) == {
            len(self.schema)
        }:
            columns = tuple(zip(*batch))
            if _columns_exact(self.schema, columns):
                stored = self.rows
                if not stored:
                    self._columns_cache = (len(batch), columns)
                stored.extend(batch)
                return
        for row in batch:
            self.append(row)

    def columns_snapshot(self) -> tuple[Sequence[Any], ...]:
        """One sequence per attribute, transposed from the rows.

        Tables are append-only, so the snapshot is cached keyed on the row
        count: repeated scans of an unchanged table are zero-copy.
        """
        count = len(self)
        cache = self._columns_cache
        if cache is None or cache[0] != count:
            if count:
                columns = tuple(zip(*self.rows))
            else:
                columns = tuple(() for __ in self.schema.names)
            cache = (count, columns)
            self._columns_cache = cache
        return cache[1]

    def column(self, name: str) -> list[Any]:
        """All values of attribute ``name`` in row order."""
        position = self.schema.position(name)
        return [row[position] for row in self.rows]

    def distinct(self, name: str) -> set[Any]:
        """The set of distinct values of attribute ``name``."""
        position = self.schema.position(name)
        return {row[position] for row in self.rows}

    def select(self, predicate: Callable[[Row], bool]) -> list[Row]:
        """Rows satisfying ``predicate`` (a plain callable over row tuples)."""
        return [row for row in self.rows if predicate(row)]

    def getter(self, name: str) -> Callable[[Row], Any]:
        """A fast positional accessor for attribute ``name``."""
        position = self.schema.position(name)
        return lambda row: row[position]


def _columns_exact(schema: Schema, columns: Sequence[Sequence[Any]]) -> bool:
    """Whether every value already has its attribute's exact type — the batch
    form of ``coerce(v) is v``.  One column per attribute; empty columns are
    not exact (callers then take the row path, which does nothing)."""
    return all(
        set(map(type, column)) == {attribute.type.exact_type}
        for attribute, column in zip(schema, columns)
    )
