"""Scalar and boolean expression trees evaluated over relational rows.

Expressions are built by the SQL analyzer (or directly by library users) and
*bound* against a :class:`RowLayout` — a mapping from possibly-qualified
column references to row positions — which compiles them into plain Python
callables.  Binding once and evaluating many times keeps the inner loops of
the operators cheap.  (The vectorized engine goes one step further and
compiles the whole tree into a single code object — see
:mod:`repro.relational.compile`; the semantics here are the reference.)

NULL semantics: SQL's ``NULL`` is represented as Python ``None``.  Both
engines use the same deterministic two-valued collapse of SQL's
three-valued logic:

* a :class:`Comparison` or :class:`InList` with a NULL operand evaluates
  to ``False`` (SQL's UNKNOWN, collapsed at the comparison);
* :class:`Arithmetic` propagates NULL (``x + NULL`` is NULL);
* ``AND`` / ``OR`` / ``NOT`` are ordinary boolean connectives over the
  collapsed leaves (so ``NOT (x = 5)`` is ``True`` for NULL ``x`` — a
  documented deviation from full three-valued logic, shared bit-for-bit
  by both engines and asserted by the parity suite).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.errors import SchemaError

Row = tuple[Any, ...]
RowPredicate = Callable[[Row], bool]
RowFunction = Callable[[Row], Any]


class RowLayout:
    """Resolves column references to positions in a flat row tuple.

    A layout knows every column as ``(table, column)``; a reference may omit
    the table, in which case the column name must be unambiguous.
    """

    def __init__(self, columns: Iterable[tuple[str | None, str]]):
        self._qualified: dict[tuple[str, str], int] = {}
        self._unqualified: dict[str, int | None] = {}
        self._columns = list(columns)
        for position, (table, column) in enumerate(self._columns):
            column_key = column.lower()
            if table is not None:
                self._qualified[(table.lower(), column_key)] = position
            if column_key in self._unqualified:
                self._unqualified[column_key] = None  # ambiguous
            else:
                self._unqualified[column_key] = position

    @property
    def columns(self) -> list[tuple[str | None, str]]:
        return list(self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def resolve(self, table: str | None, column: str) -> int:
        """Position of ``table.column`` (or bare ``column``) in the row."""
        column_key = column.lower()
        if table is not None:
            try:
                return self._qualified[(table.lower(), column_key)]
            except KeyError:
                raise SchemaError(f"unknown column {table}.{column}") from None
        position = self._unqualified.get(column_key, None)
        if position is None:
            if column_key in self._unqualified:
                raise SchemaError(f"ambiguous column {column!r}")
            raise SchemaError(f"unknown column {column!r}")
        return position

    def has(self, table: str | None, column: str) -> bool:
        try:
            self.resolve(table, column)
        except SchemaError:
            return False
        return True

    @staticmethod
    def for_table(table_name: str, column_names: Iterable[str]) -> "RowLayout":
        """The layout of ``table_name``'s rows, shared between callers.

        Every scan, store access and staged relation asks for its table's
        layout; a layout never changes once built, so one object per
        ``(table name, column names)`` serves them all.
        """
        return _table_layout(table_name, tuple(column_names))

    def concat(self, other: "RowLayout") -> "RowLayout":
        """Layout of rows formed by concatenating a row of each layout."""
        return RowLayout(self._columns + other._columns)


@lru_cache(maxsize=1024)
def _table_layout(table_name: str, column_names: tuple[str, ...]) -> RowLayout:
    return RowLayout([(table_name, column) for column in column_names])


class Expression:
    """Base class for all expressions."""

    def bind(self, layout: RowLayout) -> RowFunction:
        """Compile this expression to a callable over rows of ``layout``."""
        raise NotImplementedError

    def columns(self) -> list["ColumnRef"]:
        """All column references appearing in this expression."""
        return []


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value."""

    value: Any

    def bind(self, layout: RowLayout) -> RowFunction:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to ``table.column`` (table may be ``None``)."""

    table: str | None
    column: str

    def bind(self, layout: RowLayout) -> RowFunction:
        position = layout.resolve(self.table, self.column)
        return lambda row: row[position]

    def columns(self) -> list["ColumnRef"]:
        return [self]

    def __repr__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left <op> right`` with op in + - * / (scalar arithmetic)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise SchemaError(f"unknown arithmetic operator {self.op!r}")

    def bind(self, layout: RowLayout) -> RowFunction:
        combine = _ARITHMETIC[self.op]
        left = self.left.bind(layout)
        right = self.right.bind(layout)

        def evaluate(row: Row) -> Any:
            a = left(row)
            if a is None:
                return None
            b = right(row)
            if b is None:
                return None
            return combine(a, b)

        return evaluate

    def columns(self) -> list["ColumnRef"]:
        return self.left.columns() + self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


_COMPARISONS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """``left <op> right`` where op is one of = != < <= > >=."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in _COMPARISONS:
            raise SchemaError(f"unknown comparison operator {self.op!r}")

    def bind(self, layout: RowLayout) -> RowPredicate:
        compare = _COMPARISONS[self.op]
        left = self.left.bind(layout)
        right = self.right.bind(layout)

        def evaluate(row: Row) -> bool:
            a = left(row)
            if a is None:
                return False
            b = right(row)
            if b is None:
                return False
            return compare(a, b)

        return evaluate

    def columns(self) -> list[ColumnRef]:
        return self.left.columns() + self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class And(Expression):
    """Conjunction of one or more boolean expressions."""

    operands: tuple[Expression, ...]

    def bind(self, layout: RowLayout) -> RowPredicate:
        bound = [expr.bind(layout) for expr in self.operands]
        return lambda row: all(check(row) for check in bound)

    def columns(self) -> list[ColumnRef]:
        return [ref for expr in self.operands for ref in expr.columns()]

    def __repr__(self) -> str:
        return " AND ".join(repr(expr) for expr in self.operands)


@dataclass(frozen=True)
class Or(Expression):
    """Disjunction of one or more boolean expressions."""

    operands: tuple[Expression, ...]

    def bind(self, layout: RowLayout) -> RowPredicate:
        bound = [expr.bind(layout) for expr in self.operands]
        return lambda row: any(check(row) for check in bound)

    def columns(self) -> list[ColumnRef]:
        return [ref for expr in self.operands for ref in expr.columns()]

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(expr) for expr in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Boolean negation."""

    operand: Expression

    def bind(self, layout: RowLayout) -> RowPredicate:
        bound = self.operand.bind(layout)
        return lambda row: not bound(row)

    def columns(self) -> list[ColumnRef]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"NOT {self.operand!r}"


@dataclass(frozen=True)
class InList(Expression):
    """``column IN (v1, v2, ...)`` membership test against constants."""

    operand: Expression
    values: frozenset[Any]

    def bind(self, layout: RowLayout) -> RowPredicate:
        bound = self.operand.bind(layout)
        values = self.values
        return lambda row: (value := bound(row)) is not None and value in values

    def columns(self) -> list[ColumnRef]:
        return self.operand.columns()

    def __repr__(self) -> str:
        return f"{self.operand!r} IN {sorted(self.values, key=repr)!r}"


def conjunction(parts: Iterable[Expression]) -> Expression:
    """AND together ``parts``; a single part is returned as-is."""
    parts = list(parts)
    if not parts:
        return Literal(True)
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def always_true() -> Expression:
    return Literal(True)
