"""The analyzed logical query — the IR shared by the optimizer and engine.

The SQL analyzer lowers a parsed statement into a :class:`LogicalQuery`:
a flat select-project-join-aggregate block.  The same IR drives both the
local evaluation engine (:mod:`repro.relational.engine`) and PayLess's
money-based optimizer (:mod:`repro.core.optimizer`).

Per-table selection predicates are additionally *normalized* into
:class:`AttributeConstraint` values (point constraints on any type, integer
ranges on discrete numeric attributes).  Normalized constraints are what can
be pushed into data-market REST calls; anything that cannot be normalized
(e.g. float ranges, inequalities with ``!=``) stays as a residual predicate
and is applied locally after retrieval — a sound (never lossy) fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import SqlAnalysisError
from repro.relational.expressions import (
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    conjunction,
)
from repro.relational.operators import Aggregate
from repro.relational.types import AttributeType

#: Sentinel bound meaning "unbounded" in integer range constraints.
UNBOUNDED = None


@dataclass(frozen=True)
class AttributeConstraint:
    """A normalized constraint on one attribute of one table.

    Exactly one of:

    * a *point* (``value is not None``) — equality with a constant;
    * a half-open integer range ``[low, high)`` — from <, <=, >, >=, BETWEEN
      predicates on INT/DATE attributes (inclusive upper bounds are stored
      as ``high = bound + 1``);
    * a *point set* (``values is not None``) — from ``IN`` lists or
      ``a = x OR a = y`` disjunctions; a data-market call cannot express a
      set directly, so plans decompose it into one call per value exactly
      like the paper's ``Country = 'Canada' OR Country = 'Germany'`` example.
    """

    attribute: str
    value: Any = None
    low: int | None = None
    high: int | None = None
    values: frozenset[Any] | None = None

    def __post_init__(self) -> None:
        flavours = sum(
            (
                self.value is not None,
                self.low is not None or self.high is not None,
                self.values is not None,
            )
        )
        if flavours != 1:
            raise SqlAnalysisError(
                f"constraint on {self.attribute!r} must be exactly one of "
                "point / range / point-set"
            )
        if self.values is not None and not self.values:
            raise SqlAnalysisError(f"empty point set on {self.attribute!r}")
        if (
            self.low is not None
            and self.high is not None
            and self.low >= self.high
        ):
            raise SqlAnalysisError(
                f"empty range [{self.low}, {self.high}) on {self.attribute!r}"
            )

    @property
    def is_point(self) -> bool:
        return self.value is not None

    @property
    def is_set(self) -> bool:
        return self.values is not None

    @property
    def is_range(self) -> bool:
        return not self.is_point and not self.is_set

    def matches(self, value: Any) -> bool:
        """Whether a concrete value satisfies this constraint."""
        if self.is_point:
            return value == self.value
        if self.is_set:
            return value in self.values
        # Stated positively, so that NaN (unordered) satisfies no range.
        if self.low is not None and not self.low <= value:
            return False
        if self.high is not None and not value < self.high:
            return False
        return True

    def to_expression(self, table: str | None) -> Expression:
        """An equivalent boolean :class:`Expression` (for local filtering)."""
        ref = ColumnRef(table, self.attribute)
        if self.is_point:
            return Comparison("=", ref, Literal(self.value))
        if self.is_set:
            from repro.relational.expressions import InList

            return InList(ref, self.values)
        parts: list[Expression] = []
        if self.low is not None:
            parts.append(Comparison(">=", ref, Literal(self.low)))
        if self.high is not None:
            parts.append(Comparison("<", ref, Literal(self.high)))
        return conjunction(parts)


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join predicate ``left = right`` between two table columns."""

    left: ColumnRef
    right: ColumnRef

    def __post_init__(self) -> None:
        if self.left.table is None or self.right.table is None:
            raise SqlAnalysisError("join predicates must be fully qualified")

    def tables(self) -> tuple[str, str]:
        return (self.left.table, self.right.table)

    def side_for(self, table: str) -> ColumnRef:
        """The column reference belonging to ``table``."""
        if self.left.table.lower() == table.lower():
            return self.left
        if self.right.table.lower() == table.lower():
            return self.right
        raise SqlAnalysisError(f"join predicate does not involve {table!r}")

    def other_side(self, table: str) -> ColumnRef:
        """The column reference belonging to the *other* table."""
        if self.left.table.lower() == table.lower():
            return self.right
        if self.right.table.lower() == table.lower():
            return self.left
        raise SqlAnalysisError(f"join predicate does not involve {table!r}")

    def involves(self, table: str) -> bool:
        lowered = table.lower()
        return (
            self.left.table.lower() == lowered
            or self.right.table.lower() == lowered
        )


@dataclass(frozen=True)
class OutputColumn:
    """One item of the SELECT list: a plain column or an aggregate."""

    column: ColumnRef | None = None
    aggregate: Aggregate | None = None

    def __post_init__(self) -> None:
        if (self.column is None) == (self.aggregate is None):
            raise SqlAnalysisError("output column is either a column or an aggregate")

    @property
    def name(self) -> str:
        if self.column is not None:
            return self.column.column
        return self.aggregate.alias


@dataclass
class LogicalQuery:
    """A normalized select-project-join-aggregate query block."""

    #: Table names in FROM order (aliases already resolved to table names).
    tables: list[str]
    #: Per-table normalized constraints: table -> list of constraints.
    constraints: dict[str, list[AttributeConstraint]]
    #: Per-table residual predicates that could not be normalized.
    residuals: dict[str, list[Expression]]
    #: Equi-join predicates between tables.
    joins: list[JoinPredicate]
    #: SELECT list; empty means ``SELECT *``.
    outputs: list[OutputColumn] = field(default_factory=list)
    group_by: list[ColumnRef] = field(default_factory=list)
    #: Post-aggregation filter; evaluated over group keys + aggregate
    #: aliases (HAVING clause).
    having: Expression | None = None
    order_by: list[ColumnRef] = field(default_factory=list)
    order_descending: list[bool] = field(default_factory=list)
    select_distinct: bool = False
    limit: int | None = None

    @property
    def is_star(self) -> bool:
        return not self.outputs

    @property
    def aggregates(self) -> list[Aggregate]:
        return [out.aggregate for out in self.outputs if out.aggregate is not None]

    @property
    def has_aggregates(self) -> bool:
        return any(out.aggregate is not None for out in self.outputs)

    def constraints_for(self, table: str) -> list[AttributeConstraint]:
        return self.constraints.get(table, [])

    def residuals_for(self, table: str) -> list[Expression]:
        return self.residuals.get(table, [])

    def joins_between(self, left_tables: Iterable[str], right: str) -> list[
        JoinPredicate
    ]:
        """Join predicates connecting ``right`` to any table in ``left_tables``."""
        lowered = {name.lower() for name in left_tables}
        found = []
        for join in self.joins:
            if not join.involves(right):
                continue
            other = join.other_side(right).table
            if other.lower() in lowered:
                found.append(join)
        return found

    def join_components(self) -> list[frozenset[str]]:
        """Connected components of the join graph (Theorem 3 partitioning)."""
        parent: dict[str, str] = {name.lower(): name.lower() for name in self.tables}

        def find(node: str) -> str:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node

        for join in self.joins:
            left, right = (t.lower() for t in join.tables())
            if left in parent and right in parent:
                parent[find(left)] = find(right)

        components: dict[str, set[str]] = {}
        for name in self.tables:
            components.setdefault(find(name.lower()), set()).add(name)
        return [frozenset(group) for group in components.values()]
