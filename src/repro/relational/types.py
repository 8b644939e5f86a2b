"""Attribute types for the relational substrate.

The data-market setting in the paper needs only a small type system:
integers (also used for YYYYMMDD dates, as in the paper's WHW examples),
floats, and strings.  Types know how to validate and coerce Python values
and whether they are *numeric* (rangeable in REST constraints and boxes) or
*categorical* (point-or-whole-domain in REST constraints, Section 4.2).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypeMismatchError


class AttributeType(enum.Enum):
    """The value domain of an attribute."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    #: Dates are stored as ``YYYYMMDD`` integers exactly like the paper's
    #: examples (``Date >= 20140601``); kept distinct from INT so schemas
    #: stay self-documenting.
    DATE = "date"

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type support range constraints."""
        return self in (AttributeType.INT, AttributeType.FLOAT, AttributeType.DATE)

    @property
    def is_categorical(self) -> bool:
        """Whether values of this type are point-only in REST constraints."""
        return self is AttributeType.STRING

    @property
    def exact_type(self) -> type:
        """The Python type :meth:`coerce` returns unchanged.

        A column whose values all have exactly this type needs no per-cell
        coercion — the fact :class:`~repro.relational.table.Table` uses to
        validate a whole batch with one ``set(map(type, column))``.
        """
        if self is AttributeType.FLOAT:
            return float
        if self is AttributeType.STRING:
            return str
        return int

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising :class:`TypeMismatchError`.

        Booleans are rejected for numeric types (``True == 1`` would
        otherwise slip through ``isinstance`` checks).
        """
        if value is None:
            raise TypeMismatchError(f"NULL is not allowed for {self.value}")
        if self in (AttributeType.INT, AttributeType.DATE):
            if isinstance(value, bool) or not isinstance(value, int):
                if isinstance(value, float) and value.is_integer():
                    return int(value)
                raise TypeMismatchError(f"expected {self.value}, got {value!r}")
            return value
        if self is AttributeType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected float, got {value!r}")
            try:
                return float(value)
            except OverflowError:
                raise TypeMismatchError(
                    f"expected float, got an int too large to convert "
                    f"({value.bit_length()} bits)"
                ) from None
        if not isinstance(value, str):
            raise TypeMismatchError(f"expected string, got {value!r}")
        return value

    def validates(self, value: Any) -> bool:
        """Return ``True`` when ``value`` already conforms to this type."""
        try:
            coerced = self.coerce(value)
        except TypeMismatchError:
            return False
        return coerced == value and type(coerced) is type(value)


def comparable(left: AttributeType, right: AttributeType) -> bool:
    """Whether two attribute types may appear on both sides of a comparison."""
    if left is right:
        return True
    return left.is_numeric and right.is_numeric
