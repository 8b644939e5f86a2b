"""Binding patterns — the access-pattern notation of the paper (Section 1).

``R^α(A1, A2, A3)`` with ``α = R(A1^b, A2^f)`` means: any REST call against
``R`` *must* constrain ``A1`` (bound), *may* constrain ``A2`` (free), and can
never constrain ``A3`` (output-only).  Numeric bound/free attributes accept a
single value or a range; categorical ones accept a single value only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import BindingError, SchemaError
from repro.relational.schema import Schema


class AccessMode(enum.Enum):
    """How one attribute may appear in a REST call."""

    BOUND = "bound"    #: must be given a value/range in every call
    FREE = "free"      #: may be given a value/range
    OUTPUT = "output"  #: may never be constrained; result-only


@dataclass(frozen=True)
class BindingPattern:
    """The access pattern of one data-market table."""

    table: str
    modes: Mapping[str, AccessMode]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "modes",
            {name.lower(): mode for name, mode in self.modes.items()},
        )

    def mode_of(self, attribute: str) -> AccessMode:
        """Access mode of ``attribute``; unlisted attributes are OUTPUT."""
        return self.modes.get(attribute.lower(), AccessMode.OUTPUT)

    @property
    def bound_attributes(self) -> list[str]:
        return [a for a, m in self.modes.items() if m is AccessMode.BOUND]

    @property
    def free_attributes(self) -> list[str]:
        return [a for a, m in self.modes.items() if m is AccessMode.FREE]

    @property
    def constrainable_attributes(self) -> list[str]:
        """Attributes a call may constrain (bound + free)."""
        return [
            a for a, m in self.modes.items() if m is not AccessMode.OUTPUT
        ]

    def validate_constrained(self, constrained: Iterable[str]) -> None:
        """Check a call's constrained-attribute set against this pattern."""
        constrained_lower = {name.lower() for name in constrained}
        for attribute in self.bound_attributes:
            if attribute not in constrained_lower:
                raise BindingError(
                    f"{self.table}: bound attribute {attribute!r} must be "
                    "given a value in every call"
                )
        for name in constrained_lower:
            if self.mode_of(name) is AccessMode.OUTPUT:
                raise BindingError(
                    f"{self.table}: attribute {name!r} is output-only and "
                    "cannot be constrained"
                )

    def validate_against_schema(self, schema: Schema) -> None:
        """Every attribute named in the pattern must exist in the schema."""
        for name in self.modes:
            if name not in schema:
                raise SchemaError(
                    f"binding pattern of {self.table!r} names unknown "
                    f"attribute {name!r}"
                )

    @classmethod
    def parse(cls, table: str, spec: str) -> "BindingPattern":
        """Parse the paper's compact notation, e.g. ``"Countryf, StationIDb"``.

        Each comma-separated item is an attribute name followed by a one-
        letter mode suffix: ``b`` (bound), ``f`` (free), ``o`` (output).
        """
        modes: dict[str, AccessMode] = {}
        for item in spec.split(","):
            item = item.strip()
            if len(item) < 2:
                raise SchemaError(f"malformed binding item {item!r}")
            name, suffix = item[:-1], item[-1].lower()
            try:
                mode = {
                    "b": AccessMode.BOUND,
                    "f": AccessMode.FREE,
                    "o": AccessMode.OUTPUT,
                }[suffix]
            except KeyError:
                raise SchemaError(
                    f"binding item {item!r} must end with b, f, or o"
                ) from None
            modes[name] = mode
        return cls(table=table, modes=modes)

    @classmethod
    def all_free(cls, table: str, attributes: Iterable[str]) -> "BindingPattern":
        """A pattern where every listed attribute is free."""
        return cls(table=table, modes={a: AccessMode.FREE for a in attributes})
