"""Schemas: named, typed attribute lists with optional declared domains.

A :class:`Domain` records the basic statistics a data market publishes about
an attribute (Section 2.1 of the paper: "normally the domain of each
attribute and the number of records").  Numeric domains are ``[low, high]``
bounds; categorical domains are explicit value sets (or just a size when the
values themselves are not published).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.types import AttributeType


@dataclass(frozen=True)
class Domain:
    """Declared domain of an attribute.

    Exactly one flavour is populated:

    * numeric: ``low``/``high`` inclusive bounds,
    * categorical: ``values`` (a frozenset) or just ``size``.
    """

    low: float | int | None = None
    high: float | int | None = None
    values: frozenset[Any] | None = None
    size: int | None = None

    def __post_init__(self) -> None:
        if self.values is not None and self.size is None:
            object.__setattr__(self, "size", len(self.values))
        if self.low is not None and self.high is not None and self.low > self.high:
            raise SchemaError(f"empty numeric domain [{self.low}, {self.high}]")

    @property
    def is_numeric(self) -> bool:
        return self.low is not None or self.high is not None

    @property
    def width(self) -> float | None:
        """Width of a numeric domain (``high - low``), if fully bounded."""
        if self.low is None or self.high is None:
            return None
        return self.high - self.low

    def contains(self, value: Any) -> bool:
        """Whether ``value`` lies inside the declared domain."""
        if self.values is not None:
            return value in self.values
        if self.low is not None and value < self.low:
            return False
        if self.high is not None and value > self.high:
            return False
        return True

    @classmethod
    def numeric(cls, low: float | int, high: float | int) -> "Domain":
        return cls(low=low, high=high)

    @classmethod
    def categorical(cls, values: Iterable[Any]) -> "Domain":
        return cls(values=frozenset(values))


@dataclass(frozen=True)
class Attribute:
    """A named, typed attribute, optionally with a declared domain."""

    name: str
    type: AttributeType
    domain: Domain | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid attribute name {self.name!r}")


class Schema:
    """An ordered collection of attributes with fast name lookup.

    Attribute names are case-preserving but matched case-insensitively, the
    way SQL identifiers behave.
    """

    def __init__(self, attributes: Sequence[Attribute]):
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        self._attributes = tuple(attributes)
        self._names = tuple(attribute.name for attribute in self._attributes)
        self._index: dict[str, int] = {}
        for position, attribute in enumerate(self._attributes):
            key = attribute.name.lower()
            if key in self._index:
                raise SchemaError(f"duplicate attribute {attribute.name!r}")
            self._index[key] = position

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a.name}:{a.type.value}" for a in self._attributes)
        return f"Schema({inner})"

    def position(self, name: str) -> int:
        """Index of attribute ``name``; raises :class:`SchemaError` if absent."""
        try:
            return self._index[name.lower()]
        except KeyError:
            raise SchemaError(
                f"unknown attribute {name!r}; schema has {list(self.names)}"
            ) from None

    def attribute(self, name: str) -> Attribute:
        return self._attributes[self.position(name)]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only ``names``, in the order given."""
        return Schema([self.attribute(name) for name in names])

    @classmethod
    def of(cls, **attributes: AttributeType) -> "Schema":
        """Shorthand: ``Schema.of(Country=AttributeType.STRING, ...)``."""
        return cls([Attribute(name, atype) for name, atype in attributes.items()])
