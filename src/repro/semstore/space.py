"""Box spaces: the bridge between SQL constraints and integer boxes.

A :class:`BoxSpace` is built per market table from its binding pattern and
published basic statistics.  Each constrainable (bound or free) attribute
becomes one dimension; numeric attributes keep their integer axis, while
categorical attributes are enumerated into ``0..k`` positions.  The space
converts in both directions:

* query constraints → the (list of) boxes they request — point-set
  constraints fan out into one box per value, the decomposed-disjunction
  case of the paper;
* a box → the REST constraints that fetch exactly that region — which is
  only possible when categorical extents span one value or the whole axis,
  the Figure 8 validity rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import MarketError, StatisticsError
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Schema
from repro.relational.table import Row
from repro.relational.types import AttributeType
from repro.semstore.boxes import Box, Extent


@dataclass(frozen=True)
class Dimension:
    """One axis of a table's box space."""

    attribute: str
    is_categorical: bool
    low: int
    high: int  # half-open upper bound
    #: For categorical dimensions: domain values in axis order.
    values: tuple[Any, ...] = ()
    #: Whether the binding pattern marks this attribute BOUND: every call
    #: must constrain it.  A bound *numeric* attribute may still span its
    #: whole domain — by passing the full range explicitly (the paper allows
    #: binding "a single value or a range").  A bound *categorical*
    #: attribute must always be a single value.
    is_bound: bool = False

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise StatisticsError(
                f"dimension {self.attribute!r} has empty axis "
                f"[{self.low}, {self.high})"
            )

    @property
    def full_extent(self) -> Extent:
        return (self.low, self.high)

    def index_of(self, value: Any) -> int | None:
        """Axis position of ``value``; None when outside the domain."""
        if self.is_categorical:
            try:
                return self._value_index[value]
            except KeyError:
                return None
        if not isinstance(value, int) or isinstance(value, bool):
            return None
        if self.low <= value < self.high:
            return value
        return None

    def positions_of(self, values: Sequence[Any]) -> Sequence[int | None]:
        """:meth:`index_of` over a whole column.  A numeric column of
        plain ints inside the axis *is* its own position list and comes
        back as is; only one holding an off-domain value is walked."""
        if self.is_categorical:
            return list(map(self._value_index.get, values))
        if (
            set(map(type, values)) == {int}
            and self.low <= min(values)
            and max(values) < self.high
        ):
            return values
        return [self.index_of(value) for value in values]

    def value_at(self, position: int) -> Any:
        """Domain value at an axis position (inverse of :meth:`index_of`)."""
        if self.is_categorical:
            return self.values[position - self.low]
        return position

    @property
    def _value_index(self) -> dict[Any, int]:
        cached = getattr(self, "_value_index_cache", None)
        if cached is None:
            cached = {value: i for i, value in enumerate(self.values)}
            object.__setattr__(self, "_value_index_cache", cached)
        return cached


class BoxSpace:
    """The d-dimensional constraint space of one market table."""

    def __init__(self, table: str, dimensions: Sequence[Dimension]):
        self.table = table
        self.dimensions = tuple(dimensions)
        self._by_name = {d.attribute.lower(): i for i, d in enumerate(self.dimensions)}

    @property
    def dimensionality(self) -> int:
        return len(self.dimensions)

    def dimension_index(self, attribute: str) -> int | None:
        return self._by_name.get(attribute.lower())

    def has_dimension(self, attribute: str) -> bool:
        return attribute.lower() in self._by_name

    @property
    def full_box(self) -> Box:
        """The box covering the entire table."""
        return Box(tuple(d.full_extent for d in self.dimensions))

    # -- constraints → boxes ---------------------------------------------------

    def boxes_for_constraints(
        self, constraints: Sequence[AttributeConstraint]
    ) -> list[Box]:
        """The boxes requested by (the pushable part of) ``constraints``.

        Constraints on attributes that are not dimensions are ignored here —
        the caller fetches the containing region and filters locally.
        Point-*set* constraints fan out multiplicatively into one box per
        value.  An empty list means the request region is empty (some point
        lies outside the published domain), so nothing needs fetching.
        """
        per_dimension: list[list[Extent]] = [
            [d.full_extent] for d in self.dimensions
        ]
        for constraint in constraints:
            index = self.dimension_index(constraint.attribute)
            if index is None:
                continue
            dimension = self.dimensions[index]
            extents = self._extents_for(dimension, constraint)
            if not extents:
                return []
            # Intersect with whatever this dimension already has.
            combined: list[Extent] = []
            for low_a, high_a in per_dimension[index]:
                for low_b, high_b in extents:
                    low, high = max(low_a, low_b), min(high_a, high_b)
                    if low < high:
                        combined.append((low, high))
            if not combined:
                return []
            per_dimension[index] = combined

        boxes = [Box(())]
        for extents in per_dimension:
            boxes = [
                Box(box.extents + (extent,))
                for box in boxes
                for extent in extents
            ]
        return boxes

    @staticmethod
    def _extents_for(
        dimension: Dimension, constraint: AttributeConstraint
    ) -> list[Extent]:
        if constraint.is_point:
            position = dimension.index_of(constraint.value)
            if position is None:
                return []
            return [(position, position + 1)]
        if constraint.is_set:
            extents = []
            for value in sorted(constraint.values, key=repr):
                position = dimension.index_of(value)
                if position is not None:
                    extents.append((position, position + 1))
            return extents
        if dimension.is_categorical:
            raise MarketError(
                f"range constraint on categorical dimension "
                f"{dimension.attribute!r}"
            )
        low = dimension.low if constraint.low is None else max(
            dimension.low, constraint.low
        )
        high = dimension.high if constraint.high is None else min(
            dimension.high, constraint.high
        )
        if low >= high:
            return []
        return [(low, high)]

    # -- boxes → constraints ---------------------------------------------------

    def constraints_for_box(self, box: Box) -> tuple[AttributeConstraint, ...]:
        """REST constraints that fetch exactly ``box``.

        Raises :class:`MarketError` when the box is not expressible in one
        call (a categorical extent spanning more than one value but less
        than the whole axis — the invalid ``B1`` of Figure 8).
        """
        if box.dimensions != self.dimensionality:
            raise MarketError("box does not belong to this space")
        constraints: list[AttributeConstraint] = []
        for dimension, (low, high) in zip(self.dimensions, box.extents):
            if (low, high) == dimension.full_extent:
                if dimension.is_bound:
                    if dimension.is_categorical:
                        raise MarketError(
                            f"bound categorical dimension "
                            f"{dimension.attribute!r} cannot span its whole "
                            "domain in one call"
                        )
                    # Bound numeric attribute: bind it with the explicit
                    # full-domain range.
                    constraints.append(
                        AttributeConstraint(dimension.attribute, low=low, high=high)
                    )
                continue
            if dimension.is_categorical:
                if high - low != 1:
                    raise MarketError(
                        f"categorical dimension {dimension.attribute!r} "
                        "cannot span a partial range in one call"
                    )
                constraints.append(
                    AttributeConstraint(
                        dimension.attribute, value=dimension.value_at(low)
                    )
                )
            elif high - low == 1:
                constraints.append(
                    AttributeConstraint(dimension.attribute, value=low)
                )
            else:
                constraints.append(
                    AttributeConstraint(dimension.attribute, low=low, high=high)
                )
        return tuple(constraints)

    def expressible(self, box: Box) -> bool:
        """Whether ``box`` can be fetched with a single REST call."""
        for dimension, (low, high) in zip(self.dimensions, box.extents):
            if not dimension.is_categorical:
                continue
            if high - low == 1:
                continue
            if (low, high) == dimension.full_extent and not dimension.is_bound:
                continue
            return False
        return True

    # -- rows → grid points ------------------------------------------------------

    def row_point(self, row: Row, schema: Schema) -> tuple[int, ...] | None:
        """Grid coordinates of a row, or None if any value is off-domain."""
        point: list[int] = []
        for dimension in self.dimensions:
            value = row[schema.position(dimension.attribute)]
            position = dimension.index_of(value)
            if position is None:
                return None
            point.append(position)
        return tuple(point)

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: str,
        schema: Schema,
        pattern: BindingPattern,
        statistics: BasicStatistics,
    ) -> "BoxSpace":
        """Build the space from a table's pattern + published statistics."""
        dimensions: list[Dimension] = []
        for name in pattern.constrainable_attributes:
            attribute = schema.attribute(name)
            domain = statistics.domain_of(name)
            if domain is None:
                raise StatisticsError(
                    f"{table}: no published domain for constrainable "
                    f"attribute {name!r}"
                )
            if attribute.type is AttributeType.FLOAT:
                # Float axes cannot be gridded exactly; the planner never
                # pushes float constraints to the market (they stay residual
                # local filters), so a float attribute contributes no
                # dimension and is effectively output-only for coverage.
                continue
            if attribute.type in (AttributeType.INT, AttributeType.DATE):
                if domain.low is None or domain.high is None:
                    raise StatisticsError(
                        f"{table}: numeric attribute {name!r} needs a "
                        "bounded domain"
                    )
                dimensions.append(
                    Dimension(
                        attribute=attribute.name,
                        is_categorical=False,
                        low=int(domain.low),
                        high=int(domain.high) + 1,
                        is_bound=pattern.mode_of(name) is AccessMode.BOUND,
                    )
                )
            else:
                if domain.values is None:
                    raise StatisticsError(
                        f"{table}: categorical attribute {name!r} needs an "
                        "enumerated domain"
                    )
                values = tuple(sorted(domain.values, key=repr))
                dimensions.append(
                    Dimension(
                        attribute=attribute.name,
                        is_categorical=True,
                        low=0,
                        high=len(values),
                        values=values,
                        is_bound=pattern.mode_of(name) is AccessMode.BOUND,
                    )
                )
        return cls(table=table, dimensions=dimensions)
