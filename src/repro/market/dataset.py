"""Datasets: priced, binding-pattern-guarded collections of tables.

A dataset is the unit a data owner publishes and prices (Section 2.1):
it bundles one or more tables, each with a binding pattern, under one
:class:`PricingPolicy`.  Datasets publish only *basic statistics* —
cardinality and per-attribute domains — mirroring what real markets tag
their data with.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Any, Iterable, Iterator, Sequence

from repro.errors import MarketError, SchemaError
from repro.market.binding import BindingPattern
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Domain, Schema
from repro.relational.table import Table


@dataclass(frozen=True)
class BasicStatistics:
    """What a data market publicly reveals about a table (Section 2.1)."""

    cardinality: int
    domains: dict[str, Domain]

    def domain_of(self, attribute: str) -> Domain | None:
        return self.domains.get(attribute.lower())


class _AttributeIndex:
    """One attribute's row ids by value — ids into ``Table.columns_snapshot()``
    and ``Table.rows``.

    ``buckets`` maps each value to its ascending row ids, so a point is one
    lookup with ``==``/hash semantics: ``3`` finds ``3.0``, a value of a
    foreign type finds nothing.  A numeric attribute also keeps ``ids``, its
    row ids sorted by value with NaN left out (NaN satisfies no range) — the
    buckets laid end to end in the order of ``keys``, the distinct values —
    and ``starts``, where each value's run begins in ``ids`` (one entry more
    than ``keys``), so a range ``[low, high)`` is two bisections.
    """

    __slots__ = ("buckets", "keys", "ids", "starts")

    def __init__(self, column: Sequence[Any], numeric: bool):
        buckets: dict[Any, list[int]] = {}
        for row_id, value in enumerate(column):
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = [row_id]
            else:
                bucket.append(row_id)
        self.buckets = buckets
        self.keys: list[Any] | None = None
        if numeric:
            self.keys = sorted(value for value in buckets if value == value)
            runs = list(map(buckets.__getitem__, self.keys))
            self.ids = list(chain.from_iterable(runs))
            self.starts = list(accumulate(map(len, runs), initial=0))

    def slice(
        self, constraint: AttributeConstraint
    ) -> tuple[Sequence[int], int, int]:
        """The row ids satisfying ``constraint`` as ``(ids, start, stop)``,
        meaning ``ids[start:stop]`` — sized before anything is copied."""
        if constraint.is_point:
            value = constraint.value
            # NaN equals nothing, though a dict finds the very same object.
            bucket = self.buckets.get(value, ()) if value == value else ()
            return bucket, 0, len(bucket)
        # A range reaches only a numeric attribute: DataMarket.get checks.
        low, high = constraint.low, constraint.high
        if low != low or high != high:  # a NaN bound admits nothing
            return (), 0, 0
        keys = self.keys
        first = 0 if low is None else bisect_left(keys, low)
        last = len(keys) if high is None else bisect_left(keys, high)
        return self.ids, self.starts[first], self.starts[last]


def _keep(
    ids: list[int], column: Sequence[Any], constraint: AttributeConstraint
) -> list[int]:
    """The ``ids`` whose value in ``column`` satisfies ``constraint`` —
    :meth:`AttributeConstraint.matches`, with its comparisons inlined: this
    is the seller's inner loop."""
    if constraint.is_point:
        value = constraint.value
        return [i for i in ids if column[i] == value]
    low, high = constraint.low, constraint.high
    if high is None:
        return [i for i in ids if low <= column[i]]
    if low is None:
        return [i for i in ids if column[i] < high]
    return [i for i in ids if low <= column[i] < high]


class MarketTable:
    """One table inside a dataset: data + binding pattern + basic stats.

    Data-market datasets are *append-only* (Section 2.1 of the paper: they
    are released for analytics; "new data could be added periodically").
    :meth:`append` models a seller's periodic release.  Appends must stay
    within the published attribute domains — buyers size their box spaces
    from the domains at registration time, exactly as real buyers rely on
    the seller's published metadata.
    """

    def __init__(self, table: Table, pattern: BindingPattern):
        pattern.validate_against_schema(table.schema)
        self.table = table
        self.pattern = pattern
        self._frozen_domains: dict[str, Domain] | None = None
        #: Lazy per-attribute indexes (lower-cased attribute -> index), as
        #: a real marketplace backend indexes its data.  Built on first use
        #: under a lock — the executor issues independent GETs concurrently
        #: — and dropped by :meth:`append`.
        self._indexes: dict[str, _AttributeIndex] = {}
        self._index_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def schema(self) -> Schema:
        return self.table.schema

    def append(self, rows: Iterable[tuple]) -> int:
        """Seller-side periodic data release; returns rows appended.

        Values of constrainable attributes must lie inside the published
        domains (buyers' coverage bookkeeping depends on them).
        """
        if self._frozen_domains is None:
            self._frozen_domains = self.basic_statistics().domains
        appended = 0
        for row in rows:
            for name in self.pattern.constrainable_attributes:
                domain = self._frozen_domains.get(name.lower())
                value = row[self.schema.position(name)]
                if domain is not None and not domain.contains(value):
                    raise MarketError(
                        f"{self.name}: appended value {value!r} for "
                        f"{name!r} lies outside the published domain"
                    )
            self.table.append(row)
            appended += 1
        self._indexes.clear()
        return appended

    def _index(self, attribute: str) -> _AttributeIndex:
        key = attribute.lower()
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = _AttributeIndex(
                        self.table.columns_snapshot()[
                            self.schema.position(attribute)
                        ],
                        self.schema.attribute(attribute).type.is_numeric,
                    )
                    self._indexes[key] = index
        return index

    def rows_matching(self, request) -> list:
        """Rows satisfying a :class:`~repro.market.rest.RestRequest`, in
        table order.

        Every constraint names a slice of its attribute's index; the
        smallest slice is the start, and its row ids are filtered column by
        column against the other constraints — so a call costs its smallest
        slice, not the table.  An unconstrained call (Download All) is the
        table's row list itself.
        """
        rows = self.table.rows
        if not request.constraints:
            return rows
        slices = [
            (self._index(c.attribute).slice(c), c) for c in request.constraints
        ]
        (ids, start, stop), first = min(
            slices, key=lambda entry: entry[0][2] - entry[0][1]
        )
        survivors = ids[start:stop]
        columns = self.table.columns_snapshot()
        for __, constraint in slices:
            if constraint is not first:
                survivors = _keep(
                    survivors,
                    columns[self.schema.position(constraint.attribute)],
                    constraint,
                )
        if first.is_range:  # sorted by value: back to table order
            survivors = sorted(survivors)
        return [rows[i] for i in survivors]

    def basic_statistics(self) -> BasicStatistics:
        """Publish cardinality + per-attribute domains derived from the data.

        Declared schema domains win when present; otherwise the domain is
        computed from the data (the seller knows their own data).
        """
        domains: dict[str, Domain] = {}
        for attribute in self.schema:
            if attribute.domain is not None:
                domains[attribute.name.lower()] = attribute.domain
                continue
            values = self.table.column(attribute.name)
            if not values:
                continue
            if attribute.type.is_numeric:
                domains[attribute.name.lower()] = Domain.numeric(
                    min(values), max(values)
                )
            else:
                domains[attribute.name.lower()] = Domain.categorical(set(values))
        return BasicStatistics(cardinality=len(self.table), domains=domains)


class Dataset:
    """A named, priced bundle of market tables."""

    def __init__(
        self,
        name: str,
        pricing: PricingPolicy | None = None,
    ):
        if not name:
            raise MarketError("dataset name must be non-empty")
        self.name = name
        self.pricing = pricing or PricingPolicy()
        self._tables: dict[str, MarketTable] = {}

    def add_table(self, table: Table, pattern: BindingPattern) -> MarketTable:
        key = table.name.lower()
        if key in self._tables:
            raise SchemaError(f"table {table.name!r} already in dataset {self.name!r}")
        market_table = MarketTable(table, pattern)
        self._tables[key] = market_table
        return market_table

    def table(self, name: str) -> MarketTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise MarketError(
                f"dataset {self.name!r} has no table {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._tables

    def __iter__(self) -> Iterator[MarketTable]:
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return [t.name for t in self._tables.values()]
