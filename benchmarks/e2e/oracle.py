"""The benchmark's own outcome oracle.

Ground truth is Download-All: every published table copied in full into a
local database, every distinct ``(sql, params)`` evaluated once over those
copies with the *reference* row engine (the program under test answers
with the vectorized one), results compared as multisets.  Expected
dollars are never written down anywhere, so any ``--seed`` works.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

from repro.relational.database import Database
from repro.relational.engine import ExecutionConfig, evaluate
from repro.relational.table import Table
from repro.sqlparser.analyzer import compile_sql

_REFERENCE = ExecutionConfig(engine="reference")


class GroundTruth:
    """Full local copies of the market's tables plus the buyer's own."""

    def __init__(self, datasets, local_tables) -> None:
        self.database = Database()
        for dataset in datasets:
            for market_table in dataset:
                copy = Table(market_table.name, market_table.schema)
                copy.extend(market_table.table.rows)
                self.database.add(copy)
        for table in local_tables:
            self.database.add(table)
        self._answers: dict[tuple, Counter] = {}
        #: (table, attribute) -> value -> the table's rows with that value.
        self._slices: dict[tuple, dict] = {}

    # The analyzer's SchemaProvider protocol.
    def has_table(self, name: str) -> bool:
        return name in self.database

    def schema_of(self, name: str):
        return self.database.table(name).schema

    def answer(self, sql: str, params: tuple) -> Counter:
        key = (sql, params)
        answer = self._answers.get(key)
        if answer is None:
            logical = compile_sql(sql, self, params)
            answer = Counter(
                evaluate(self._tables_of(logical), logical, _REFERENCE).rows
            )
            self._answers[key] = answer
        return answer

    def _tables_of(self, logical) -> Database:
        """The query's tables, each cut down to the rows that match one of
        its equality constraints.  The query applies the constraint again,
        so the answer is the same; the row engine just scans less (it is
        several times slower per query than the program it checks)."""
        database = Database()
        for name in logical.tables:
            table = self.database.table(name)
            point = next(
                (c for c in logical.constraints_for(name) if c.is_point), None
            )
            database.add(table if point is None else self._slice(table, point))
        return database

    def _slice(self, table: Table, point) -> Table:
        key = (table.name, point.attribute.lower())
        slices = self._slices.get(key)
        if slices is None:
            position = table.schema.position(point.attribute)
            groups = defaultdict(list)
            for row in table.rows:
                groups[row[position]].append(row)
            slices = self._slices[key] = {
                value: Table(table.name, table.schema, rows)
                for value, rows in groups.items()
            }
        return slices.get(point.value) or Table(table.name, table.schema)

    def wrong(self, sql: str, params: tuple, rows) -> bool:
        """Whether ``rows`` differ, as a multiset, from the true answer.

        Float aggregates may differ in the last digits: the program sums
        the rows it staged, the oracle the table's, in another order.
        """
        truth = self.answer(sql, params)
        if Counter(rows) == truth:
            return False
        expected = sorted(truth.elements(), key=_rounded)
        return len(rows) != len(expected) or not all(
            _close(got, want)
            for got, want in zip(sorted(rows, key=_rounded), expected)
        )


def _rounded(row: tuple) -> tuple:
    return tuple(
        (value is None, round(value, 6) if isinstance(value, float) else value)
        for value in row
    )


def _close(got: tuple, want: tuple) -> bool:
    return all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
        if isinstance(a, float) and isinstance(b, float)
        else a == b
        for a, b in zip(got, want)
    )
