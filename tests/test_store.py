"""Unit tests for the semantic store and consistency levels."""

import pytest

from repro.errors import ReproError
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box
from repro.semstore.consistency import ConsistencyLevel, ConsistencyPolicy
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore


@pytest.fixture
def schema():
    return Schema([Attribute("K", T.INT), Attribute("V", T.FLOAT)])


@pytest.fixture
def space(schema):
    pattern = BindingPattern(table="R", modes={"K": AccessMode.FREE})
    statistics = BasicStatistics(100, {"k": Domain.numeric(0, 99)})
    return BoxSpace.from_table("R", schema, pattern, statistics)


def rows(low, high):
    return [(k, float(k)) for k in range(low, high)]


class TestRecordAndRemainder:
    def test_empty_store_remainder_is_query(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        query = Box(((10, 20),))
        assert store.remainder("R", [query]) == [query]

    def test_full_coverage_no_remainder(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        store.record("R", Box(((0, 100),)), rows(0, 100))
        assert store.remainder("R", [Box(((5, 50),))]) == []
        assert store.is_covered("R", Box(((5, 50),)))

    def test_partial_coverage(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        store.record("R", Box(((10, 20),)), rows(10, 20))
        remainder = store.remainder("R", [Box(((0, 30),))])
        assert sorted(b.extents for b in remainder) == [
            ((0, 10),),
            ((20, 30),),
        ]

    def test_rows_deduplicated(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        new_first = store.record("R", Box(((0, 10),)), rows(0, 10))
        new_second = store.record("R", Box(((5, 15),)), rows(5, 15))
        assert new_first == 10
        assert new_second == 5
        assert store.table("R").cached_row_count == 15

    def test_rows_in_boxes(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        store.record("R", Box(((0, 50),)), rows(0, 50))
        fetched = store.rows_in_boxes("R", [Box(((10, 12),)), Box(((40, 41),))])
        assert sorted(row[0] for row in fetched) == [10, 11, 40]

    def test_unregistered_table(self, space, schema):
        store = SemanticStore()
        with pytest.raises(ReproError):
            store.remainder("R", [Box(((0, 1),))])

    def test_double_registration(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        with pytest.raises(ReproError):
            store.register_table(space, schema)


class TestConsistency:
    def test_strong_disables_reuse(self, space, schema):
        store = SemanticStore(ConsistencyPolicy.strong())
        store.register_table(space, schema)
        store.record("R", Box(((0, 100),)), rows(0, 100))
        query = Box(((5, 10),))
        assert store.remainder("R", [query]) == [query]

    def test_x_week_expires(self, space, schema):
        store = SemanticStore(ConsistencyPolicy.weeks(2))
        store.register_table(space, schema)
        store.record("R", Box(((0, 100),)), rows(0, 100))
        assert store.is_covered("R", Box(((5, 10),)))
        store.advance_clock(3)
        assert not store.is_covered("R", Box(((5, 10),)))

    def test_weak_never_expires(self, space, schema):
        store = SemanticStore()
        store.register_table(space, schema)
        store.record("R", Box(((0, 100),)), rows(0, 100))
        store.advance_clock(1000)
        assert store.is_covered("R", Box(((5, 10),)))

    def test_clock_monotonic(self):
        store = SemanticStore()
        with pytest.raises(ReproError):
            store.advance_clock(-1)

    def test_x_week_needs_window(self):
        with pytest.raises(ValueError):
            ConsistencyPolicy(ConsistencyLevel.X_WEEK)

    def test_rewriting_enabled_flag(self):
        assert ConsistencyPolicy.weak().rewriting_enabled
        assert ConsistencyPolicy.weeks(1).rewriting_enabled
        assert not ConsistencyPolicy.strong().rewriting_enabled
