"""Unit tests for the textbook estimation helpers."""

import pytest

from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box
from repro.semstore.space import BoxSpace
from repro.stats.catalog import Catalog
from repro.stats.estimator import (
    estimate_box,
    estimate_boxes,
    estimate_constraints,
    estimate_distinct,
)


@pytest.fixture
def statistics():
    schema = Schema([Attribute("A", T.INT), Attribute("C", T.STRING)])
    pattern = BindingPattern(
        table="R", modes={"A": AccessMode.FREE, "C": AccessMode.FREE}
    )
    published = BasicStatistics(
        1000,
        {
            "a": Domain.numeric(0, 99),
            "c": Domain.categorical(["x", "y", "z", "w"]),
        },
    )
    space = BoxSpace.from_table("R", schema, pattern, published)
    return Catalog().register("R", schema, space, published)


class TestBoxEstimates:
    def test_full_box(self, statistics):
        assert estimate_box(statistics, statistics.space.full_box) == 1000

    def test_constraints(self, statistics):
        estimate = estimate_constraints(
            statistics, [AttributeConstraint("A", low=0, high=50)]
        )
        assert estimate == pytest.approx(500.0)

    def test_point_set_constraints(self, statistics):
        estimate = estimate_constraints(
            statistics,
            [AttributeConstraint("C", values=frozenset({"x", "y"}))],
        )
        assert estimate == pytest.approx(500.0)

    def test_disjoint_boxes_sum(self, statistics):
        boxes = [
            Box(((0, 10), (0, 4))),
            Box(((90, 100), (0, 4))),
        ]
        assert estimate_boxes(statistics, boxes) == pytest.approx(200.0)


class TestDistinct:
    def test_zero_tuples(self, statistics):
        assert estimate_distinct(statistics, "A", 0) == 0.0

    def test_capped_by_domain(self, statistics):
        assert estimate_distinct(statistics, "C", 1e9) == pytest.approx(4.0)

    def test_capped_by_tuples(self, statistics):
        assert estimate_distinct(statistics, "A", 2) <= 2.0

    def test_monotone_in_tuples(self, statistics):
        small = estimate_distinct(statistics, "A", 10)
        large = estimate_distinct(statistics, "A", 100)
        assert small < large

    def test_unknown_attribute(self, statistics):
        from repro.errors import StatisticsError

        with pytest.raises(StatisticsError):
            statistics.domain_size("Nope")


class TestTransactions:
    """An estimate is priced by the seller's own Equation (1)."""

    PRICING = PricingPolicy(tuples_per_transaction=100)

    def test_zero(self):
        assert self.PRICING.transactions_for(0.0) == 0

    def test_fractional_rounds_up(self):
        assert self.PRICING.transactions_for(0.3) == 1
        assert self.PRICING.transactions_for(100.5) == 2

    def test_exact_page(self):
        assert self.PRICING.transactions_for(200.0) == 2


class TestCatalog:
    def test_duplicate_registration(self, statistics):
        from repro.errors import StatisticsError
        from repro.stats.catalog import Catalog

        catalog = Catalog()
        catalog.register(
            "R",
            statistics.schema,
            statistics.space,
            BasicStatistics(1, {}),
        )
        with pytest.raises(StatisticsError):
            catalog.register(
                "R",
                statistics.schema,
                statistics.space,
                BasicStatistics(1, {}),
            )

    def test_unknown_lookup(self):
        from repro.errors import StatisticsError
        from repro.stats.catalog import Catalog

        with pytest.raises(StatisticsError):
            Catalog().statistics("ghost")
