"""The Section 4.2 two-dimensional worked examples (Figures 7-9).

These tests rebuild the paper's 2-d scenarios — a numeric×numeric query
with ten stored views (Figure 7), the categorical variant (Figure 8), and
the bind-join variant (Figure 9) — and check the properties the figures
illustrate: tightness pruning (B2 ⊋ B1), price pruning (B3), categorical
validity (single value or whole domain), and per-binding-value remainder
boxes merging across known values.
"""

import pytest

from repro.core.bounding_boxes import generate_candidates
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box, remainder_decomposition
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog
from repro.core.rewriter import SemanticRewriter


def numeric_space_2d():
    """R(A1[0,90], A2[0,60]) — the Figure 7 canvas."""
    schema = Schema([Attribute("A1", T.INT), Attribute("A2", T.INT)])
    pattern = BindingPattern(
        table="R", modes={"A1": AccessMode.FREE, "A2": AccessMode.FREE}
    )
    statistics = BasicStatistics(
        5000,
        {"a1": Domain.numeric(0, 89), "a2": Domain.numeric(0, 59)},
    )
    return BoxSpace.from_table("R", schema, pattern, statistics)


class TestFigure7:
    """Query A1[30,80] x A2[0,50] against stored 2-d views."""

    # A simplified version of Figure 7a's view layout: stored regions
    # covering parts of the query window.
    VIEWS = [
        Box(((30, 50), (0, 30))),   # left block
        Box(((50, 70), (0, 30))),   # middle-bottom block
        Box(((70, 81), (40, 51))),  # top-right corner
    ]
    QUERY = Box(((30, 81), (0, 51)))

    def test_remainder_is_disjoint_and_exact(self):
        remainder = remainder_decomposition(self.QUERY, self.VIEWS)
        total = sum(box.volume() for box in remainder)
        covered = sum(
            (self.QUERY.intersect(view) or Box(((0, 1),))).volume()
            for view in self.VIEWS
            if self.QUERY.intersect(view) is not None
        )
        assert total == self.QUERY.volume() - covered
        for i, a in enumerate(remainder):
            for b in remainder[i + 1:]:
                assert a.intersect(b) is None

    def test_rule1_drops_loose_boxes(self):
        """Any kept candidate equals the tight box of what it covers."""
        space = numeric_space_2d()
        remainder = remainder_decomposition(self.QUERY, self.VIEWS)
        result = generate_candidates(
            space, remainder, lambda box: float(box.volume()), PricingPolicy(100)
        )
        for candidate in result.merged_candidates:
            covered = [remainder[i] for i in candidate.covers]
            for axis in range(2):
                lows = min(b.extents[axis][0] for b in covered)
                highs = max(b.extents[axis][1] for b in covered)
                assert candidate.box.extents[axis] == (lows, highs)

    def test_rule2_drops_overpriced_boxes(self):
        """A candidate never costs as much as its parts bought separately."""
        space = numeric_space_2d()
        remainder = remainder_decomposition(self.QUERY, self.VIEWS)
        result = generate_candidates(
            space, remainder, lambda box: float(box.volume()), PricingPolicy(100)
        )
        prices = {
            frozenset([i]): c.price
            for i, c in enumerate(result.elementary_candidates)
        }
        for candidate in result.merged_candidates:
            parts = sum(prices[frozenset([i])] for i in candidate.covers)
            assert candidate.price < parts


class TestFigure8Categorical:
    """A2 becomes categorical {b1..b6}: candidates span 1 value or all."""

    def _space(self, bound=False):
        schema = Schema([Attribute("A1", T.INT), Attribute("A2", T.STRING)])
        pattern = BindingPattern(
            table="R",
            modes={
                "A1": AccessMode.FREE,
                "A2": AccessMode.BOUND if bound else AccessMode.FREE,
            },
        )
        statistics = BasicStatistics(
            600,
            {
                "a1": Domain.numeric(0, 89),
                "a2": Domain.categorical(
                    ["b1", "b2", "b3", "b4", "b5", "b6"]
                ),
            },
        )
        return BoxSpace.from_table("R", schema, pattern, statistics)

    def test_partial_categorical_span_never_generated(self):
        space = self._space()
        # Missing data at categorical positions 0, 1 and 4 over [50,80).
        remainder = [
            Box(((50, 80), (0, 1))),
            Box(((50, 80), (1, 2))),
            Box(((50, 80), (4, 5))),
        ]
        result = generate_candidates(
            space, remainder, lambda box: float(box.volume()), PricingPolicy(1000)
        )
        for candidate in result.merged_candidates:
            low, high = candidate.box.extents[1]
            assert high - low == 1 or (low, high) == (0, 6)

    def test_b1_analogue_is_inexpressible(self):
        """Figure 8's invalid B1 (two categorical values, not all)."""
        space = self._space()
        assert not space.expressible(Box(((50, 80), (0, 2))))

    def test_valid_b2_b3_analogues(self):
        space = self._space()
        assert space.expressible(Box(((50, 70), (4, 5))))  # B2: one value
        assert space.expressible(Box(((30, 40), (0, 6))))  # B3: whole domain


class TestFigure9BindJoin:
    """Remainder generation for a bind join: per-value boxes that merge."""

    def _setup(self):
        schema = Schema([Attribute("A2", T.INT), Attribute("A3", T.INT)])
        pattern = BindingPattern(
            table="S", modes={"A2": AccessMode.BOUND, "A3": AccessMode.FREE}
        )
        statistics = BasicStatistics(
            200, {"a2": Domain.numeric(0, 15), "a3": Domain.numeric(0, 30)}
        )
        space = BoxSpace.from_table("S", schema, pattern, statistics)
        store = SemanticStore()
        catalog = Catalog()
        catalog.register("S", schema, space, statistics)
        store.register_table(space, schema)
        return space, store, catalog

    def test_stored_bindings_reused_new_bindings_fetched(self):
        space, store, catalog = self._setup()
        # Stored query V bound values {2, 5, 9, 10} with A3 in [10,16).
        for value in (2, 5, 9, 10):
            store.record(
                "S",
                Box(((value, value + 1), (10, 16))),
                [(value, a3) for a3 in range(10, 16)],
            )
        constraints = [
            AttributeConstraint("A2", values=frozenset({2, 5, 9, 10, 12, 13})),
            AttributeConstraint("A3", low=8, high=19),
        ]
        seeded = SemanticRewriter(store, catalog).rewrite(
            "S", constraints, PricingPolicy(10)
        )

        cold_store = SemanticStore()
        cold_store.register_table(space, catalog.statistics("S").schema)
        cold = SemanticRewriter(cold_store, catalog).rewrite(
            "S", constraints, PricingPolicy(10)
        )
        # Stored bindings make the rewritten plan no more expensive than a
        # cold fetch — and every remainder box still binds A2 (it is a
        # bound attribute), possibly as a *range of known values* or even
        # the whole domain (the Figure 9 B2/B3 choices).
        assert seeded.estimated_transactions <= cold.estimated_transactions
        for query in seeded.remainder:
            assert any(
                c.attribute.lower() == "a2" for c in query.constraints
            )

    def test_new_bindings_fully_fetched(self):
        space, store, catalog = self._setup()
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "S",
            [
                AttributeConstraint("A2", values=frozenset({12, 13})),
                AttributeConstraint("A3", low=8, high=19),
            ],
            PricingPolicy(100),
        )
        remainder_volume = sum(q.box.volume() for q in result.remainder)
        request_volume = sum(box.volume() for box in result.request_boxes)
        assert remainder_volume >= request_volume  # nothing stored yet
