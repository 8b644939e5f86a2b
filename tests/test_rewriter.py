"""Unit tests for semantic query rewriting, incl. the Section 4.2 example."""

import pytest

from repro.core.bounding_boxes import generate_candidates
from repro.core.rewriter import SemanticRewriter
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box, remainder_decomposition
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.space import BoxSpace
from repro.semstore.store import SemanticStore
from repro.stats.catalog import Catalog

#: The paper's page size at $1 a page.
PRICING = PricingPolicy(tuples_per_transaction=100)


def build(policy=None, cardinality=297):
    """A 1-d table R(A[0,100]) with the Figure 6 coverage state."""
    schema = Schema([Attribute("A", T.INT), Attribute("V", T.FLOAT)])
    pattern = BindingPattern(table="R", modes={"A": AccessMode.FREE})
    statistics = BasicStatistics(cardinality, {"a": Domain.numeric(0, 100)})
    store = SemanticStore(policy)
    catalog = Catalog()
    space = BoxSpace.from_table("R", schema, pattern, statistics)
    entry = catalog.register("R", schema, space, statistics)
    store.register_table(entry.space, schema)
    return store, catalog, entry


def seed_figure6(store, entry):
    """Store V1=[10,20) (28 tuples) and V2=[30,60) (91 tuples); teach the
    histogram the exact counts of every region of Figure 6."""
    # Rows need valid A values inside the boxes for the store's points.
    rows_v1 = [(10 + i % 10, float(i)) for i in range(28)]
    rows_v2 = [(30 + i % 30, float(i + 100)) for i in range(91)]
    store.record("R", Box(((10, 20),)), rows_v1)
    store.record("R", Box(((30, 60),)), rows_v2)
    entry.histogram.observe(Box(((10, 20),)), 28)
    entry.histogram.observe(Box(((30, 60),)), 91)
    entry.histogram.observe(Box(((0, 10),)), 21)
    entry.histogram.observe(Box(((20, 30),)), 34)
    entry.histogram.observe(Box(((60, 101),)), 123)


class TestFigure6Example:
    def test_remainder_beats_naive_decomposition(self):
        store, catalog, entry = build()
        seed_figure6(store, entry)
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite("R", [AttributeConstraint("A", low=0, high=101)], PRICING)
        # The paper's Rem2: {[0,30): 1 transaction, [60,101): 2} = 3 total,
        # beating the naive Rem1 (4) by letting [0,30) overlap stored V1.
        assert result.estimated_transactions == 3
        boxes = sorted(q.box.extents for q in result.remainder)
        assert boxes == [((0, 30),), ((60, 101),)]
        assert result.used_rewriting

    def test_direct_fetch_when_store_empty(self):
        store, catalog, entry = build()
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=0, high=101)], PRICING
        )
        assert len(result.remainder) == 1
        assert result.remainder[0].box == Box(((0, 101),))
        # 297 estimated tuples -> 3 transactions.
        assert result.estimated_transactions == 3

    def test_fully_covered_is_free(self):
        store, catalog, entry = build()
        rows = [(k, float(k)) for k in range(0, 101)]
        store.record("R", Box(((0, 101),)), rows)
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=5, high=50)], PRICING
        )
        assert result.fully_covered
        assert result.estimated_transactions == 0
        assert result.remainder == []
        assert result.is_free

    def test_strong_consistency_forces_direct(self):
        """Strong consistency is "PayLess w/o SQR": one direct call for
        the whole request, whatever the store holds."""
        store, catalog, entry = build(policy=ConsistencyPolicy.strong())
        seed_figure6(store, entry)
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=0, high=101)], PRICING
        )
        assert not result.used_rewriting
        assert len(result.remainder) == 1
        assert result.estimated_transactions >= 3

    def test_disabled_rewriter_fetches_direct(self):
        """With rewriting disabled (strong consistency), even a region the
        store fully covers is bought again with one direct call."""
        store, catalog, entry = build(policy=ConsistencyPolicy.strong())
        rows = [(k, float(k)) for k in range(0, 101)]
        store.record("R", Box(((0, 101),)), rows)
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=5, high=50)], PRICING
        )
        assert not result.used_rewriting
        assert not result.fully_covered
        assert len(result.remainder) == 1
        assert result.remainder[0].box == Box(((5, 50),))
        assert result.estimated_transactions >= 1

    def test_empty_request_region(self):
        store, catalog, entry = build()
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=500, high=600)], PRICING
        )
        assert result.fully_covered and result.is_free

    def test_point_set_decomposes_into_calls(self):
        store, catalog, entry = build()
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", values=frozenset({3, 50}))], PRICING
        )
        assert len(result.request_boxes) == 2

    def test_instrumentation_counts_exposed(self):
        store, catalog, entry = build()
        seed_figure6(store, entry)
        rewriter = SemanticRewriter(store, catalog)
        result = rewriter.rewrite(
            "R", [AttributeConstraint("A", low=0, high=101)], PRICING
        )
        assert result.enumerated_boxes >= result.kept_boxes >= 1


def categorical_table(width, categories):
    """R(A1[0,width), A2 in categories), both free: the Figure 8 canvas."""
    schema = Schema([Attribute("A1", T.INT), Attribute("A2", T.STRING)])
    pattern = BindingPattern(
        table="R", modes={"A1": AccessMode.FREE, "A2": AccessMode.FREE}
    )
    statistics = BasicStatistics(
        100 * width,
        {"a1": Domain.numeric(0, width - 1), "a2": Domain.categorical(categories)},
    )
    space = BoxSpace.from_table("R", schema, pattern, statistics)
    store, catalog = SemanticStore(), Catalog()
    catalog.register("R", schema, space, statistics)
    store.register_table(space, schema)
    return store, catalog


#: Disjoint missing-data decompositions, each with inexpressible pieces
#: (a categorical extent of two or three values out of six / four).
FALLBACK_FIXTURES = {
    # Figure 7's window minus its three views, A2 read as six categories.
    "figure7": (90, 6, remainder_decomposition(
        Box(((30, 81), (0, 6))),
        [Box(((30, 50), (0, 3))), Box(((50, 70), (0, 3))), Box(((70, 81), (4, 6)))],
    )),
    # Figure 8: missing data at positions 0-1 and 4, an invalid B1 among it.
    "figure8": (90, 6, [
        Box(((50, 80), (0, 2))), Box(((30, 50), (0, 1))), Box(((50, 80), (4, 5))),
        Box(((30, 40), (2, 5))), Box(((10, 30), (0, 6))),
    ]),
    # 600 two-value pieces (above every enumeration cap), a one-value piece
    # beside every third, and pieces over two keys for every tenth pair.
    "600 pieces": (1300, 4, [
        *(Box(((key, key + 1), (0, 2))) for key in range(600)),
        *(Box(((key, key + 1), (3, 4))) for key in range(0, 600, 3)),
        *(Box(((key, key + 2), (1, 3))) for key in range(600, 1200, 10)),
    ]),
}


class TestFallbackCoverSets:
    """A candidate's cover set, computed by ANDing per-axis bitmasks, is
    what containment against every elementary box says it is."""

    @pytest.mark.parametrize("name", sorted(FALLBACK_FIXTURES))
    def test_bitmask_cover_sets_equal_the_containment_oracle(self, name):
        width, categories, elementary = FALLBACK_FIXTURES[name]
        store, catalog = categorical_table(
            width, [f"b{position}" for position in range(categories)]
        )
        statistics = catalog.statistics("R")
        generation = generate_candidates(
            statistics.space, elementary, statistics.histogram.estimate, PRICING
        )
        candidates = SemanticRewriter(store, catalog)._coverage_candidates(
            statistics, generation, PRICING
        )
        snapped = [c for c in candidates if c.box not in elementary
                   and c not in generation.merged_candidates]
        assert snapped and all(
            statistics.space.expressible(c.box) for c in candidates
        )
        for candidate in candidates:
            assert candidate.covers == frozenset(
                index
                for index, element in enumerate(elementary)
                if candidate.box.contains_box(element)
            )
        # A cover exists: every elementary box is in some candidate's set.
        assert frozenset().union(*(c.covers for c in candidates)) == frozenset(
            range(len(elementary))
        )
