"""Unit tests for Algorithm 1 (candidate bounding-box generation)."""

import pytest

from repro.core.bounding_boxes import generate_candidates
from repro.market.binding import AccessMode, BindingPattern
from repro.market.dataset import BasicStatistics
from repro.market.pricing import PricingPolicy
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box
from repro.semstore.space import BoxSpace


def numeric_space(names_and_widths):
    schema = Schema([Attribute(n, T.INT) for n, __ in names_and_widths])
    pattern = BindingPattern(
        table="R", modes={n: AccessMode.FREE for n, __ in names_and_widths}
    )
    domains = {
        n.lower(): Domain.numeric(0, w - 1) for n, w in names_and_widths
    }
    return BoxSpace.from_table("R", schema, pattern, BasicStatistics(0, domains))


def mixed_space(width, categories, bound_categorical=False):
    schema = Schema([Attribute("A", T.INT), Attribute("C", T.STRING)])
    pattern = BindingPattern(
        table="R",
        modes={
            "A": AccessMode.FREE,
            "C": AccessMode.BOUND if bound_categorical else AccessMode.FREE,
        },
    )
    domains = {
        "a": Domain.numeric(0, width - 1),
        "c": Domain.categorical(categories),
    }
    return BoxSpace.from_table("R", schema, pattern, BasicStatistics(0, domains))


def volume_estimator(box):
    """Pretend density is exactly one tuple per grid cell."""
    return float(box.volume())


class TestSingleElementary:
    def test_no_merging_possible(self):
        space = numeric_space([("A", 100)])
        result = generate_candidates(
            space, [Box(((0, 10),))], volume_estimator, PricingPolicy(10)
        )
        assert result.enumerated_count == 0
        assert len(result.elementary_candidates) == 1
        assert result.elementary_candidates[0].price == 1

    def test_empty_elementary(self):
        space = numeric_space([("A", 100)])
        result = generate_candidates(
            space, [], volume_estimator, PricingPolicy(10)
        )
        assert result.all_candidates == []


class TestMerging:
    def test_adjacent_boxes_can_merge(self):
        space = numeric_space([("A", 100)])
        elementary = [Box(((0, 10),)), Box(((10, 20),))]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(100)
        )
        merged_boxes = [c.box for c in result.merged_candidates]
        assert Box(((0, 20),)) in merged_boxes
        merged = next(
            c for c in result.merged_candidates if c.box == Box(((0, 20),))
        )
        assert merged.covers == frozenset({0, 1})
        # 20 tuples / 100 per transaction = 1 < 1 + 1.
        assert merged.price == 1

    def test_pruning_rule_2_blocks_costly_merge(self):
        space = numeric_space([("A", 200)])
        # Far apart: a merged box spans 150 cells = 2 transactions at t=100,
        # while the two elementary boxes cost 1 each.
        elementary = [Box(((0, 10),)), Box(((140, 150),))]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(100)
        )
        assert result.merged_candidates == []
        assert result.enumerated_count >= 1

    def test_pruning_rule_1_minimality(self):
        space = numeric_space([("A", 100), ("B", 100)])
        # Two elementary boxes whose tight bound is [0,20)x[0,10); any
        # candidate with a looser extent must be pruned as non-minimal.
        elementary = [Box(((0, 10), (0, 10))), Box(((10, 20), (0, 10)))]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(1000)
        )
        for candidate in result.merged_candidates:
            assert candidate.box == Box(((0, 20), (0, 10)))

    def test_no_pruning_keeps_everything(self):
        space = numeric_space([("A", 200)])
        elementary = [Box(((0, 10),)), Box(((140, 150),))]
        pruned = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(100)
        )
        unpruned = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(100), prune=False
        )
        assert unpruned.kept_count == unpruned.enumerated_count
        assert unpruned.kept_count > pruned.kept_count

    def test_enumeration_cap(self):
        space = numeric_space([("A", 1000)])
        elementary = [Box(((i * 10, i * 10 + 5),)) for i in range(20)]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(100), enumeration_cap=10
        )
        assert result.capped
        # Elementary fallbacks still guarantee a feasible cover.
        assert len(result.elementary_candidates) == 20


class TestCategorical:
    def test_candidates_span_one_value_or_whole_domain(self):
        space = mixed_space(100, ["a", "b", "c", "d"])
        # Missing data at categorical positions 0 and 2 (same numeric range).
        elementary = [
            Box(((0, 10), (0, 1))),
            Box(((0, 10), (2, 3))),
        ]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(1000)
        )
        for candidate in result.merged_candidates:
            low, high = candidate.box.extents[1]
            assert high - low == 1 or (low, high) == (0, 4)
        # The whole-domain candidate (Figure 8's B3 analogue) must exist.
        assert any(
            candidate.box.extents[1] == (0, 4)
            for candidate in result.merged_candidates
        )

    def test_bound_categorical_never_spans_domain(self):
        space = mixed_space(100, ["a", "b", "c", "d"], bound_categorical=True)
        elementary = [
            Box(((0, 10), (0, 1))),
            Box(((0, 10), (2, 3))),
        ]
        result = generate_candidates(
            space, elementary, volume_estimator, PricingPolicy(1000)
        )
        for candidate in result.merged_candidates:
            low, high = candidate.box.extents[1]
            assert high - low == 1
