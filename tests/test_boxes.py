"""Unit + property tests for the integer box algebra."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semstore.boxes import (
    Box,
    BoxError,
    bounding_box,
    covers_fully,
    merge_adjacent,
    remainder_decomposition,
    subtract_all,
    union_volume,
)


def box(*extents):
    return Box(tuple(extents))


class TestBasics:
    def test_degenerate_rejected(self):
        with pytest.raises(BoxError):
            box((5, 5))

    def test_volume(self):
        assert box((0, 10), (0, 5)).volume() == 50

    def test_contains_box(self):
        assert box((0, 10)).contains_box(box((2, 5)))
        assert not box((0, 10)).contains_box(box((5, 11)))

    def test_contains_point(self):
        b = box((0, 10), (5, 6))
        assert b.contains_point((0, 5))
        assert b.contains_point((9, 5))
        assert not b.contains_point((10, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(BoxError):
            box((0, 1)).intersect(box((0, 1), (0, 1)))

    def test_intersect(self):
        assert box((0, 10)).intersect(box((5, 20))) == box((5, 10))
        assert box((0, 5)).intersect(box((5, 10))) is None

    def test_subtract_disjoint(self):
        assert box((0, 5)).subtract(box((7, 9))) == [box((0, 5))]

    def test_subtract_fully_covered(self):
        assert box((2, 4)).subtract(box((0, 10))) == []

    def test_subtract_middle_1d(self):
        pieces = box((0, 10)).subtract(box((3, 6)))
        assert sorted(p.extents for p in pieces) == [((0, 3),), ((6, 10),)]

    def test_subtract_corner_2d(self):
        pieces = box((0, 10), (0, 10)).subtract(box((5, 10), (5, 10)))
        total = sum(p.volume() for p in pieces)
        assert total == 100 - 25
        # Pieces are pairwise disjoint.
        for i, a in enumerate(pieces):
            for b in pieces[i + 1:]:
                assert a.intersect(b) is None


class TestDecomposition:
    def test_figure6_remainder(self):
        # Q = [0,101), V1 = [10,20), V2 = [30,60)  (Figure 6 of the paper).
        remainder = remainder_decomposition(
            box((0, 101)), [box((10, 20)), box((30, 60))]
        )
        assert sorted(b.extents for b in remainder) == [
            ((0, 10),),
            ((20, 30),),
            ((60, 101),),
        ]

    def test_covers_fully(self):
        assert covers_fully(box((0, 10)), [box((0, 6)), box((6, 10))])
        assert not covers_fully(box((0, 10)), [box((0, 6)), box((7, 10))])

    def test_merge_adjacent(self):
        merged = merge_adjacent([box((0, 5)), box((5, 10))])
        assert merged == [box((0, 10))]

    def test_merge_requires_equal_other_extents(self):
        boxes = [box((0, 5), (0, 1)), box((5, 10), (0, 2))]
        assert len(merge_adjacent(boxes)) == 2

    def test_union_volume_overlapping(self):
        assert union_volume([box((0, 10)), box((5, 15))]) == 15

    def test_bounding_box(self):
        enclosing = bounding_box([box((0, 2), (5, 6)), box((8, 9), (1, 3))])
        assert enclosing == box((0, 9), (1, 6))

    def test_bounding_box_empty(self):
        with pytest.raises(BoxError):
            bounding_box([])


# ------------------------------------------------------------- property tests

extent_strategy = st.tuples(
    st.integers(0, 30), st.integers(1, 31)
).map(lambda pair: (min(pair), max(pair[0] + 1, pair[1])))


def boxes_strategy(dimensions):
    return st.builds(
        lambda extents: Box(tuple(extents)),
        st.lists(extent_strategy, min_size=dimensions, max_size=dimensions),
    )


@st.composite
def query_and_covers(draw, dimensions=2, max_covers=4):
    query = draw(boxes_strategy(dimensions))
    covers = draw(st.lists(boxes_strategy(dimensions), max_size=max_covers))
    return query, covers


def brute_force_points(box_):
    """All grid points of a (small) box."""
    import itertools

    return set(
        itertools.product(*[range(low, high) for low, high in box_.extents])
    )


@settings(max_examples=200, deadline=None)
@given(query_and_covers())
def test_remainder_is_exact_and_disjoint(case):
    """remainder(Q, V) contains exactly the points of Q not covered by V."""
    query, covers = case
    remainder = remainder_decomposition(query, covers)
    # Disjointness.
    for i, a in enumerate(remainder):
        for b in remainder[i + 1:]:
            assert a.intersect(b) is None
    # Exactness (point-level, brute force).
    expected = brute_force_points(query)
    for cover in covers:
        expected -= brute_force_points(cover)
    actual = set()
    for piece in remainder:
        points = brute_force_points(piece)
        assert points <= brute_force_points(query)
        actual |= points
    assert actual == expected


@settings(max_examples=200, deadline=None)
@given(query_and_covers())
def test_subtract_all_volume_identity(case):
    query, covers = case
    pieces = subtract_all(query, [c for c in covers])
    clipped = [query.intersect(c) for c in covers]
    clipped = [c for c in clipped if c is not None]
    assert sum(p.volume() for p in pieces) == query.volume() - union_volume(
        clipped
    )


@settings(max_examples=200, deadline=None)
@given(query_and_covers())
def test_merge_preserves_region(case):
    query, covers = case
    pieces = subtract_all(query, covers)
    merged = merge_adjacent(pieces)
    assert sum(p.volume() for p in merged) == sum(p.volume() for p in pieces)
    for i, a in enumerate(merged):
        for b in merged[i + 1:]:
            assert a.intersect(b) is None
    assert len(merged) <= len(pieces)


def reference_merge(a, b):
    """The union of two boxes when it is exactly a box, else ``None``:
    the pairwise test the merge's fixpoint is stated in."""
    differing = [
        axis for axis in range(a.dimensions) if a.extents[axis] != b.extents[axis]
    ]
    if not differing:
        return a
    if len(differing) > 1:
        return None
    (axis,) = differing
    (low_a, high_a), (low_b, high_b) = a.extents[axis], b.extents[axis]
    if high_a != low_b and high_b != low_a:
        return None
    extents = list(a.extents)
    extents[axis] = (min(low_a, low_b), max(high_a, high_b))
    return Box(tuple(extents))


@st.composite
def disjoint_boxes(draw):
    """Disjoint boxes in 1-4 dimensions: a random grid's cells, some left
    out, the rest shuffled — up to 4 096 of them, so inputs go well past
    the 512 at which the all-pairs merge used to give up."""
    dimensions = draw(st.integers(1, 4))
    cuts = [
        sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=9)))
        for __ in range(dimensions)
    ]
    cells = [
        Box(extents)
        for extents in itertools.product(
            *[list(zip(axis, axis[1:])) for axis in cuts]
        )
    ]
    # Which cells are left out, and the order, come from a drawn seed: one
    # boolean per cell would overrun hypothesis's entropy buffer long
    # before 4 096 cells.
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.sampled_from([0.5, 0.8, 1.0]))
    boxes = [cell for cell in cells if rng.random() < keep]
    rng.shuffle(boxes)
    return boxes


def assert_merged(boxes):
    merged = merge_adjacent(boxes)
    assert union_volume(merged) == sum(box.volume() for box in boxes)
    assert sum(box.volume() for box in merged) == union_volume(merged)  # disjoint
    for index, a in enumerate(merged):
        # Each output is made of whole input boxes, nothing else.
        inside = [box for box in boxes if a.contains_box(box)]
        assert sum(box.volume() for box in inside) == a.volume()
        for b in merged[index + 1:]:
            assert a.intersect(b) is None
            assert reference_merge(a, b) is None  # nothing left to merge
    return merged


@settings(max_examples=150, deadline=None)
@given(disjoint_boxes())
def test_merge_adjacent_is_a_disjoint_fixpoint_over_the_same_region(boxes):
    assert_merged(boxes)


@pytest.mark.parametrize("dimensions, side", [(2, 30), (3, 10), (4, 6)])
def test_merge_adjacent_past_the_old_input_cap(dimensions, side):
    """900-1 296 unit cells: the all-pairs merge returned such an input
    unmerged (``MERGE_INPUT_CAP`` was 512)."""
    cells = [
        Box(tuple((at, at + 1) for at in point))
        for point in itertools.product(range(side), repeat=dimensions)
    ]
    random.Random(dimensions).shuffle(cells)
    assert assert_merged(cells) == [Box(((0, side),) * dimensions)]
    holed = assert_merged(cells[1:])
    assert 1 < len(holed) <= 2 * dimensions


def test_merge_adjacent_early_exits():
    assert merge_adjacent([]) == []
    lone = box((0, 5), (1, 2))
    assert merge_adjacent([lone]) == [lone]
    # Nothing touches: the very boxes come back, in order.
    apart = [box((0, 1), (0, 1)), box((2, 3), (0, 1)), box((0, 1), (2, 3))]
    merged = merge_adjacent(apart)
    assert merged == apart and all(a is b for a, b in zip(merged, apart))


def test_merge_adjacent_stands_where_the_earliest_member_stood():
    boxes = [box((5, 9), (0, 1)), box((20, 30), (0, 1)), box((0, 5), (0, 1))]
    assert merge_adjacent(boxes) == [box((0, 9), (0, 1)), box((20, 30), (0, 1))]
    # A fused run along one axis can fuse again along another.
    square = [box((0, 1), (0, 1)), box((1, 2), (1, 2)), box((1, 2), (0, 1)),
              box((0, 1), (1, 2))]
    assert merge_adjacent(square) == [box((0, 2), (0, 2))]


@settings(max_examples=200, deadline=None)
@given(query_and_covers())
def test_covers_fully_matches_empty_remainder(case):
    query, covers = case
    assert covers_fully(query, covers) == (
        not remainder_decomposition(query, covers)
    )
