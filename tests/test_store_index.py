"""Equivalence guard: indexed store probes vs the brute-force oracle.

The grid indexes of :mod:`repro.semstore.grid` and the per-chunk box
algebra of :mod:`repro.semstore.store` must be pure accelerators.  For any
sequence of mutations and probes, a store running the flat scans
(``debug_bruteforce=True``) and the default indexed store must return
*byte-identical* answers: the same remainder decompositions in the same
order, the same coverage verdicts, and the same assembled rows in the
same order.  These tests drive both stores through identical randomized
workloads (seeded or shrinkable, so failures reproduce) and compare every
answer.
"""

import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.relational.schema import Attribute, Schema
from repro.relational.types import AttributeType as T
from repro.semstore.boxes import Box
from repro.semstore.consistency import ConsistencyPolicy
from repro.semstore.grid import BoxGridIndex
from repro.semstore.space import BoxSpace, Dimension
from repro.semstore.store import SemanticStore, TableStore

CATEGORIES = ("amber", "blue", "coral", "dune")

#: Per-axis width caps for randomly generated boxes (K, D, C).
RECORD_WIDTHS = (12, 5, 2)
QUERY_WIDTHS = (25, 8, 4)


def make_space() -> BoxSpace:
    return BoxSpace(
        "R",
        (
            Dimension("K", is_categorical=False, low=0, high=41),
            Dimension("D", is_categorical=False, low=1, high=11),
            Dimension(
                "C",
                is_categorical=True,
                low=0,
                high=len(CATEGORIES),
                values=CATEGORIES,
            ),
        ),
    )


def make_schema() -> Schema:
    return Schema(
        [
            Attribute("K", T.INT),
            Attribute("D", T.INT),
            Attribute("C", T.STRING),
            Attribute("V", T.FLOAT),
        ]
    )


def paired_stores(policy=None):
    """Two stores fed identical workloads: indexed vs brute-force oracle."""
    indexed = SemanticStore(policy)
    indexed.register_table(make_space(), make_schema())
    brute = SemanticStore(policy, debug_bruteforce=True)
    brute.register_table(make_space(), make_schema())
    return indexed, brute


def random_box(rng: random.Random, max_widths) -> Box:
    extents = []
    for dimension, cap in zip(make_space().dimensions, max_widths):
        span = dimension.high - dimension.low
        width = rng.randint(1, min(cap, span))
        low = rng.randint(dimension.low, dimension.high - width)
        extents.append((low, low + width))
    return Box(tuple(extents))


def rows_for_box(box: Box, rng: random.Random):
    """A sampled row for most grid points of ``box`` (plus an off-domain one)."""
    (k0, k1), (d0, d1), (c0, c1) = box.extents
    rows = []
    for k in range(k0, k1):
        for d in range(d0, d1):
            for c in range(c0, c1):
                if rng.random() < 0.7:
                    rows.append(
                        (k, d, CATEGORIES[c], float(k * 1000 + d * 10 + c))
                    )
    if rng.random() < 0.2:
        rows.append((k0, d0, "off-domain-category", -1.0))
    return rows


def assert_probes_agree(indexed: SemanticStore, brute: SemanticStore, query: Box):
    assert indexed.remainder("R", [query]) == brute.remainder("R", [query])
    assert indexed.is_covered("R", query) == brute.is_covered("R", query)
    assert indexed.effective_covers("R") == brute.effective_covers("R")
    assert indexed.rows_in_boxes("R", [query]) == brute.rows_in_boxes(
        "R", [query]
    )
    assert indexed.table("R").rows_in_box(query) == brute.table(
        "R"
    ).rows_in_box(query)


POLICY_FACTORIES = {
    "weak": ConsistencyPolicy.weak,
    "two_weeks": lambda: ConsistencyPolicy.weeks(2),
}


class TestRandomWorkloadEquivalence:
    @pytest.mark.parametrize("policy_name", sorted(POLICY_FACTORIES))
    @pytest.mark.parametrize("seed", range(4))
    def test_indexed_matches_bruteforce(self, seed, policy_name):
        rng = random.Random(seed)
        indexed, brute = paired_stores(POLICY_FACTORIES[policy_name]())
        for __ in range(60):
            action = rng.random()
            if action < 0.55:
                box = (
                    make_space().full_box
                    if rng.random() < 0.1
                    else random_box(rng, RECORD_WIDTHS)
                )
                rows = rows_for_box(box, rng)
                new_indexed = indexed.record("R", box, rows)
                new_brute = brute.record("R", box, rows)
                assert new_indexed == new_brute
            elif action < 0.65:
                weeks = rng.choice((0.5, 1.0, 3.0))
                indexed.advance_clock(weeks)
                brute.advance_clock(weeks)
            query = random_box(rng, QUERY_WIDTHS)
            assert_probes_agree(indexed, brute, query)
            assert indexed.epoch_of("R") == brute.epoch_of("R")
            table_i, table_b = indexed.table("R"), brute.table("R")
            assert table_i.covered == table_b.covered
            assert table_i.cached_row_count == table_b.cached_row_count

    def test_full_domain_record_covers_everything(self):
        rng = random.Random(1234)
        indexed, brute = paired_stores()
        full = make_space().full_box
        rows = rows_for_box(full, rng)
        indexed.record("R", full, rows)
        brute.record("R", full, rows)
        for __ in range(10):
            query = random_box(rng, QUERY_WIDTHS)
            assert indexed.remainder("R", [query]) == []
            assert indexed.is_covered("R", query)
            assert_probes_agree(indexed, brute, query)


class TestBindJoinFanout:
    """The >16-box assembly path (one box per binding value) must agree."""

    def test_many_point_boxes(self):
        rng = random.Random(99)
        indexed, brute = paired_stores()
        full = make_space().full_box
        rows = rows_for_box(full, rng)
        indexed.record("R", full, rows)
        brute.record("R", full, rows)
        ks = rng.sample(range(0, 41), 24)
        boxes = [Box(((k, k + 1), (1, 11), (0, 4))) for k in ks]
        assert indexed.rows_in_boxes("R", boxes) == brute.rows_in_boxes(
            "R", boxes
        )

    def test_mixed_point_and_range_boxes(self):
        rng = random.Random(7)
        indexed, brute = paired_stores()
        for __ in range(8):
            box = random_box(rng, RECORD_WIDTHS)
            rows = rows_for_box(box, rng)
            indexed.record("R", box, rows)
            brute.record("R", box, rows)
        boxes = [Box(((k, k + 1), (1, 11), (0, 4))) for k in range(0, 40, 2)]
        boxes.append(Box(((0, 41), (1, 3), (1, 2))))
        assert indexed.rows_in_boxes("R", boxes) == brute.rows_in_boxes(
            "R", boxes
        )


def overlaps(a: Box, b: Box) -> bool:
    return all(
        max(low_a, low_b) < min(high_a, high_b)
        for (low_a, high_a), (low_b, high_b) in zip(a.extents, b.extents)
    )


class TestBoxGridIndex:
    EXTENTS = ((0, 100), (0, 100))

    def test_candidates_are_overlap_superset_in_insertion_order(self):
        rng = random.Random(42)
        index = BoxGridIndex(self.EXTENTS)
        boxes = {}
        for box_id in range(50):
            low_x, low_y = rng.randint(0, 90), rng.randint(0, 90)
            box = Box(
                (
                    (low_x, low_x + rng.randint(1, 10)),
                    (low_y, low_y + rng.randint(1, 10)),
                )
            )
            boxes[box_id] = box
            index.insert(box_id, box)
        for __ in range(40):
            low_x, low_y = rng.randint(0, 80), rng.randint(0, 80)
            query = Box(((low_x, low_x + 20), (low_y, low_y + 20)))
            candidates = index.candidates(query)
            assert candidates == sorted(candidates)
            truly = {i for i, box in boxes.items() if overlaps(box, query)}
            assert truly.issubset(candidates)

    def test_remove(self):
        index = BoxGridIndex(self.EXTENTS)
        box = Box(((10, 20), (10, 20)))
        index.insert(0, box)
        assert 0 in index.candidates(box)
        index.remove(0, box)
        assert index.candidates(box) == []

    def test_oversized_box_always_probed(self):
        index = BoxGridIndex(self.EXTENTS)
        index.insert(0, Box(((0, 100), (0, 100))))
        assert 0 in index.candidates(Box(((3, 4), (97, 98))))


# -- chunked assembly, by property ---------------------------------------------

#: Few distinct rows, so batches repeat each other's rows; the last three
#: are off-domain on one axis each (category, range, type).
ROW_POOL = [
    (k, d, CATEGORIES[c], float(k * 1000 + d * 10 + c))
    for k in (0, 1, 2, 7, 20, 40)
    for d in (1, 2, 5, 10)
    for c in range(len(CATEGORIES))
] + [(3, 3, "off-domain-category", -1.0), (41, 3, "amber", -2.0), (3.5, 3, "blue", -3.0)]


@st.composite
def extents(draw, dimension: Dimension):
    low = draw(st.integers(dimension.low, dimension.high - 1))
    return (low, draw(st.integers(low + 1, dimension.high)))


@st.composite
def boxes(draw):
    return Box(tuple(draw(extents(d)) for d in make_space().dimensions))


@st.composite
def product_requests(draw):
    """A request region as ``boxes_for_constraints`` multiplies it out: on
    each axis one range or a set of points (in no particular order)."""
    axes = []
    for dimension in make_space().dimensions:
        if draw(st.booleans()):
            axes.append([draw(extents(dimension))])
        else:
            points = draw(
                st.lists(
                    st.integers(dimension.low, dimension.high - 1),
                    min_size=1,
                    max_size=6,
                    unique=True,
                )
            )
            axes.append([(point, point + 1) for point in points])
    return [Box(combination) for combination in product(*axes)]


#: Product-form requests, and lists of unrelated (maybe overlapping) boxes.
requests = st.one_of(product_requests(), st.lists(boxes(), max_size=3))
batches = st.lists(
    st.tuples(boxes(), st.lists(st.sampled_from(ROW_POOL), max_size=12)),
    min_size=1,
    max_size=8,
)


def assert_same_rows(table: TableStore, oracle: TableStore, request) -> None:
    rows = oracle.rows_in_boxes(request)
    assert table.rows_in_boxes(request) == rows
    columns, count = table.columns_in_boxes(request)
    assert count == len(rows)
    assert [tuple(column) for column in columns] == (
        [tuple(column) for column in zip(*rows)]
        if rows
        else [()] * len(table.schema)
    )
    for box in request[:2]:
        assert table.count_in_box(box) == len(oracle.rows_in_box(box))


class TestChunkedAssembly:
    @settings(max_examples=200, deadline=None)
    @given(batches, st.lists(requests, min_size=1, max_size=5), batches)
    def test_chunks_equal_the_flat_scan_before_and_after_a_snapshot(
        self, recorded, probes, recorded_later
    ):
        chunked = TableStore(make_space(), make_schema())
        oracle = TableStore(make_space(), make_schema(), debug_bruteforce=True)
        for box, rows in recorded:
            assert chunked.record(box, rows, 0.0) == oracle.record(box, rows, 0.0)
        assert chunked.all_rows() == oracle.all_rows()
        for request in probes:
            assert_same_rows(chunked, oracle, request)

        # The sidecar path: pickle the exported state, adopt it into an
        # empty table, no WAL and no backend involved.
        restored = TableStore(make_space(), make_schema())
        restored.adopt_bulk_state(
            pickle.loads(pickle.dumps(chunked.export_bulk_state()))
        )
        assert restored.all_rows() == oracle.all_rows()
        assert restored.covered == oracle.covered
        for request in probes:
            assert_same_rows(restored, oracle, request)
        # And it keeps working as a store: dedup against the adopted rows,
        # new chunks behind the adopted ones.
        for box, rows in recorded_later:
            assert restored.record(box, rows, 0.0) == oracle.record(box, rows, 0.0)
        for request in probes:
            assert_same_rows(restored, oracle, request)

    def test_an_off_domain_row_is_cached_but_never_assembled(self):
        table = TableStore(make_space(), make_schema())
        rows = [ROW_POOL[0], ROW_POOL[-3], ROW_POOL[1], ROW_POOL[-1], ROW_POOL[2]]
        assert table.record(make_space().full_box, rows, 0.0) == 5
        assert table.cached_row_count == 5 and table.all_rows() == rows
        assert table.rows_in_box(make_space().full_box) == [
            ROW_POOL[0], ROW_POOL[1], ROW_POOL[2]
        ]

    def test_a_row_of_the_wrong_width_is_refused_whole(self):
        table = TableStore(make_space(), make_schema())
        with pytest.raises(ReproError):
            table.record(make_space().full_box, [ROW_POOL[0], (1, 2, "amber")], 0.0)
        assert table.cached_row_count == 0 and table.all_rows() == []


# -- a bind join's request, decomposed in one call ---------------------------------


def wide_space() -> BoxSpace:
    """``make_space`` with room for sixty bind keys on K."""
    key, *rest = make_space().dimensions
    return BoxSpace("R", (Dimension("K", is_categorical=False, low=0, high=200), *rest))


@st.composite
def rest_extents(draw):
    """Extents on every axis but K."""
    return tuple(draw(extents(d)) for d in wide_space().dimensions[1:])


@st.composite
def bind_scenarios(draw):
    """A store of fat covers plus the point covers of earlier bind joins,
    some of them recorded three weeks before the rest, and a bind-shaped
    request: 8-60 point boxes on K over one region of the other axes."""
    keys = st.lists(st.integers(0, 199), min_size=8, max_size=60, unique=True)
    fat = [
        (Box((draw(extents(wide_space().dimensions[0])), *draw(rest_extents()))), old)
        for old in draw(st.lists(st.booleans(), max_size=6))
    ]
    points = []
    for old in draw(st.lists(st.booleans(), max_size=2)):
        rest = draw(rest_extents())
        points += [(Box(((key, key + 1), *rest)), old) for key in draw(keys)]
    covers = draw(st.permutations(fat + points))
    rest = draw(rest_extents())
    return covers, [Box(((key, key + 1), *rest)) for key in draw(keys)]


class TestBindShapedRemainder:
    """One call for the whole request, sharing a decomposition between the
    keys that meet the same covers, must return what *n* one-box calls
    return, byte for byte and in request order."""

    @settings(max_examples=150, deadline=None)
    @given(bind_scenarios(), st.sampled_from(sorted(POLICY_FACTORIES)))
    def test_indexed_equals_bruteforce_equals_box_by_box(self, scenario, policy_name):
        covers, request = scenario
        indexed = SemanticStore(POLICY_FACTORIES[policy_name]())
        brute = SemanticStore(POLICY_FACTORIES[policy_name](), debug_bruteforce=True)
        for store in (indexed, brute):
            store.register_table(wide_space(), make_schema())
            for box, old in covers:
                if old:
                    store.record("R", box, [])
            store.advance_clock(3.0)
            for box, old in covers:
                if not old:
                    store.record("R", box, [])
        whole = indexed.remainder("R", request)
        assert whole == brute.remainder("R", request)
        assert whole == [
            piece for box in request for piece in indexed.remainder("R", [box])
        ]

    def test_keys_with_one_signature_share_one_decomposition(self, monkeypatch):
        import repro.semstore.store as store_module

        calls = []
        decompose = store_module.remainder_decomposition
        monkeypatch.setattr(
            store_module,
            "remainder_decomposition",
            lambda query, covers: calls.append(query) or decompose(query, covers),
        )
        store = SemanticStore()
        store.register_table(wide_space(), make_schema())
        store.record("R", Box(((0, 100), (1, 6), (0, 4))), [])
        store.record("R", Box(((50, 200), (8, 11), (1, 2))), [])
        request = [Box(((key, key + 1), (1, 11), (0, 4))) for key in range(0, 200, 5)]
        pieces = store.remainder("R", request)
        # Keys 0-45 meet the first cover, 50-95 both, 100-195 the second.
        assert len(calls) == 3
        assert {piece.extents[0] for piece in pieces} == {
            box.extents[0] for box in request
        }
