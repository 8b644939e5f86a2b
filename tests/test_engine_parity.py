"""Differential parity: the vectorized engine vs the row-at-a-time oracle.

The vectorized engine (``repro.relational.operators``: columnar batches +
compiled expression kernels) and the reference engine
(``repro.relational.reference``: the original interpreter) promise
*identical* results — row order included — for every operator, every NULL
edge case, and every full query.  This suite holds them to it three ways:

* **hypothesis properties** run each operator on random (NULL-heavy)
  relations through both engines and assert exact equality;
* **explicit NULL-semantics cases** pin the SQL rules both engines must
  share: NULL join keys never match, ``COUNT(col)`` counts non-NULL only,
  SUM/AVG/MIN/MAX skip NULLs, sort is NULLS LAST in both directions;
* **full-query parity** replays the weather and TPC-H workload sessions
  through two PayLess installations differing only in ``engine=``, with
  and without chaos-seed fault injection, and asserts identical answers
  and identical spend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.errors import ExecutionError
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.obs.metrics import MetricsRegistry
from repro.relational import operators as vec
from repro.relational import reference as ref
from repro.relational.engine import ExecutionConfig
from repro.relational.expressions import (
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    RowLayout,
)
from repro.relational.operators import Aggregate, Relation
from repro.workloads.weather import WeatherConfig

# ---------------------------------------------------------------------------
# Strategies: typed columns so comparisons never mix strings with numbers
# (that would be a schema error upstream, not an engine behaviour).
# ---------------------------------------------------------------------------

INT = st.one_of(st.none(), st.integers(-5, 5))
FLOAT = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100),
)
TEXT = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "dd", "e"]))

COLUMN_TYPES = {"int": INT, "float": FLOAT, "str": TEXT}
NUMERIC = ("int", "float")


@st.composite
def typed_relation(draw, min_cols=2, max_cols=4, max_rows=30, table="t"):
    """A relation with per-column value types (NULLs mixed in everywhere)."""
    n_cols = draw(st.integers(min_cols, max_cols))
    types = [
        draw(st.sampled_from(["int", "int", "float", "str"]))
        for __ in range(n_cols)
    ]
    n_rows = draw(st.integers(0, max_rows))
    rows = [
        tuple(draw(COLUMN_TYPES[t]) for t in types) for __ in range(n_rows)
    ]
    layout = RowLayout([(table, f"c{i}") for i in range(n_cols)])
    return Relation(layout, rows), types, table


def _col(table, i):
    return ColumnRef(table, f"c{i}")


@st.composite
def predicate_for(draw, types, table):
    """A random predicate over columns of the given types."""

    def leaf():
        i = draw(st.integers(0, len(types) - 1))
        kind = draw(st.sampled_from(["cmp_lit", "cmp_col", "inlist", "arith"]))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        if kind == "inlist":
            values = draw(
                st.frozensets(COLUMN_TYPES[types[i]].filter(lambda v: v is not None),
                              min_size=1, max_size=3)
            )
            return InList(_col(table, i), values)
        if kind == "arith" and types[i] in NUMERIC:
            arith_op = draw(st.sampled_from(["+", "-", "*"]))
            bound = draw(st.integers(-5, 5))
            return Comparison(
                op,
                Arithmetic(arith_op, _col(table, i), Literal(draw(st.integers(1, 3)))),
                Literal(bound),
            )
        if kind == "cmp_col":
            same = [
                j
                for j, t in enumerate(types)
                if (t in NUMERIC) == (types[i] in NUMERIC)
            ]
            j = draw(st.sampled_from(same))
            return Comparison(op, _col(table, i), _col(table, j))
        value = draw(COLUMN_TYPES[types[i]].filter(lambda v: v is not None))
        return Comparison(op, _col(table, i), Literal(value))

    shape = draw(st.sampled_from(["leaf", "and", "or", "not"]))
    if shape == "leaf":
        return leaf()
    if shape == "not":
        return Not(leaf())
    parts = tuple(leaf() for __ in range(draw(st.integers(2, 3))))
    return And(parts) if shape == "and" else Or(parts)


def assert_identical(got: Relation, want: Relation) -> None:
    """Exact parity: layout, row order, and every value (incl. None)."""
    assert got.layout.columns == want.layout.columns
    assert got.rows == want.rows


PROPERTY = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# Operator properties
# ---------------------------------------------------------------------------


class TestOperatorParity:
    @PROPERTY
    @given(data=st.data())
    def test_filter_rows(self, data):
        relation, types, table = data.draw(typed_relation())
        predicate = data.draw(predicate_for(types, table))
        assert_identical(
            vec.filter_rows(relation, predicate),
            ref.filter_rows(relation, predicate),
        )

    @PROPERTY
    @given(data=st.data())
    def test_project(self, data):
        relation, types, table = data.draw(typed_relation())
        refs = data.draw(
            st.lists(
                st.integers(0, len(types) - 1), min_size=1, max_size=4
            ).map(lambda ps: [_col(table, p) for p in ps])
        )
        assert_identical(vec.project(relation, refs), ref.project(relation, refs))

    @PROPERTY
    @given(data=st.data())
    def test_hash_join(self, data):
        left, left_types, __ = data.draw(typed_relation(table="l"))
        right, right_types, __ = data.draw(typed_relation(table="r"))
        li = data.draw(st.integers(0, len(left_types) - 1))
        candidates = [
            j
            for j, t in enumerate(right_types)
            if (t in NUMERIC) == (left_types[li] in NUMERIC)
        ]
        if not candidates:
            return
        ri = data.draw(st.sampled_from(candidates))
        keys = [(_col("l", li), _col("r", ri))]
        assert_identical(
            vec.hash_join(left, right, keys), ref.hash_join(left, right, keys)
        )

    @PROPERTY
    @given(data=st.data())
    def test_cross_product(self, data):
        left, __, __ = data.draw(typed_relation(max_rows=8, table="l"))
        right, __, __ = data.draw(typed_relation(max_rows=8, table="r"))
        assert_identical(
            vec.cross_product(left, right), ref.cross_product(left, right)
        )

    @PROPERTY
    @given(data=st.data())
    def test_distinct(self, data):
        relation, __, __ = data.draw(typed_relation())
        assert_identical(vec.distinct(relation), ref.distinct(relation))

    @PROPERTY
    @given(data=st.data())
    def test_sort_nulls_last(self, data):
        relation, types, table = data.draw(typed_relation())
        n_keys = data.draw(st.integers(1, min(2, len(types))))
        positions = data.draw(
            st.lists(
                st.integers(0, len(types) - 1),
                min_size=n_keys,
                max_size=n_keys,
                unique=True,
            )
        )
        refs = [_col(table, p) for p in positions]
        flags = [data.draw(st.booleans()) for __ in positions]
        got = vec.sort(relation, refs, flags)
        want = ref.sort(relation, refs, flags)
        assert_identical(got, want)
        # NULLS LAST on the primary key: once a NULL appears, only NULLs follow.
        primary = relation.layout.resolve(table, f"c{positions[0]}")
        values = [row[primary] for row in got.rows]
        if None in values:
            first_null = values.index(None)
            assert all(v is None for v in values[first_null:])

    @PROPERTY
    @given(data=st.data())
    def test_limit(self, data):
        relation, __, __ = data.draw(typed_relation())
        count = data.draw(st.integers(0, 40))
        assert_identical(
            vec.limit(relation, count), ref.limit(relation, count)
        )

    @PROPERTY
    @given(data=st.data())
    def test_union_all(self, data):
        first, types, table = data.draw(typed_relation())
        n_rows = data.draw(st.integers(0, 10))
        second = Relation(
            first.layout,
            [
                tuple(data.draw(COLUMN_TYPES[t]) for t in types)
                for __ in range(n_rows)
            ],
        )
        assert_identical(
            vec.union_all([first, second]), ref.union_all([first, second])
        )

    @PROPERTY
    @given(data=st.data())
    def test_aggregate_rows(self, data):
        relation, types, table = data.draw(typed_relation())
        group_by = [
            _col(table, i)
            for i in data.draw(
                st.lists(st.integers(0, len(types) - 1), max_size=2, unique=True)
            )
        ]
        numeric = [i for i, t in enumerate(types) if t in NUMERIC]
        aggregates = [Aggregate("COUNT", None, "n")]
        any_col = data.draw(st.integers(0, len(types) - 1))
        aggregates.append(Aggregate("COUNT", _col(table, any_col), "n_col"))
        aggregates.append(
            Aggregate(
                data.draw(st.sampled_from(["MIN", "MAX"])),
                _col(table, any_col),
                "extremum",
            )
        )
        if numeric:
            i = data.draw(st.sampled_from(numeric))
            func = data.draw(st.sampled_from(["SUM", "AVG"]))
            arg = data.draw(
                st.sampled_from(
                    [
                        _col(table, i),
                        Arithmetic("*", _col(table, i), Literal(2)),
                    ]
                )
            )
            aggregates.append(Aggregate(func, arg, "agg"))
        assert_identical(
            vec.aggregate_rows(relation, group_by, aggregates),
            ref.aggregate_rows(relation, group_by, aggregates),
        )


# ---------------------------------------------------------------------------
# Pinned NULL semantics (identical in both engines)
# ---------------------------------------------------------------------------

ENGINES = [vec, ref]


@pytest.fixture(params=ENGINES, ids=["vectorized", "reference"])
def ops(request):
    return request.param


def _relation(columns, rows, table="t"):
    return Relation(RowLayout([(table, c) for c in columns]), rows)


class TestNullSemantics:
    def test_null_join_keys_never_match(self, ops):
        left = _relation(["k", "a"], [(1, "x"), (None, "y"), (2, "z")], "l")
        right = _relation(["k", "b"], [(1, 10), (None, 20), (3, 30)], "r")
        joined = ops.hash_join(
            left, right, [(ColumnRef("l", "k"), ColumnRef("r", "k"))]
        )
        assert joined.rows == [(1, "x", 1, 10)]

    def test_count_star_vs_count_column(self, ops):
        relation = _relation(["v"], [(1,), (None,), (3,), (None,)])
        result = ops.aggregate_rows(
            relation,
            [],
            [
                Aggregate("COUNT", None, "star"),
                Aggregate("COUNT", ColumnRef("t", "v"), "col"),
            ],
        )
        assert result.rows == [(4, 2)]

    def test_sum_avg_min_max_skip_nulls(self, ops):
        relation = _relation(["v"], [(2,), (None,), (4,)])
        result = ops.aggregate_rows(
            relation,
            [],
            [
                Aggregate("SUM", ColumnRef("t", "v"), "s"),
                Aggregate("AVG", ColumnRef("t", "v"), "a"),
                Aggregate("MIN", ColumnRef("t", "v"), "lo"),
                Aggregate("MAX", ColumnRef("t", "v"), "hi"),
            ],
        )
        assert result.rows == [(6, 3.0, 2, 4)]

    def test_all_null_aggregates_are_null(self, ops):
        relation = _relation(["v"], [(None,), (None,)])
        result = ops.aggregate_rows(
            relation,
            [],
            [
                Aggregate("COUNT", ColumnRef("t", "v"), "n"),
                Aggregate("SUM", ColumnRef("t", "v"), "s"),
                Aggregate("MIN", ColumnRef("t", "v"), "lo"),
            ],
        )
        assert result.rows == [(0, None, None)]

    def test_grouped_null_skipping(self, ops):
        relation = _relation(
            ["g", "v"], [("a", 1), ("a", None), ("b", None), ("b", 5)]
        )
        result = ops.aggregate_rows(
            relation,
            [ColumnRef("t", "g")],
            [
                Aggregate("COUNT", ColumnRef("t", "v"), "n"),
                Aggregate("SUM", ColumnRef("t", "v"), "s"),
            ],
        )
        assert result.rows == [("a", 1, 1), ("b", 1, 5)]

    def test_sort_nulls_last_ascending(self, ops):
        relation = _relation(["v"], [(3,), (None,), (1,), (None,), (2,)])
        result = ops.sort(relation, [ColumnRef("t", "v")])
        assert [r[0] for r in result.rows] == [1, 2, 3, None, None]

    def test_sort_nulls_last_descending(self, ops):
        relation = _relation(["v"], [(3,), (None,), (1,), (None,), (2,)])
        result = ops.sort(relation, [ColumnRef("t", "v")], [True])
        assert [r[0] for r in result.rows] == [3, 2, 1, None, None]

    def test_sort_does_not_crash_on_mixed_none(self, ops):
        # The pre-fix sort raised TypeError comparing None with a value.
        relation = _relation(["a", "b"], [(None, 1), (2, None), (1, 3)])
        result = ops.sort(
            relation, [ColumnRef("t", "a"), ColumnRef("t", "b")], [False, True]
        )
        assert [r[0] for r in result.rows] == [1, 2, None]

    def test_null_comparison_filters_out(self, ops):
        relation = _relation(["v"], [(1,), (None,), (3,)])
        kept = ops.filter_rows(
            relation, Comparison(">", ColumnRef("t", "v"), Literal(0))
        )
        assert kept.rows == [(1,), (3,)]

    def test_group_by_treats_null_as_one_group(self, ops):
        relation = _relation(["g"], [(None,), ("a",), (None,)])
        result = ops.aggregate_rows(
            relation, [ColumnRef("t", "g")], [Aggregate("COUNT", None, "n")]
        )
        assert result.rows == [(None, 2), ("a", 1)]


# ---------------------------------------------------------------------------
# Full-query parity on the benchmark workloads (with and without chaos)
# ---------------------------------------------------------------------------

SMALL = BenchProfile(
    weather_q=2,
    tpch_q=1,
    weather=WeatherConfig(
        countries=2, stations_per_country=4, cities_per_country=3, days=15
    ),
    tpch_scale=0.5,
    tuples_per_transaction=20,
)

CHAOS_SEEDS = (7, 23, 101)


def _replay(workload, engine, transport=None):
    data = make_workload(workload, SMALL)
    q = SMALL.weather_q if workload == "real" else SMALL.tpch_q
    instances = make_instances(workload, data, q, SMALL)
    payless, __ = build_system(
        "payless",
        data,
        options=QueryOptions(transport=transport, engine=engine),
        metrics=MetricsRegistry(),
    )
    results = [payless.query(i.sql, i.params) for i in instances]
    return payless, results


@pytest.mark.parametrize("workload", ["real", "tpch"])
def test_full_query_parity(workload):
    """Both engines answer the whole session identically — rows *and* money."""
    vec_payless, vec_results = _replay(workload, "vectorized")
    ref_payless, ref_results = _replay(workload, "reference")
    assert len(vec_results) == len(ref_results)
    for got, want in zip(vec_results, ref_results):
        assert got.rows == want.rows
        assert got.stats.transactions == want.stats.transactions
    assert vec_payless.total_price == ref_payless.total_price


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_full_query_parity_under_chaos(seed):
    """Fault injection (same seed → same faults) never splits the engines."""
    transport = TransportConfig(
        faults=FaultPolicy.uniform(seed=seed, rate=0.15)
    )
    __, vec_results = _replay("real", "vectorized", transport)
    __, ref_results = _replay("real", "reference", transport)
    for got, want in zip(vec_results, ref_results):
        assert got.rows == want.rows
        assert got.stats.transactions == want.stats.transactions


def test_unknown_engine_rejected():
    with pytest.raises(ExecutionError):
        ExecutionConfig(engine="gpu")


def test_explain_analyze_reports_engine():
    """EXPLAIN ANALYZE names the engine that actually ran the local eval."""
    for engine in ("vectorized", "reference"):
        data = make_workload("real", SMALL)
        instances = make_instances("real", data, SMALL.weather_q, SMALL)
        payless, __ = build_system(
            "payless", data, options=QueryOptions(engine=engine),
            metrics=MetricsRegistry(),
        )
        rendered = payless.explain_analyze(
            instances[0].sql, instances[0].params
        ).render()
        assert f"engine={engine}" in rendered
        assert "rows/sec" in rendered
