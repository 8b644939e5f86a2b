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
* **column pruning** — ``evaluate`` emits from each scan only the columns
  the query names; every shape that could drop a column something still
  reads runs through both engines and through ``evaluate`` with pruning
  disabled, and all three must return the same ordered rows;
* **full-query parity** replays the weather and TPC-H workload sessions
  through PayLess (which always runs the vectorized engine) and checks
  every answer against :func:`repro.testing.oracle_evaluate`, the
  reference engine over full copies of the market tables; under
  chaos-seed fault injection each answer and each query's bill must equal
  the fault-free replay's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.errors import ExecutionError, SchemaError
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.relational import engine
from repro.relational import operators as vec
from repro.relational import reference as ref
from repro.relational.database import Database
from repro.relational.engine import ExecutionConfig, evaluate
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
from repro.relational.query import (
    AttributeConstraint,
    JoinPredicate,
    LogicalQuery,
    OutputColumn,
)
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.testing import oracle_evaluate
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
# Column pruning at the scan: pruned == unpruned, on both engines
# ---------------------------------------------------------------------------


def _table(name, columns, rows):
    table = Table(
        name, Schema([Attribute(column, kind) for column, kind in columns])
    )
    table.extend(rows)
    return table


def _pruning_database(empty_side=False):
    """Orders ⋈ Items on ``oid``; both tables have a column named ``note``
    and Items has rows matching no order (a ``Table`` holds no NULLs)."""
    orders = _table(
        "Orders",
        [
            ("oid", AttributeType.INT),
            ("region", AttributeType.STRING),
            ("priority", AttributeType.INT),
            ("note", AttributeType.STRING),
        ],
        [
            (1, "east", 2, "a"),
            (2, "west", 1, "b"),
            (3, "east", 3, "c"),
            (4, "north", 1, "d"),
        ],
    )
    items = _table(
        "Items",
        [
            ("iid", AttributeType.INT),
            ("oid", AttributeType.INT),
            ("price", AttributeType.FLOAT),
            ("qty", AttributeType.INT),
            ("note", AttributeType.STRING),
        ],
        []
        if empty_side
        else [
            (10, 1, 5.0, 2, "x"),
            (11, 1, 7.5, 1, "y"),
            (12, 2, 1.0, 9, "x"),
            (13, 3, 3.5, 4, "z"),
            (14, 3, 2.5, 2, "w"),
            (15, 7, 9.0, 1, "x"),
            (16, 9, 4.0, 3, "y"),
        ],
    )
    colours = _table(
        "Colours", [("name", AttributeType.STRING)], [("red",), ("blue",)]
    )
    return Database([orders, items, colours])


ON_OID = JoinPredicate(ColumnRef("Orders", "oid"), ColumnRef("Items", "oid"))


def _query(tables=("Orders", "Items"), joins=(ON_OID,), **fields):
    fields.setdefault("constraints", {})
    fields.setdefault("residuals", {})
    return LogicalQuery(tables=list(tables), joins=list(joins), **fields)


def _plain(*refs):
    return [OutputColumn(column=ColumnRef(t, c)) for t, c in refs]


def _agg(func, arg, alias):
    return OutputColumn(aggregate=Aggregate(func, arg, alias))


PRUNING_SHAPES = {
    # Nothing pruned: every column, in layout order.
    "star_over_join": _query(),
    "column_only_in_aggregate_argument": _query(
        outputs=_plain(("Orders", "region"))
        + [
            _agg(
                "SUM",
                Arithmetic(
                    "*", ColumnRef("Items", "price"), ColumnRef("Items", "qty")
                ),
                "revenue",
            )
        ],
        group_by=[ColumnRef("Orders", "region")],
    ),
    "group_column_not_in_select_list": _query(
        outputs=[_agg("MIN", ColumnRef("Items", "price"), "cheapest")],
        group_by=[ColumnRef("Orders", "region"), ColumnRef("Items", "note")],
    ),
    "group_column_also_in_order_by": _query(
        outputs=_plain(("Orders", "region")) + [_agg("COUNT", None, "n")],
        group_by=[ColumnRef("Orders", "region")],
        order_by=[ColumnRef("Orders", "region")],
        order_descending=[True],
    ),
    "star_ordered_by_a_column": _query(
        order_by=[ColumnRef("Items", "qty"), ColumnRef("Items", "iid")],
        order_descending=[True, False],
    ),
    # Filtered on, then dropped: neither column is output or joined on.
    "column_only_in_constraint_and_residual": _query(
        outputs=_plain(("Items", "iid")),
        constraints={
            "Orders": [AttributeConstraint("priority", low=1, high=3)],
            "Items": [AttributeConstraint("note", values=frozenset("xy"))],
        },
        residuals={
            "Items": [Comparison(">", ColumnRef("Items", "price"), Literal(1.5))]
        },
    ),
    "having_and_order_by_on_aggregate_alias": _query(
        outputs=_plain(("Orders", "region"))
        + [_agg("COUNT", ColumnRef("Items", "price"), "n")],
        group_by=[ColumnRef("Orders", "region")],
        having=Comparison(">=", ColumnRef(None, "n"), Literal(1)),
        order_by=[ColumnRef(None, "n")],
        order_descending=[True],
    ),
    "same_column_name_in_both_tables": _query(
        outputs=_plain(("Items", "note"), ("Orders", "note"), ("Orders", "oid")),
    ),
    # An alias that is also a base column's name must not drop the column.
    "aggregate_alias_shadows_a_column": _query(
        outputs=[_agg("MAX", ColumnRef("Items", "qty"), "priority")],
        having=Comparison(">", ColumnRef(None, "priority"), Literal(0)),
    ),
    # Each side keeps its join key only; the row count is what is read.
    "count_star_over_join": _query(outputs=[_agg("COUNT", None, "n")]),
    # No join names Colours and nothing outputs it: zero kept columns.
    "count_star_over_cross_product": _query(
        tables=("Orders", "Colours"), joins=(), outputs=[_agg("COUNT", None, "n")]
    ),
    "cross_product_side_without_output": _query(
        tables=("Orders", "Colours"),
        joins=(),
        outputs=_plain(("Orders", "oid")),
        constraints={"Colours": [AttributeConstraint("name", value="red")]},
    ),
    "single_table_count_with_constraint": _query(
        tables=("Items",),
        joins=(),
        outputs=[_agg("COUNT", None, "n")],
        constraints={"Items": [AttributeConstraint("note", value="x")]},
    ),
    "distinct_projection_with_limit": _query(
        outputs=_plain(("Orders", "region")), select_distinct=True, limit=2
    ),
}


class TestColumnPruning:
    @pytest.fixture
    def unpruned(self, monkeypatch):
        """``evaluate`` with every scan emitting every column."""

        def run(database, query):
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_referenced_columns", lambda query: None)
                return evaluate(database, query, ExecutionConfig("reference"))

        return run

    @pytest.mark.parametrize("empty_side", [False, True], ids=["rows", "empty_side"])
    @pytest.mark.parametrize("shape", sorted(PRUNING_SHAPES))
    def test_pruned_equals_unpruned_on_both_engines(
        self, unpruned, shape, empty_side
    ):
        database = _pruning_database(empty_side)
        query = PRUNING_SHAPES[shape]
        want = unpruned(database, query)
        for name in ("vectorized", "reference"):
            assert_identical(evaluate(database, query, ExecutionConfig(name)), want)
        if not empty_side and not query.has_aggregates:
            assert want.rows

    def test_scans_emit_only_the_referenced_columns(self, monkeypatch):
        """The join sees each table's key and outputs, nothing else — and
        SELECT * sees everything."""
        seen = []
        original = vec.hash_join

        def spy(left, right, keys):
            seen.append((left.layout.columns, right.layout.columns))
            return original(left, right, keys)

        monkeypatch.setattr(vec, "hash_join", spy)
        database = _pruning_database()
        evaluate(database, PRUNING_SHAPES["column_only_in_constraint_and_residual"])
        evaluate(database, PRUNING_SHAPES["star_over_join"])
        assert seen[0] == (
            [("Orders", "oid")],
            [("Items", "iid"), ("Items", "oid")],
        )
        assert [len(side) for side in seen[1]] == [4, 5]

    def test_column_only_in_order_by_fails_the_same_way(self, unpruned):
        """Sorting runs after projection, so a sort key that is not output
        is unknown there — pruning must not turn that into another error
        (or into an answer)."""
        database = _pruning_database()
        query = _query(
            outputs=_plain(("Items", "iid")),
            order_by=[ColumnRef("Items", "qty")],
        )
        for run in (
            lambda: unpruned(database, query),
            lambda: evaluate(database, query, ExecutionConfig("vectorized")),
            lambda: evaluate(database, query, ExecutionConfig("reference")),
        ):
            with pytest.raises(SchemaError, match="unknown column Items.qty"):
                run()

    def test_unqualified_reference_keeps_every_candidate(self, unpruned):
        """A hand-built query may leave the table off: the name is kept in
        every table that has it, so ambiguity is still reported."""
        database = _pruning_database()
        unique = _query(outputs=[OutputColumn(column=ColumnRef(None, "qty"))])
        want = unpruned(database, unique)
        for name in ("vectorized", "reference"):
            assert_identical(evaluate(database, unique, ExecutionConfig(name)), want)
        ambiguous = _query(outputs=[OutputColumn(column=ColumnRef(None, "note"))])
        for name in ("vectorized", "reference"):
            with pytest.raises(SchemaError, match="ambiguous column 'note'"):
                evaluate(database, ambiguous, ExecutionConfig(name))

    @pytest.mark.parametrize("ops", ENGINES, ids=["vectorized", "reference"])
    def test_zero_width_relation_keeps_its_row_count(self, ops):
        relation = _relation(["k", "v"], [(1, "a"), (2, "b"), (3, "c")])
        nothing = ops.project(relation, [])
        assert len(nothing) == 3 and nothing.rows == [(), (), ()]
        kept = ops.filter_rows(
            relation, Comparison(">", ColumnRef("t", "k"), Literal(1)), keep=[]
        )
        assert len(kept) == 2 and kept.rows == [(), ()]
        other = _relation(["w"], [(7,), (8,)], "u")
        product = ops.cross_product(nothing, other)
        assert product.rows == [(7,), (8,)] * 3
        counted = ops.aggregate_rows(kept, [], [Aggregate("COUNT", None, "n")])
        assert counted.rows == [(2,)]


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


def _replay(workload, transport=None):
    data = make_workload(workload, SMALL)
    q = SMALL.weather_q if workload == "real" else SMALL.tpch_q
    instances = make_instances(workload, data, q, SMALL)
    payless = build_system(
        "payless", data, options=QueryOptions(transport=transport)
    )
    results = [payless.query(i.sql, i.params) for i in instances]
    return payless, instances, results


def _multiset_key(row):
    """Sort key that orders rows by their exact columns first, so a float
    rounded differently still lands beside its counterpart."""
    return (
        tuple(repr(v) for v in row if not isinstance(v, float)),
        tuple(v for v in row if isinstance(v, float)),
    )


def _assert_same_multiset(got, want):
    """Equal as multisets; floats to ``rel=1e-9`` (staged rows are summed
    in purchase order, the ground truth in table order)."""
    assert len(got) == len(want)
    for got_row, want_row in zip(
        sorted(got, key=_multiset_key), sorted(want, key=_multiset_key)
    ):
        assert len(got_row) == len(want_row)
        for value, expected in zip(got_row, want_row):
            if isinstance(expected, float):
                assert value == pytest.approx(expected, rel=1e-9)
            else:
                assert value == expected


@pytest.mark.parametrize("workload", ["real", "tpch"])
def test_full_query_parity(workload):
    """Every answer of the session equals the reference engine's ground
    truth over full copies of the market tables."""
    payless, instances, results = _replay(workload)
    assert len(results) == len(instances)
    for instance, result in zip(instances, results):
        want = oracle_evaluate(payless, instance.sql, instance.params)
        _assert_same_multiset(result.rows, want.rows)


@pytest.fixture(scope="module")
def fault_free_weather():
    __, __, results = _replay("real")
    return results


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_full_query_parity_under_chaos(seed, fault_free_weather):
    """Fault injection (same seed → same faults) changes neither an
    answer nor what a query bills."""
    transport = TransportConfig(
        faults=FaultPolicy.uniform(seed=seed, rate=0.15)
    )
    __, __, results = _replay("real", transport)
    assert len(results) == len(fault_free_weather)
    for got, want in zip(results, fault_free_weather):
        assert got.rows == want.rows
        assert got.stats.transactions == want.stats.transactions


def test_unknown_engine_rejected():
    with pytest.raises(ExecutionError):
        ExecutionConfig(engine="gpu")
