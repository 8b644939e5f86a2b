"""Unit tests for the row-store table, and the parity of its batch paths
(``extend``/``from_columns``) with the per-row ``append`` loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchemaError, TypeMismatchError
from repro.relational.operators import scan
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType as T


@pytest.fixture
def table():
    schema = Schema(
        [
            Attribute("City", T.STRING),
            Attribute("Pop", T.INT),
        ]
    )
    return Table("Cities", schema, [("Seattle", 750), ("Boston", 690)])


class TestAppend:
    def test_append_and_len(self, table):
        table.append(("Austin", 980))
        assert len(table) == 3

    def test_wrong_width(self, table):
        with pytest.raises(TypeMismatchError):
            table.append(("OnlyCity",))

    def test_wrong_type(self, table):
        with pytest.raises(TypeMismatchError):
            table.append(("Austin", "many"))

    def test_coercion_applied(self, table):
        table.append(("Austin", 980.0))
        assert table.rows[-1] == ("Austin", 980)

    def test_empty_name_rejected(self, table):
        with pytest.raises(SchemaError):
            Table("", table.schema)


class TestAccessors:
    def test_column(self, table):
        assert table.column("City") == ["Seattle", "Boston"]

    def test_distinct(self, table):
        table.append(("Seattle", 1))
        assert table.distinct("City") == {"Seattle", "Boston"}

    def test_select(self, table):
        big = table.select(lambda row: row[1] > 700)
        assert big == [("Seattle", 750)]

    def test_getter(self, table):
        get_pop = table.getter("Pop")
        assert [get_pop(row) for row in table] == [750, 690]

    def test_iteration_order(self, table):
        assert list(table) == [("Seattle", 750), ("Boston", 690)]


class TestCoerceOverflow:
    def test_float_column_rejects_int_beyond_float_range(self):
        schema = Schema([Attribute("X", T.FLOAT)])
        with pytest.raises(TypeMismatchError, match="expected float"):
            T.FLOAT.coerce(10**400)
        floats = Table("F", schema, [(1.0,)])
        with pytest.raises(TypeMismatchError):
            floats.extend([(2.0,), (10**400,), (3.0,)])
        assert floats.rows == [(1.0,), (2.0,)]


# --------------------------------------------------------------------------
# Batch validation: extend() / from_columns() must be indistinguishable from
# the per-row append() loop they fall back to.

class _MyInt(int):
    """An int subclass: coerce() keeps it, so the exact-type check must not
    take the batch path's word for it being a plain int."""


_EXACT_CELLS = {
    T.INT: st.integers(-5, 5),
    T.DATE: st.integers(20140101, 20140105),
    T.FLOAT: st.floats(allow_nan=True, allow_infinity=True, width=32),
    T.STRING: st.sampled_from(["a", "b", ""]),
}
_ODD_CELLS = st.sampled_from(
    [True, None, 3, 7.0, 7.5, float("nan"), _MyInt(4), "x", 10**400, 2.0]
)


def _fingerprint(table):
    """Stored rows by value *and* type (repr tells nan from nan-free)."""
    return [
        (tuple(map(repr, row)), tuple(map(type, row)), type(row))
        for row in table.rows
    ]


def _outcome(build):
    """``(error type, message)`` of ``build()``, or None when it succeeds."""
    try:
        build()
    except Exception as error:  # parity covers whatever append() raises
        return type(error), str(error)
    return None


@st.composite
def _batches(draw):
    types = draw(st.lists(st.sampled_from(list(T)), min_size=1, max_size=4))
    schema = Schema(
        [Attribute(f"C{i}", atype) for i, atype in enumerate(types)]
    )
    exact = draw(st.booleans())

    def cell(atype):
        if exact:
            return _EXACT_CELLS[atype]
        return st.one_of(_EXACT_CELLS[atype], _EXACT_CELLS[atype], _ODD_CELLS)

    row = st.tuples(*(cell(atype) for atype in types))
    if not exact:
        ragged = st.lists(_ODD_CELLS, max_size=5).map(tuple)
        row = st.one_of(row, row, row, row.map(list), ragged)
    return schema, draw(st.lists(row, max_size=8))


class TestBatchParity:
    @settings(max_examples=300, deadline=None)
    @given(_batches(), st.sampled_from([list, tuple, iter]))
    def test_extend_equals_append_loop(self, case, container):
        schema, batch = case
        looped = Table("T", schema, [])
        batched = Table("T", schema, [])

        def loop():
            for row in batch:
                looped.append(row)

        expected = _outcome(loop)
        assert _outcome(lambda: batched.extend(container(batch))) == expected
        assert _fingerprint(batched) == _fingerprint(looped)
        assert len(batched) == len(looped)
        # The engine's view agrees with the rows however they arrived.
        assert [list(map(repr, c)) for c in scan(batched).columns_data] == [
            list(map(repr, c)) for c in scan(looped).columns_data
        ]

    def test_rows_before_a_raising_generator_stay_appended(self):
        schema = Schema([Attribute("X", T.INT)])

        def rows():
            yield (1,)
            yield (2,)
            raise RuntimeError("source died")

        batched = Table("T", schema)
        with pytest.raises(RuntimeError, match="source died"):
            batched.extend(rows())
        assert batched.rows == [(1,), (2,)]

    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_from_columns_equals_row_constructor(self, case):
        schema, batch = case
        width = len(schema)
        batch = [row for row in batch if len(row) == width]
        columns = (
            tuple(zip(*batch)) if batch else tuple(() for __ in range(width))
        )
        by_rows, by_columns = [], []
        expected = _outcome(lambda: by_rows.append(Table("T", schema, batch)))
        assert (
            _outcome(
                lambda: by_columns.append(
                    Table.from_columns("T", schema, columns, len(batch))
                )
            )
            == expected
        )
        if expected is None:
            assert _fingerprint(by_columns[0]) == _fingerprint(by_rows[0])
            assert len(by_columns[0]) == len(by_rows[0]) == len(batch)

    def test_scan_shares_the_adopted_columns(self):
        schema = Schema([Attribute("City", T.STRING), Attribute("Pop", T.INT)])
        columns = (["Seattle", "Boston"], [750, 690])
        adopted = Table.from_columns("Cities", schema, columns, 2)
        scanned = scan(adopted).columns_data
        assert scanned[0] is columns[0] and scanned[1] is columns[1]
        assert adopted.rows == [("Seattle", 750), ("Boston", 690)]
        adopted.append(("Austin", 980.0))
        assert len(adopted) == 3 and columns[1] == [750, 690]
        assert scan(adopted).columns_data[1] == (750, 690, 980)

    def test_from_columns_rejects_a_count_the_columns_do_not_have(self):
        schema = Schema([Attribute("City", T.STRING), Attribute("Pop", T.INT)])
        with pytest.raises(TypeMismatchError, match="expected 2 each"):
            Table.from_columns("Cities", schema, (["a", "b"], [1]), 2)
