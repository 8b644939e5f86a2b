"""Unit tests for expression trees and row layouts."""

import pytest

from repro.errors import SchemaError
from repro.relational.expressions import (
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    RowLayout,
    conjunction,
)


@pytest.fixture
def layout():
    return RowLayout(
        [("s", "country"), ("s", "id"), ("w", "id"), ("w", "temp")]
    )


class TestRowLayout:
    def test_qualified_resolution(self, layout):
        assert layout.resolve("s", "id") == 1
        assert layout.resolve("w", "id") == 2

    def test_unqualified_unique(self, layout):
        assert layout.resolve(None, "country") == 0
        assert layout.resolve(None, "temp") == 3

    def test_unqualified_ambiguous(self, layout):
        with pytest.raises(SchemaError):
            layout.resolve(None, "id")

    def test_unknown(self, layout):
        with pytest.raises(SchemaError):
            layout.resolve("s", "nope")
        with pytest.raises(SchemaError):
            layout.resolve(None, "nope")

    def test_has(self, layout):
        assert layout.has("s", "country")
        assert not layout.has("x", "country")

    def test_concat(self, layout):
        other = RowLayout([("p", "rank")])
        combined = layout.concat(other)
        assert combined.resolve("p", "rank") == 4

    def test_for_table(self):
        layout = RowLayout.for_table("t", ["a", "b"])
        assert layout.resolve("t", "b") == 1

    def test_for_table_is_shared_and_cannot_be_mutated_through_columns(self):
        layout = RowLayout.for_table("t", ["a", "b"])
        assert RowLayout.for_table("t", ("a", "b")) is layout
        layout.columns.append(("t", "c"))
        layout.columns[0] = ("x", "a")
        again = RowLayout.for_table("t", ["a", "b"])
        assert again.columns == [("t", "a"), ("t", "b")] and len(again) == 2
        assert again.resolve("t", "a") == 0 and not again.has("t", "c")

    def test_for_table_keeps_aliases_and_column_lists_apart(self):
        first = RowLayout.for_table("s1", ["id", "city"])
        second = RowLayout.for_table("s2", ["id", "city"])
        assert first is not second
        assert first.has("s1", "id") and not first.has("s2", "id")
        assert second.columns == [("s2", "id"), ("s2", "city")]
        wider = RowLayout.for_table("s1", ["id", "city", "zone"])
        assert wider is not first and len(wider) == 3 and len(first) == 2
        joined = first.concat(second)
        assert joined.resolve("s2", "id") == 2 and len(first) == 2


class TestEvaluation:
    ROW = ("US", 1, 1, 21.5)

    def test_literal(self, layout):
        assert Literal(7).bind(layout)(self.ROW) == 7

    def test_column(self, layout):
        assert ColumnRef("w", "temp").bind(layout)(self.ROW) == 21.5

    def test_comparison_ops(self, layout):
        temp = ColumnRef("w", "temp")
        cases = {
            "=": False, "!=": True, "<": True, "<=": True, ">": False,
            ">=": False,
        }
        for op, expected in cases.items():
            check = Comparison(op, temp, Literal(30)).bind(layout)
            assert check(self.ROW) is expected, op

    def test_invalid_operator(self, layout):
        with pytest.raises(SchemaError):
            Comparison("~", Literal(1), Literal(2))

    def test_and_or_not(self, layout):
        true = Comparison("=", Literal(1), Literal(1))
        false = Comparison("=", Literal(1), Literal(2))
        assert And((true, true)).bind(layout)(self.ROW)
        assert not And((true, false)).bind(layout)(self.ROW)
        assert Or((false, true)).bind(layout)(self.ROW)
        assert not Or((false, false)).bind(layout)(self.ROW)
        assert Not(false).bind(layout)(self.ROW)

    def test_in_list(self, layout):
        check = InList(
            ColumnRef("s", "country"), frozenset({"US", "CA"})
        ).bind(layout)
        assert check(self.ROW)
        check = InList(ColumnRef("s", "country"), frozenset({"DE"})).bind(layout)
        assert not check(self.ROW)

    def test_column_join_comparison(self, layout):
        check = Comparison(
            "=", ColumnRef("s", "id"), ColumnRef("w", "id")
        ).bind(layout)
        assert check(self.ROW)

    def test_conjunction_helpers(self, layout):
        assert conjunction([]).bind(layout)(self.ROW) is True
        single = Comparison("=", Literal(1), Literal(1))
        assert conjunction([single]) is single

    def test_columns_collection(self):
        expr = And(
            (
                Comparison("=", ColumnRef("s", "a"), Literal(1)),
                Comparison("<", ColumnRef("w", "b"), ColumnRef("s", "c")),
            )
        )
        names = {(ref.table, ref.column) for ref in expr.columns()}
        assert names == {("s", "a"), ("w", "b"), ("s", "c")}
