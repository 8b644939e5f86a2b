"""The store → executor → engine data path.

Purchased rows were typed when the seller published them, so the read path
must not re-validate them cell by cell, and the executor's staging must
hand the engine distinct rows however many times one plan reads a table.
"""

import pytest

from repro.core.executor import Executor
from repro.core.plans import JoinNode, LocalBlockNode, MarketAccessNode
from repro.relational.types import AttributeType
from repro.testing import oracle_evaluate, registered_payless, tiny_weather_market

JOIN_SQL = (
    "SELECT City, Date, Temperature FROM Station, Weather "
    "WHERE Station.StationID = Weather.StationID "
    "AND City = '{city}' AND Date <= 3"
)


@pytest.fixture
def payless():
    return registered_payless(tiny_weather_market())


def _node(cls, relations, **fields):
    return cls(
        relations=frozenset(relations), cost=0.0, estimated_rows=1.0, **fields
    )


def _run(payless, sql, plan):
    """Execute a hand-built plan; returns the executor too, for its staging."""
    executor = Executor(payless.context)
    try:
        return executor, executor.execute(payless.compile(sql), plan)
    finally:
        executor.close()


def _staged_rows(executor, table):
    return executor._staged[table.lower()].rows


def _assert_answer_is_ground_truth(payless, sql, execution):
    expected = oracle_evaluate(payless, sql)
    assert sorted(execution.relation.rows, key=repr) == sorted(
        expected.rows, key=repr
    )


class TestWarmPathDoesNotRevalidate:
    def test_fully_covered_query_never_calls_coerce(self, payless, monkeypatch):
        sql = JOIN_SQL.format(city="Alpha")
        cold = payless.query(sql)
        assert cold.stats.transactions > 0
        # The first repeat plans around what is now covered and may still
        # buy the region the bind join skipped; after it, nothing is missing.
        payless.query(sql)

        calls = []
        original = AttributeType.coerce

        def counting(self, value):
            calls.append(value)
            return original(self, value)

        monkeypatch.setattr(AttributeType, "coerce", counting)
        warm = payless.query(sql)
        assert warm.stats.transactions == 0
        assert sorted(warm.rows) == sorted(cold.rows) and warm.rows
        assert len(calls) == 0


class TestSameTableTwice:
    def test_covered_block_then_access(self, payless):
        """Theorem-3 shape: a zero-price block and a market access, both
        over Station, as Cartesian siblings under the join with Weather."""
        sql = JOIN_SQL.format(city="Alpha")
        join = payless.compile(sql).joins[0]
        plan = _node(
            JoinNode,
            ["Station", "Weather"],
            left=_node(
                JoinNode,
                ["Station"],
                left=_node(
                    LocalBlockNode,
                    ["Station"],
                    tables=("Station",),
                    covered_market_tables=("Station",),
                ),
                right=_node(MarketAccessNode, ["Station"], table="Station"),
                cartesian=True,
            ),
            right=_node(MarketAccessNode, ["Weather"], table="Weather"),
            predicates=(join,),
        )
        executor, execution = _run(payless, sql, plan)
        staged = _staged_rows(executor, "Station")
        assert len(staged) == len(set(staged)) == 2
        _assert_answer_is_ground_truth(payless, sql, execution)

    def test_bound_access_then_wider_access_appends_only_new_rows(self, payless):
        sql = JOIN_SQL.format(city="Beta")
        executor, execution = _run(payless, sql, self._bind_then_direct(payless, sql))
        staged = _staged_rows(executor, "Weather")
        # Station 3's three days from the bind join, then the other three
        # stations' days from the direct access — none of them twice.
        assert len(staged) == len(set(staged)) == 12
        assert [row[1] for row in staged[:3]] == [3, 3, 3]
        overlay = executor._build_overlay(None, {"Weather"})
        assert overlay.region_rows("Weather") == 12.0
        _assert_answer_is_ground_truth(payless, sql, execution)

    def test_empty_bindings_then_access(self, payless):
        sql = JOIN_SQL.format(city="Nowhere")
        executor, execution = _run(payless, sql, self._bind_then_direct(payless, sql))
        assert _staged_rows(executor, "Station") == []
        staged = _staged_rows(executor, "Weather")
        assert len(staged) == len(set(staged)) == 12
        assert executor._build_overlay(None, {"Station"}).region_rows("Station") == 0.0
        assert execution.relation.rows == []
        _assert_answer_is_ground_truth(payless, sql, execution)

    def test_empty_bindings_alone_stage_an_empty_table(self, payless):
        sql = JOIN_SQL.format(city="Nowhere")
        join = payless.compile(sql).joins[0]
        plan = _node(
            JoinNode,
            ["Station", "Weather"],
            left=_node(MarketAccessNode, ["Station"], table="Station"),
            right=_node(
                MarketAccessNode,
                ["Weather"],
                table="Weather",
                bind_attributes=("StationID",),
            ),
            predicates=(join,),
            bind=True,
        )
        executor, execution = _run(payless, sql, plan)
        assert _staged_rows(executor, "Weather") == []
        assert execution.relation.rows == []
        _assert_answer_is_ground_truth(payless, sql, execution)

    @staticmethod
    def _bind_then_direct(payless, sql):
        """Station −→⋈ Weather (bound on StationID), × Weather again."""
        join = payless.compile(sql).joins[0]
        bound = _node(
            JoinNode,
            ["Station", "Weather"],
            left=_node(MarketAccessNode, ["Station"], table="Station"),
            right=_node(
                MarketAccessNode,
                ["Weather"],
                table="Weather",
                bind_attributes=("StationID",),
            ),
            predicates=(join,),
            bind=True,
        )
        return _node(
            JoinNode,
            ["Station", "Weather"],
            left=bound,
            right=_node(MarketAccessNode, ["Weather"], table="Weather"),
            cartesian=True,
        )


#: One WHERE clause per way a constraint can reach ``_fetch_market_inner``
#: on Weather(Country c, StationID int, Date date | Temperature float).
FILTER_ONCE_CASES = {
    "value_categorical": "Country = 'CountryA'",
    "value_numeric": "StationID = 3",
    "values": "StationID IN (1, 3)",
    "low_high": "Date >= 3 AND Date < 7",
    "two_ranges_one_axis": "Date >= 2 AND Date <= 8 AND Date > 4",
    "set_member_off_domain": "StationID IN (2, 99) AND Country IN ('CountryB', 'Atlantis')",
    "value_off_domain": "StationID = 99",
    "range_wider_than_domain": "Date >= -50 AND Date <= 500",
    "float_value": "Temperature = 23.0",
    "float_set_and_axis": "Temperature IN (23.0, 41.0, 12.0) AND StationID IN (2, 4)",
    "residual": "Temperature > 25.5 AND Date <= 4",
    "residual_on_axis": "StationID != 2 AND Country = 'CountryA'",
}


class TestFilterOnce:
    """The store applies the constraints its boxes express — exactly — and
    the executor filters only the rest: the staged relation must be the
    one the full predicate list selects from ground truth."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "whole_table_cached"])
    @pytest.mark.parametrize("case", sorted(FILTER_ONCE_CASES))
    def test_staged_relation_is_what_every_predicate_selects(
        self, payless, monkeypatch, case, warm
    ):
        if warm:
            # One chunk holding the whole table: every request below has
            # to be cut out of it, nothing arrives pre-cut from the market.
            payless.query("SELECT * FROM Weather")
        staged = []
        stage = Executor._stage

        def capturing(self, table, relation):
            staged.append(relation.rows)
            return stage(self, table, relation)

        monkeypatch.setattr(Executor, "_stage", capturing)
        sql = f"SELECT * FROM Weather WHERE {FILTER_ONCE_CASES[case]}"
        result = payless.query(sql)
        expected = sorted(oracle_evaluate(payless, sql).rows)
        assert [sorted(rows) for rows in staged] == [expected]
        assert sorted(result.rows) == expected
        if warm:
            assert result.stats.transactions == 0

    @pytest.mark.parametrize("case", sorted(FILTER_ONCE_CASES))
    def test_store_alone_is_exact_on_the_axes(self, payless, case):
        """No executor at all: the boxes of a constraint list select from
        the cached rows exactly what the constraints on the table's
        dimensions match — an off-domain row never among them."""
        store = payless.store.table("Weather")
        __, weather = payless.market.find_table("Weather")
        store.record(
            store.space.full_box,
            weather.table.rows + [("Atlantis", 99, 5, 0.5), ("CountryA", 1, 77, 0.5)],
            0.0,
        )
        logical = payless.compile(
            f"SELECT * FROM Weather WHERE {FILTER_ONCE_CASES[case]}"
        )
        on_axes = [
            (store.schema.position(c.attribute), c)
            for c in logical.constraints_for("Weather")
            if store.space.has_dimension(c.attribute)
        ]
        boxes = store.space.boxes_for_constraints(logical.constraints_for("Weather"))
        assert store.rows_in_boxes(boxes) == [
            row
            for row in weather.table.rows
            if all(c.matches(row[at]) for at, c in on_axes)
        ]
