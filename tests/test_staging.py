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
