"""The store → executor → engine data path.

Purchased rows were typed when the seller published them, so the read path
must not re-validate them cell by cell, and the executor's staging must
hand the engine distinct rows however many times one plan reads a table.
The plan walk itself joins only what a bind join (or an adaptive
checkpoint) reads, over join-key columns; the engine evaluates the query
once, over the staged tables.
"""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import pytest

import repro.core.executor as executor_module
from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.executor import Executor
from repro.core.objectives import AdaptivePolicy, QueryOptions
from repro.core.plans import JoinNode, LocalBlockNode, MarketAccessNode
from repro.relational import operators
from repro.relational.database import Database
from repro.relational.schema import Attribute, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.testing import oracle_evaluate, registered_payless, tiny_weather_market
from repro.workloads.synthetic import make_join_graph
from repro.workloads.weather import WeatherConfig
from tests.test_engine_parity import _assert_same_multiset

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
    """Execute a hand-built plan: the executor (for its staging) and what
    ``execute`` returned, the answer and its ``QueryStats``."""
    executor = Executor(payless.context)
    relation, stats = executor.execute(payless.compile(sql), plan)
    return executor, SimpleNamespace(relation=relation, stats=stats)


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


WEATHER_SQL = (
    "SELECT StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND StationID = 1 AND Date <= 3"
)


class TestTheStoreVouchesForTypes:
    """The store checks each batch it caches; staging adopts what it
    assembles unchecked while the store vouches, and takes the checked
    ``Table.from_columns`` (coercing) once it does not."""

    @pytest.mark.parametrize("workload", ["real", "tpch"])
    def test_an_exact_session_stages_unchecked(self, workload, monkeypatch):
        checked, unchecked = [], []
        from_columns, adopt = Table.from_columns, Table.unchecked

        def spy(calls, make):
            return lambda name, schema, columns, count: (
                calls.append(count) or make(name, schema, columns, count)
            )

        monkeypatch.setattr(Table, "from_columns", spy(checked, from_columns))
        monkeypatch.setattr(Table, "unchecked", spy(unchecked, adopt))
        data = make_workload(workload, SESSION)
        payless = build_system("payless", data)
        q = SESSION.weather_q if workload == "real" else SESSION.tpch_q
        instances = make_instances(workload, data, q, SESSION)
        results = [payless.query(i.sql, i.params) for i in instances]
        # Only an empty staged relation takes the checked path.
        assert unchecked and not any(checked)
        assert all(
            payless.store.table(table.name).exact_types
            for dataset in payless.market
            for table in dataset
        )
        for instance, result in zip(instances, results):
            want = oracle_evaluate(payless, instance.sql, instance.params)
            _assert_same_multiset(result.rows, want.rows)

    def test_an_int_in_a_float_column_is_coerced_at_staging(self, payless):
        weather = payless.store.table("Weather")
        cold = payless.query(WEATHER_SQL)
        assert cold.stats.transactions > 0 and weather.exact_types
        payless.store.record(
            "Weather", weather.space.full_box, [("CountryA", 1, 2, 99)]
        )
        assert not weather.exact_types
        warm = payless.query(WEATHER_SQL)
        assert warm.stats.transactions == 0
        assert sorted(warm.rows) == sorted([*cold.rows, (1, 2, 99.0)])
        assert {type(row[2]) for row in warm.rows} == {float}

    @pytest.mark.parametrize("inexact", [False, True])
    @pytest.mark.parametrize("clean_close", [True, False])
    def test_the_flag_survives_a_restart(
        self, tmp_path, monkeypatch, clean_close, inexact
    ):
        """Through the snapshot (``clean_close``) and through WAL replay.
        ``inexact``: a seller that sends ``13`` for a FLOAT ``13.0``."""
        market = tiny_weather_market()
        if inexact:
            get = market.get

            def sloppy_get(request, **kwargs):
                response = get(request, **kwargs)
                rows = tuple((*row[:3], int(row[3])) for row in response.rows)
                return replace(response, rows=rows)

            monkeypatch.setattr(market, "get", sloppy_get)

        def install():
            payless = registered_payless(
                market, options=QueryOptions(durability=tmp_path / "state")
            )
            payless.recover()
            return payless

        first = install()
        answer = first.query(WEATHER_SQL)
        assert first.store.table("Weather").exact_types is not inexact
        if clean_close:
            first.close()
        else:
            first.durability.abandon()
        second = install()
        assert second.store.table("Weather").exact_types is not inexact
        again = second.query(WEATHER_SQL)
        assert again.stats.transactions == 0 and again.rows == answer.rows
        assert {type(row[2]) for row in again.rows} == {float}
        second.close()


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


# ---------------------------------------------------------------------------
# The walk carries bind keys; the engine evaluates once
# ---------------------------------------------------------------------------

THREE_WAY_SQL = (
    "SELECT CityInfo.Zone, Date, Temperature FROM CityInfo, Station, Weather "
    "WHERE CityInfo.City = Station.City "
    "AND Station.StationID = Weather.StationID "
    "AND CityInfo.Zone = {zone} AND Date <= 3"
)
#: CityInfo joins nothing here: a Cartesian (Theorem-3) sibling.
SIBLING_SQL = (
    "SELECT CityInfo.Zone, Station.City, Temperature FROM CityInfo, Station, Weather "
    "WHERE Station.StationID = Weather.StationID "
    "AND CityInfo.Zone = {zone} AND Station.City = 'Alpha' AND Date <= 2"
)


class _WalkSpy:
    """Every engine evaluation, and every hash join made outside one."""

    def __init__(self, monkeypatch):
        self.evaluations = []
        self.walk_joins = []
        self._in_engine = False
        evaluate = executor_module.evaluate

        def counting(database, query):
            self.evaluations.append(query)
            self._in_engine = True
            try:
                return evaluate(database, query)
            finally:
                self._in_engine = False

        monkeypatch.setattr(executor_module, "evaluate", counting)
        monkeypatch.setattr(
            operators, "hash_join", self._spy(operators.hash_join)
        )

    def _spy(self, hash_join):
        def spy(left, right, keys):
            if not self._in_engine:
                self.walk_joins.append(
                    left.layout.columns + right.layout.columns
                )
            return hash_join(left, right, keys)

        return spy


#: PayLess runs one local engine; the id keeps it in the test names.
@pytest.fixture(params=["vectorized"])
def local_payless():
    """The tiny market plus a local CityInfo(City, Zone) table."""
    city_info = Table(
        "CityInfo",
        Schema(
            [
                Attribute("City", AttributeType.STRING),
                Attribute("Zone", AttributeType.INT),
            ]
        ),
        [("Alpha", 1), ("Beta", 1), ("Delta", 3)],
    )
    return registered_payless(
        tiny_weather_market(),
        local_db=Database([city_info]),
    )


def _key_columns(logical):
    return {
        (ref.table, ref.column)
        for join in logical.joins
        for ref in (join.left, join.right)
    }


class TestWalkCarriesKeys:
    def test_fully_covered_query_evaluates_once(self, payless, monkeypatch):
        sql = JOIN_SQL.format(city="Alpha")
        payless.query(sql)
        payless.query(sql)
        spy = _WalkSpy(monkeypatch)
        warm = payless.query(sql)
        assert warm.stats.transactions == 0
        assert len(spy.evaluations) == 1 and spy.walk_joins == []
        # Staged market rows were selected by the access that staged them.
        assert spy.evaluations[0].constraints == {}
        assert spy.evaluations[0].residuals == {}
        assert sorted(warm.rows) == sorted(oracle_evaluate(payless, sql).rows)

    def test_block_only(self, local_payless, monkeypatch):
        """The block *is* the plan: its tables are staged, nothing is
        joined for bindings, and local tables keep their selection."""
        sql = THREE_WAY_SQL.format(zone=1)
        local_payless.query("SELECT * FROM Station")
        local_payless.query("SELECT * FROM Weather")
        spy = _WalkSpy(monkeypatch)
        plan = _node(
            LocalBlockNode,
            ["CityInfo", "Station", "Weather"],
            tables=("CityInfo", "Station", "Weather"),
            covered_market_tables=("Station", "Weather"),
        )
        executor, execution = _run(local_payless, sql, plan)
        assert execution.stats.transactions == 0
        assert len(spy.evaluations) == 1 and spy.walk_joins == []
        assert list(spy.evaluations[0].constraints) == ["CityInfo"]
        assert len(_staged_rows(executor, "Weather")) == 12
        _assert_answer_is_ground_truth(local_payless, sql, execution)

    def test_block_under_a_bind_join(self, local_payless, monkeypatch):
        """The bind join reads the block's keys: the block is evaluated to
        its join-key columns, the join above it is not computed."""
        sql = THREE_WAY_SQL.format(zone=1)
        logical = local_payless.compile(sql)
        local_payless.query("SELECT * FROM Station")
        spy = _WalkSpy(monkeypatch)
        plan = _node(
            JoinNode,
            ["CityInfo", "Station", "Weather"],
            left=_node(
                LocalBlockNode,
                ["CityInfo", "Station"],
                tables=("CityInfo", "Station"),
                covered_market_tables=("Station",),
            ),
            right=_node(
                MarketAccessNode,
                ["Weather"],
                table="Weather",
                bind_attributes=("StationID",),
            ),
            predicates=(logical.joins[1],),
            bind=True,
        )
        executor, execution = _run(local_payless, sql, plan)
        block_query, final_query = spy.evaluations
        assert {
            (out.column.table, out.column.column) for out in block_query.outputs
        } == {
            ("CityInfo", "City"),
            ("Station", "City"),
            ("Station", "StationID"),
        }
        assert final_query.tables == logical.tables
        assert spy.walk_joins == []
        # Zone 1 is Alpha and Beta: stations 1, 2, 3 — station 4 not bought.
        assert {row[1] for row in _staged_rows(executor, "Weather")} == {1, 2, 3}
        _assert_answer_is_ground_truth(local_payless, sql, execution)

    def test_bind_join_above_a_join_sees_key_columns_only(
        self, local_payless, monkeypatch
    ):
        sql = THREE_WAY_SQL.format(zone=1)
        logical = local_payless.compile(sql)
        spy = _WalkSpy(monkeypatch)
        plan = _node(
            JoinNode,
            ["CityInfo", "Station", "Weather"],
            left=_node(
                JoinNode,
                ["CityInfo", "Station"],
                left=_node(LocalBlockNode, ["CityInfo"], tables=("CityInfo",)),
                right=_node(MarketAccessNode, ["Station"], table="Station"),
                predicates=(logical.joins[0],),
            ),
            right=_node(
                MarketAccessNode,
                ["Weather"],
                table="Weather",
                bind_attributes=("StationID",),
            ),
            predicates=(logical.joins[1],),
            bind=True,
        )
        executor, execution = _run(local_payless, sql, plan)
        assert len(spy.walk_joins) == 1
        assert set(spy.walk_joins[0]) <= _key_columns(logical)
        assert {row[1] for row in _staged_rows(executor, "Weather")} == {1, 2, 3}
        _assert_answer_is_ground_truth(local_payless, sql, execution)

    def test_join_above_a_bind_join_is_not_computed(
        self, local_payless, monkeypatch
    ):
        """CityInfo −→⋈ Station reads CityInfo's keys; the plain join with
        Weather above it is the engine's to compute, not the walk's."""
        sql = THREE_WAY_SQL.format(zone=3)
        logical = local_payless.compile(sql)
        spy = _WalkSpy(monkeypatch)
        plan = _node(
            JoinNode,
            ["CityInfo", "Station", "Weather"],
            left=_node(
                JoinNode,
                ["CityInfo", "Station"],
                left=_node(LocalBlockNode, ["CityInfo"], tables=("CityInfo",)),
                right=_node(
                    MarketAccessNode,
                    ["Station"],
                    table="Station",
                    bind_attributes=("City",),
                ),
                predicates=(logical.joins[0],),
                bind=True,
            ),
            right=_node(MarketAccessNode, ["Weather"], table="Weather"),
            predicates=(logical.joins[1],),
        )
        executor, execution = _run(local_payless, sql, plan)
        assert spy.walk_joins == []
        assert len(spy.evaluations) == 2
        assert [row[2] for row in _staged_rows(executor, "Station")] == ["Delta"]
        _assert_answer_is_ground_truth(local_payless, sql, execution)

    @pytest.mark.parametrize("zone,siblings", [(1, 2), (99, 0)])
    def test_cartesian_sibling_counts_without_columns(
        self, local_payless, zone, siblings
    ):
        """A sibling no join names carries no column, only its row count:
        non-empty it leaves the bindings alone, empty it zeroes them —
        the cross product is empty, so nothing is bought for Weather."""
        sql = SIBLING_SQL.format(zone=zone)
        logical = local_payless.compile(sql)
        plan = _node(
            JoinNode,
            ["CityInfo", "Station", "Weather"],
            left=_node(
                JoinNode,
                ["CityInfo", "Station"],
                left=_node(LocalBlockNode, ["CityInfo"], tables=("CityInfo",)),
                right=_node(MarketAccessNode, ["Station"], table="Station"),
                cartesian=True,
            ),
            right=_node(
                MarketAccessNode,
                ["Weather"],
                table="Weather",
                bind_attributes=("StationID",),
            ),
            predicates=tuple(logical.joins),
            bind=True,
        )
        executor, execution = _run(local_payless, sql, plan)
        staged = _staged_rows(executor, "Weather")
        assert len(staged) == (4 if siblings else 0)
        assert len(execution.relation.rows) == 4 * siblings
        if not siblings:
            assert local_payless.store.table("Weather").covered == []
        _assert_answer_is_ground_truth(local_payless, sql, execution)

    def test_adaptive_checkpoints_join_key_columns_only(self, monkeypatch):
        """Every prefix a checkpoint reads is joined, but narrow — and the
        last step's join, which no checkpoint follows, is the engine's."""
        data = make_join_graph("chain", 4)
        static = build_system("payless", data)
        adaptive = build_system(
            "payless",
            data,
            options=QueryOptions(adaptive=AdaptivePolicy(min_rows=float("inf"))),
        )
        want = static.query(data.sql)
        spy = _WalkSpy(monkeypatch)
        got = adaptive.query(data.sql)
        assert got.rows == want.rows and got.stats.replans == 0
        assert got.stats.transactions == want.stats.transactions
        assert len(spy.walk_joins) == 2 and len(spy.evaluations) == 1
        keys = _key_columns(adaptive.compile(data.sql))
        assert all(set(columns) <= keys for columns in spy.walk_joins)


#: The parity suite's profile: small enough for tier-1, joins included.
SESSION = BenchProfile(
    weather_q=2,
    tpch_q=1,
    weather=WeatherConfig(
        countries=2, stations_per_country=4, cities_per_country=3, days=15
    ),
    tpch_scale=0.5,
    tuples_per_transaction=20,
)


def _session(workload, seed, adaptive):
    """One session's results, what the store ends up covering, and what
    was bought: per run of consecutive ledger entries of one table, in
    order, its calls (a pool bills one access's calls in any order, so
    those are sorted by URL and idempotency key)."""
    profile = replace(SESSION, instance_seed=seed)
    data = make_workload(workload, profile)
    q = profile.weather_q if workload == "real" else profile.tpch_q
    payless = build_system(
        "payless",
        data,
        options=QueryOptions(adaptive=adaptive),
    )
    results = [
        payless.query(instance.sql, instance.params)
        for instance in make_instances(workload, data, q, profile)
    ]
    covers = {
        table.name: [
            (cover.box, cover.row_count)
            for cover in payless.store.table(table.name).covered
        ]
        for dataset in payless.market
        for table in dataset
    }
    bought = [
        sorted(
            (entry.request.url(), entry.idempotency_key or "")
            for entry in access
        )
        for __, access in itertools.groupby(
            payless.market.ledger, key=lambda entry: entry.request.table
        )
    ]
    return results, covers, bought


#: ``_Fetched.joined_with`` calls of the TPC-H session per instance seed —
#: (no policy, a policy that never trips) — counted at e2bc40f, when the
#: two were separate walks, and re-counted when tables whose spend would
#: pass their whole-table price began to be bought whole (seed 7 was
#: (2, 6), seed 23 (2, 4): a table bought whole serves later queries from
#: the store, so fewer plans bind-join into it).  The first number is CPU
#: the policy-less walk must not start spending: it joins only what a
#: bind join reads.
WALK_JOINS = {7: (1, 2), 23: (2, 3), 101: (0, 2)}


@pytest.mark.parametrize("seed", [7, 23, 101])
@pytest.mark.parametrize("workload", ["real", "tpch"])
def test_static_walk_equals_the_walk_that_joins_every_prefix(
    workload, seed, monkeypatch
):
    """A policy that never trips makes the walk join every prefix a
    checkpoint reads, where no policy joins only below a bind join;
    neither rows, nor any query's bill, nor the boxes bought and their
    order, nor what the store ends up covering may depend on that."""
    walk_joins = []
    joined_with = executor_module._Fetched.joined_with

    def counting(self, other, predicates):
        walk_joins[-1] += 1
        return joined_with(self, other, predicates)

    monkeypatch.setattr(executor_module._Fetched, "joined_with", counting)
    walk_joins.append(0)
    static, static_covers, static_bought = _session(workload, seed, None)
    never_trips = AdaptivePolicy(min_rows=float("inf"))
    walk_joins.append(0)
    adaptive, adaptive_covers, adaptive_bought = _session(
        workload, seed, never_trips
    )
    assert len(static) == len(adaptive) and static
    for got, want in zip(adaptive, static):
        assert got.rows == want.rows
        assert got.stats.transactions == want.stats.transactions
        assert got.stats.calls == want.stats.calls
        assert got.stats.replans == 0
    assert adaptive_covers == static_covers
    assert adaptive_bought == static_bought and static_bought
    if workload == "tpch":
        assert tuple(walk_joins) == WALK_JOINS[seed]
