"""End-to-end property tests: PayLess must be correct and never overpay.

Hypothesis drives randomized query workloads against the mini weather
market and checks the system's core invariants:

* **Correctness** — results always equal an oracle evaluation over full
  local copies of the market tables, whatever the plan or store state;
* **Frugality** — re-issuing any query is free; cumulative spend never
  exceeds what fetching each query region directly every time would cost;
* **Consistency** — the billing ledger agrees with the per-query deltas.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PayLess
from repro.core.plans import JoinNode, MarketAccessNode
from repro.relational.database import Database
from repro.relational.engine import evaluate
from repro.relational.table import Table

COUNTRIES = ["CountryA", "CountryB"]
CITIES = ["Alpha", "Beta", "Gamma", "Delta"]


@st.composite
def weather_queries(draw):
    """A random conjunctive query over the mini weather schema."""
    table_choice = draw(st.sampled_from(["weather", "station", "join"]))
    predicates = []
    params = []
    if table_choice in ("weather", "join"):
        if draw(st.booleans()):
            low = draw(st.integers(1, 10))
            high = draw(st.integers(low, 10))
            predicates.append("Weather.Date >= ? AND Weather.Date <= ?")
            params.extend([low, high])
        if draw(st.booleans()):
            predicates.append("Weather.Country = ?")
            params.append(draw(st.sampled_from(COUNTRIES)))
    if table_choice in ("station", "join"):
        kind = draw(st.sampled_from(["none", "point", "set"]))
        if kind == "point":
            predicates.append("Station.City = ?")
            params.append(draw(st.sampled_from(CITIES)))
        elif kind == "set":
            chosen = draw(
                st.lists(st.sampled_from(CITIES), min_size=2, max_size=3,
                         unique=True)
            )
            inner = ", ".join("?" for __ in chosen)
            predicates.append(f"Station.City IN ({inner})")
            params.extend(chosen)
    if table_choice == "weather":
        sql = "SELECT * FROM Weather"
    elif table_choice == "station":
        sql = "SELECT * FROM Station"
    else:
        sql = "SELECT Temperature FROM Station, Weather"
        predicates.append("Station.StationID = Weather.StationID")
    if predicates:
        sql += " WHERE " + " AND ".join(predicates)
    return sql, tuple(params)


def oracle(payless, market, sql, params):
    database = Database()
    logical = payless.compile(sql, params)
    for name in logical.tables:
        if payless.context.is_market(name):
            __, market_table = market.find_table(name)
            clone = Table(name, market_table.schema)
            clone.extend(market_table.table.rows)
            database.add(clone)
        else:
            database.add(payless.local_db.table(name))
    return evaluate(database, logical)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(queries=st.lists(weather_queries(), min_size=1, max_size=5))
def test_random_sessions_match_oracle_and_never_repay(
    mini_weather_market, queries
):
    payless = PayLess.full(mini_weather_market)
    payless.register_dataset("WHW")
    ledger_start = mini_weather_market.ledger.total_transactions

    spent = 0
    for sql, params in queries:
        result = payless.query(sql, params)
        expected = oracle(payless, mini_weather_market, sql, params)
        assert sorted(result.rows, key=repr) == sorted(
            expected.rows, key=repr
        ), sql
        assert result.stats.transactions >= 0
        spent += result.stats.transactions

        # A repeat may legally switch plan shape (bind join → direct) and
        # buy tuples outside the first plan's region — possibly even more
        # than the first run paid (the direct region is a superset of the
        # bound one).  What must hold: answers stay correct, and the cost
        # reaches zero once every plan shape's region is stored — two
        # repeats suffice, since there are only the bound and unbound
        # region variants per table and each run covers the one it chose.
        repeat = payless.query(sql, params)
        assert sorted(repeat.rows, key=repr) == sorted(
            expected.rows, key=repr
        )
        spent += repeat.stats.transactions
        settled = payless.query(sql, params)
        assert settled.stats.transactions == 0, f"third issue of {sql} not free"
        assert sorted(settled.rows, key=repr) == sorted(
            expected.rows, key=repr
        )

    # Ledger agreement.
    assert (
        mini_weather_market.ledger.total_transactions - ledger_start == spent
    )
    assert payless.total_transactions == spent


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=weather_queries())
def test_single_query_never_beats_direct_region_price(
    mini_weather_market, query
):
    """On a cold store, PayLess pays at most the direct region price."""
    sql, params = query
    payless = PayLess.full(mini_weather_market)
    payless.register_dataset("WHW")
    result = payless.query(sql, params)

    # Direct price: fetch each table's full request region in one go.
    logical = payless.compile(sql, params)
    direct = 0
    for table in logical.tables:
        if not payless.context.is_market(table):
            continue
        statistics = payless.catalog.statistics(table)
        boxes = statistics.space.boxes_for_constraints(
            logical.constraints_for(table)
        )
        __, market_table = mini_weather_market.find_table(table)
        schema = market_table.schema
        for box in boxes:
            rows = sum(
                1
                for row in market_table.table
                if statistics.space.row_point(row, schema) is not None
                and box.contains_point(
                    statistics.space.row_point(row, schema)
                )
            )
            direct += -(-rows // 10)  # ceil at t=10
    assert result.stats.transactions <= direct


def plan_market_accesses(plan):
    """Every MarketAccessNode of a plan tree, in plan (execution) order."""
    if isinstance(plan, MarketAccessNode):
        return [plan]
    if isinstance(plan, JoinNode):
        return plan_market_accesses(plan.left) + plan_market_accesses(
            plan.right
        )
    return []  # LocalBlockNode and friends have no market access children


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=weather_queries())
def test_trace_spans_nest_and_account_for_the_whole_bill(
    mini_weather_market, query
):
    """Structural trace invariants, on cold and warm issues of any query:

    * spans nest — every child's interval lies within its parent's;
    * every MarketAccessNode yields exactly one ``table_fetch`` span;
    * the ``table_fetch`` spans' transactions sum to the query's bill.
    """
    sql, params = query
    payless = PayLess.full(mini_weather_market, tracing=True)
    payless.register_dataset("WHW")
    for __ in range(2):  # cold issue, then a store-warm repeat
        result = payless.query(sql, params)
        trace = result.trace
        assert trace is not None
        assert trace.root.kind == "query"

        for span in trace.spans():
            assert span.finished, span
            assert span.end_ms >= span.start_ms
            for child in span.children:
                assert child.start_ms >= span.start_ms
                assert child.end_ms <= span.end_ms

        accesses = plan_market_accesses(result.plan)
        access_spans = [
            span
            for span in trace.spans("table_fetch")
            if span.attrs.get("source") in ("access", "bound")
        ]
        assert len(access_spans) == len(accesses)
        assert sorted(
            span.attrs["table"].lower() for span in access_spans
        ) == sorted(node.table.lower() for node in accesses)

        total = sum(
            span.attrs.get("transactions", 0)
            for span in trace.spans("table_fetch")
        )
        assert total == result.stats.transactions
