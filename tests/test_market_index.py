"""The seller's per-attribute indexes answer exactly what a scan selects.

``MarketTable.rows_matching`` starts from the smallest index slice a call's
constraints name and filters the survivors column by column; the oracle is
the plain scan ``[row for row in table if request.matches(row, schema)]``,
compared as an ordered list (the seller answers in table order).  The
wall-clock guard is loose and marked ``slow`` (``pytest -m slow``).
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.market.dataset as dataset_module
from repro.market import BindingPattern, DataMarket, RestRequest, interval, point
from repro.market.dataset import MarketTable
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType as T
from repro.workloads.weather import WeatherConfig, generate_weather_workload

NAN = float("nan")
INF = float("inf")
STRINGS = ("a", "b", "c", "")

SCHEMA = Schema(
    [
        Attribute("I", T.INT, Domain.numeric(-3, 5)),
        Attribute("D", T.DATE, Domain.numeric(1, 8)),
        Attribute("F", T.FLOAT, Domain.numeric(-INF, INF)),
        Attribute("S", T.STRING, Domain.categorical(STRINGS)),
        Attribute("Out", T.INT),
    ]
)
PATTERN = BindingPattern.parse("R", "If, Df, Ff, Sf")
NUMERIC = ("I", "D", "F")

FLOATS = st.sampled_from([NAN, 0.0, -0.0, INF, -INF, 1.5, 2.0, -1.0]) | (
    st.floats(-4, 4, allow_nan=False)
)
ROWS = st.lists(
    st.tuples(
        st.integers(-3, 5),
        st.integers(1, 8),
        FLOATS,
        st.sampled_from(STRINGS),
        st.integers(0, 9),
    ),
    max_size=40,
)
#: Point values: the column's own values and some it does not hold, a value
#: of a foreign type, and an int where the column holds floats (and back).
POINTS = {
    "I": st.integers(-4, 6) | st.sampled_from([2.0, 2.5, "2", NAN]),
    "D": st.integers(0, 9) | st.sampled_from([3.0, "3"]),
    "F": FLOATS | st.sampled_from([2, 0, "x"]),
    "S": st.sampled_from(STRINGS + ("z", 3, 0.0)),
}
BOUNDS = (
    st.none()
    | st.integers(-5, 10)
    | st.floats(-5, 10)
    | st.sampled_from([INF, -INF, NAN])
)


@st.composite
def rest_requests(draw):
    """Calls with 0-3 constraints on distinct attributes: points, and
    half-open or one-sided ranges on the numeric ones."""
    chosen = []
    names = st.lists(st.sampled_from(sorted(POINTS)), unique=True, max_size=3)
    for name in draw(names):
        if name in NUMERIC and draw(st.booleans()):
            low, high = draw(BOUNDS), draw(BOUNDS)
            assume(low is not None or high is not None)
            assume(low is None or high is None or not low >= high)
            chosen.append(AttributeConstraint(name, low=low, high=high))
        else:
            chosen.append(AttributeConstraint(name, value=draw(POINTS[name])))
    return RestRequest("D", "R", tuple(chosen))


def scan(market_table: MarketTable, request: RestRequest) -> list:
    schema = market_table.schema
    return [row for row in market_table.table if request.matches(row, schema)]


@settings(max_examples=300, deadline=None)
@given(
    rows=ROWS,
    appended=ROWS,
    requests=st.lists(rest_requests(), min_size=1, max_size=6),
)
def test_the_seller_answers_what_the_scan_selects(rows, appended, requests):
    market_table = MarketTable(Table("R", SCHEMA, rows), PATTERN)
    for request in requests:
        assert market_table.rows_matching(request) == scan(market_table, request)
    # An append drops the indexes; the next calls see the new rows.
    market_table.append(appended)
    for request in requests:
        assert market_table.rows_matching(request) == scan(market_table, request)


def test_points_follow_equality_and_nan_matches_nothing():
    two, zero, nan = (2, 1, 2.0, "a", 0), (3, 1, -0.0, "b", 0), (4, 2, NAN, "c", 0)
    market_table = MarketTable(Table("R", SCHEMA, [two, zero, nan]), PATTERN)

    def ask(*constraints):
        return market_table.rows_matching(RestRequest("D", "R", constraints))

    assert ask(point("I", 2.0)) == [two] and ask(point("F", 2)) == [two]
    assert ask(point("F", 0)) == [zero]
    assert ask(point("I", "2")) == [] and ask(point("S", 3)) == []
    # A hash lookup would find the very NaN object the table holds.
    assert ask(point("F", NAN)) == []
    assert ask(interval("F", high=INF)) == [two, zero]
    assert ask(interval("F", low=NAN)) == [] and ask(interval("I", high=NAN)) == []


def test_eight_threads_making_their_first_calls_build_each_index_once(
    monkeypatch,
):
    rng = random.Random(7)
    rows = [
        (
            rng.randint(-3, 5),
            rng.randint(1, 8),
            rng.choice([NAN, rng.uniform(-4, 4)]),
            rng.choice(STRINGS),
            rng.randint(0, 9),
        )
        for __ in range(4000)
    ]
    market_table = MarketTable(Table("R", SCHEMA, rows), PATTERN)
    requests = [
        RestRequest("D", "R", (point("S", "b"), interval("D", 2, 5))),
        RestRequest("D", "R", (interval("F", -1, 1), point("I", 4))),
        RestRequest("D", "R", (interval("I", low=0),)),
        RestRequest("D", "R", (point("D", 3), interval("F", high=0.5))),
    ]
    expected = [scan(market_table, request) for request in requests]

    built = []
    real_index = dataset_module._AttributeIndex

    def counting_index(*args):
        built.append(args)
        return real_index(*args)

    monkeypatch.setattr(dataset_module, "_AttributeIndex", counting_index)
    barrier = threading.Barrier(8)
    answers: list = [None] * 8

    def first_calls(slot: int) -> None:
        barrier.wait(timeout=10)
        answers[slot] = [market_table.rows_matching(r) for r in requests]

    threads = [threading.Thread(target=first_calls, args=(k,)) for k in range(8)]
    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval_before)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [expected] * 8
    assert len(built) == 4  # one per attribute the calls constrain


def q1_call_seconds(days: int) -> float:
    """Best per-call wall of 30 Q1-shaped calls (one country, a 15-day
    window) on the end-to-end benchmark's weather shape, indexes built."""
    data = generate_weather_workload(
        WeatherConfig(countries=8, stations_per_country=12, days=days, seed=7)
    )
    market = DataMarket()
    market.publish(data.market_dataset_whw)
    rng = random.Random(11)
    requests = []
    for __ in range(30):
        start = rng.randint(1, days - 14)
        requests.append(
            RestRequest(
                "WHW",
                "Weather",
                (
                    point("Country", rng.choice(data.countries)),
                    interval("Date", start, start + 15),
                ),
            )
        )
    for request in requests:
        assert market.get(request).record_count == 12 * 15
    best = INF
    for __ in range(5):
        started = time.perf_counter()
        for request in requests:
            market.get(request)
        best = min(best, time.perf_counter() - started)
    return best / len(requests)


@pytest.mark.slow
def test_a_q1_call_costs_what_it_selects_not_the_table():
    """Ten times the days, the same 180 records a call: a scan of the
    country's rows grows 10x; the index slices stay within 3x."""
    assert q1_call_seconds(2400) <= 3 * q1_call_seconds(240)
