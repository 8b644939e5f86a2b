"""Overlapped market fetch: billing invariance and simulated wall-clock.

Remainder calls within one table access overlap on the event loop when
the market's calls wait, and run one after another inline when they
cannot.  The driver may only change wall-clock: every observable money
number — transactions, price, calls, fetched records, the ledger — must
be identical either way (an acceptance criterion, asserted here on a
Figure-10-style session).  The simulated critical path is charged by one
rule, whichever driver ran: each access's calls packed onto the seller
pool's ``DEFAULT_POOL_SIZE`` lanes, never more than the serial sum.
"""

import asyncio
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.core.purchase import _makespan
from repro.core.objectives import QueryOptions
from repro.core.payless import PayLess
from repro.market.faults import FaultPolicy
from repro.market.latency import LatencyModel
from repro.market.rest import RestRequest
from repro.market.server import DataMarket
from repro.market.transport import TransportConfig
from repro.relational.query import AttributeConstraint
from repro.testing import registered_payless, tiny_weather_market
from repro.workloads.weather import WeatherConfig

from .fetch_drivers import drive

SMALL = BenchProfile(
    weather_q=2,
    weather=WeatherConfig(
        countries=2, stations_per_country=6, cities_per_country=4, days=20
    ),
)


def build_payless(data, driver: str) -> PayLess:
    market = DataMarket()
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess.full(drive(market, driver), local_db=data.local_database())
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


class TestBillingInvariance:
    def test_fig10_weather_session_is_identical(self):
        """Acceptance criterion: overlapped fetch changes no money number."""
        data = make_workload("real", SMALL)
        instances = make_instances("real", data, SMALL.weather_q, SMALL)
        serial = build_payless(data, "inline")
        parallel = build_payless(data, "async")
        with parallel:  # stops the event loop the async arm started
            results = [
                (
                    serial.query(instance.sql, instance.params),
                    parallel.query(instance.sql, instance.params),
                )
                for instance in instances
            ]
        for a, b in results:
            assert (
                a.stats.transactions,
                a.stats.price,
                a.stats.calls,
                a.stats.records,
            ) == (
                b.stats.transactions,
                b.stats.price,
                b.stats.calls,
                b.stats.records,
            )
            assert sorted(a.rows) == sorted(b.rows)
        assert (
            serial.market.ledger.total_transactions
            == parallel.market.ledger.total_transactions
        )
        assert serial.market.ledger.total_price == pytest.approx(
            parallel.market.ledger.total_price
        )
        assert (
            serial.market.ledger.total_calls
            == parallel.market.ledger.total_calls
        )
        assert (
            serial.market.ledger.total_records
            == parallel.market.ledger.total_records
        )


def latency_payless(driver: str) -> PayLess:
    market = tiny_weather_market(days=30)
    return registered_payless(
        drive(
            market,
            driver,
            LatencyModel(round_trip_ms=100.0, per_transaction_ms=10.0),
        )
    )


def fragmented_query(payless: PayLess):
    """Cover the middle of the Date axis, then ask for all of CountryA.

    The remainder decomposes into the two Date endpoints — two REST calls
    in one table access, which is what parallel fetch can overlap.
    """
    with payless:
        payless.query(
            "SELECT Temperature FROM Weather "
            "WHERE Country = 'CountryA' AND Date >= 2 AND Date <= 29"
        )
        return payless.query(
            "SELECT Temperature FROM Weather WHERE Country = 'CountryA'"
        )


class TestCriticalPath:
    def test_serial_critical_path_equals_serial_sum(self):
        """An access that makes one call has nothing to overlap."""
        result = latency_payless("inline").query(
            "SELECT Temperature FROM Weather WHERE Country = 'CountryA'"
        )
        assert result.stats.calls == 1
        assert result.stats.market_time_ms > 0
        assert result.stats.market_time_critical_path_ms == pytest.approx(
            result.stats.market_time_ms
        )

    def test_parallel_critical_path_is_shorter(self):
        """One rule: the inline driver's calls ran one after another, yet
        the critical path is charged as the event loop would run them."""
        inline, awaited = (
            fragmented_query(latency_payless(driver))
            for driver in ("inline", "async")
        )
        assert inline.stats.calls >= 2
        assert 0 < inline.stats.market_time_critical_path_ms < (
            inline.stats.market_time_ms
        )
        assert (
            inline.stats.market_time_critical_path_ms,
            inline.stats.market_time_ms,
        ) == (
            awaited.stats.market_time_critical_path_ms,
            awaited.stats.market_time_ms,
        )

    def test_parallelism_never_changes_the_bill(self):
        serial = fragmented_query(latency_payless("inline"))
        parallel = fragmented_query(latency_payless("async"))
        assert serial.stats.transactions == parallel.stats.transactions
        assert serial.stats.price == pytest.approx(parallel.stats.price)
        assert serial.stats.calls == parallel.stats.calls
        assert serial.stats.market_time_ms == pytest.approx(
            parallel.stats.market_time_ms
        )
        assert sorted(serial.rows) == sorted(parallel.rows)


class TestMakespan:
    def test_empty(self):
        assert _makespan([], 4) == 0.0

    def test_single_worker_is_serial_sum(self):
        assert _makespan([4.0, 3.0, 2.0], 1) == pytest.approx(9.0)

    def test_list_scheduling_two_workers(self):
        # Greedy in-order assignment: lanes fill as [4, 3+2+1] -> 6?  No:
        # heap replays the pool -- [0,0] -> [0,4] -> [3,4] -> [4,5] -> [5,5].
        assert _makespan([4.0, 3.0, 2.0, 1.0], 2) == pytest.approx(5.0)

    def test_more_workers_than_calls(self):
        assert _makespan([7.0, 3.0], 16) == pytest.approx(7.0)

    def test_never_below_longest_call_or_above_sum(self):
        durations = [5.0, 1.0, 4.0, 2.0, 8.0, 3.0]
        for workers in range(1, 9):
            makespan = _makespan(durations, workers)
            assert makespan >= max(durations)
            assert makespan <= sum(durations) + 1e-9


class TestThreadSafety:
    def test_concurrent_gets_bill_every_call(self):
        market = tiny_weather_market()
        requests = [
            RestRequest(
                "WHW",
                "Weather",
                (AttributeConstraint("StationID", value=station),),
            )
            for station in (1, 2, 3, 4)
        ] * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(market.get, requests))
        assert market.ledger.total_calls == len(requests)
        assert market.ledger.total_records == sum(
            len(response.rows) for response in responses
        )
        oracle = tiny_weather_market()
        for request in requests:
            oracle.get(request)
        assert market.ledger.total_transactions == oracle.ledger.total_transactions
        assert market.ledger.total_price == pytest.approx(
            oracle.ledger.total_price
        )


def _traced_payless(driver: str, faulty: bool, latency=None) -> PayLess:
    transport = (
        TransportConfig(
            faults=FaultPolicy.uniform(seed=7, rate=0.3), max_retries=8
        )
        if faulty
        else None
    )
    market = tiny_weather_market(days=30)
    return registered_payless(
        drive(market, driver, latency) if latency else drive(market, driver),
        options=QueryOptions(transport=transport),
        tracing=True,
    )


def _warm_stripes(payless: PayLess) -> None:
    """Buy alternating Date stripes of CountryA."""
    for low in range(2, 30, 8):
        payless.query(
            "SELECT Temperature FROM Weather WHERE Country = 'CountryA' "
            f"AND Date >= {low} AND Date <= {low + 1}"
        )


def _fragmented_trace(payless: PayLess):
    """Warm alternating Date stripes, then query the whole country.

    The final query's remainder decomposes into the stored stripes'
    complement — several REST calls inside ONE table access, exactly what
    the event loop overlaps."""
    with payless:
        _warm_stripes(payless)
        return payless.query(
            "SELECT Temperature FROM Weather WHERE Country = 'CountryA'"
        )


def _call_signature(result):
    """Everything observable about the market_call spans, in adoption order."""
    return [
        (
            span.attrs.get("url"),
            span.attrs.get("rows"),
            span.attrs.get("transactions"),
            span.attrs.get("price"),
            span.attrs.get("attempts"),
            span.attrs.get("retries"),
            span.attrs.get("replayed"),
            span.attrs.get("failed"),
        )
        for span in result.trace.spans("market_call")
    ]


class TestTraceUnderConcurrency:
    """Race-free span recording with an access's calls interleaved.

    Call machines create only *detached* spans (no shared state); the
    querying thread adopts them in request order once the calls drain.
    The trace of an overlapped run must therefore be structurally
    identical to the inline run's — same call spans, same order, same
    money numbers — and identical across repeated runs, whatever the
    interleaving.  Faults are drawn per call key, not per arrival, so the
    invariant survives fault injection too.
    """

    @pytest.mark.parametrize("faulty", [False, True])
    def test_parallel_trace_is_deterministic_and_matches_serial(self, faulty):
        serial = _fragmented_trace(_traced_payless("inline", faulty))
        assert len(_call_signature(serial)) >= 2
        for __ in range(5):  # stress: repeat on fresh event loops
            parallel = _fragmented_trace(_traced_payless("async", faulty))
            assert _call_signature(parallel) == _call_signature(serial)

    @pytest.mark.parametrize("faulty", [False, True])
    def test_every_call_span_is_adopted_finished_and_attributed(self, faulty):
        result = _fragmented_trace(_traced_payless("async", faulty))
        trace = result.trace
        calls = trace.spans("market_call")
        assert calls
        # Every market_call span hangs off exactly one table_fetch parent.
        adopted = [
            child
            for fetch in trace.spans("table_fetch")
            for child in fetch.children
            if child.kind == "market_call"
        ]
        assert len(adopted) == len(calls)
        for span in calls:
            assert span.finished
            assert span.attrs["attempts"] >= 1
            assert span.attrs["transactions"] >= 0
            assert span.attrs["rows"] >= 0
        # Per fetch, the children's spent transactions sum to the parent's.
        for fetch in trace.spans("table_fetch"):
            children = [
                c for c in fetch.children if c.kind == "market_call"
            ]
            if children:
                assert sum(
                    c.attrs["transactions"] for c in children
                ) == fetch.attrs["transactions"]


class TestPoolConcurrency:
    """An access's calls really overlap once the market's calls wait."""

    SQL = "SELECT Temperature FROM Weather WHERE Country = 'CountryA'"

    def test_fragmented_access_calls_meet_at_a_barrier(self):
        """The first two calls of the fragmented access wait for each
        other before fetching: they go on only if both are in flight at
        the same time — on the loop, not inline."""
        payless = _traced_payless("async", faulty=False)
        _warm_stripes(payless)
        aio = payless.context.async_transport
        fetch = aio.fetch
        met = asyncio.Event()
        arrivals = itertools.count(1)

        async def meet_then_fetch(request, scope=None):
            arrival = next(arrivals)
            if arrival <= 2:
                if arrival == 2:
                    met.set()
                await asyncio.wait_for(met.wait(), timeout=5)
            return await fetch(request, scope)

        aio.fetch = meet_then_fetch
        try:
            assert payless.query(self.SQL).stats.calls >= 2
        finally:
            payless.close()

        payless = _traced_payless("inline", faulty=False)
        _warm_stripes(payless)
        market = payless.market
        original = market.get
        barrier = threading.Barrier(2, timeout=1)

        def meet_then_get(request, **kwargs):
            barrier.wait()
            return original(request, **kwargs)

        market.get = meet_then_get
        with pytest.raises(threading.BrokenBarrierError):
            payless.query(self.SQL)

    def test_an_access_keeps_every_call_in_flight(self):
        """A pooled connection is held across its call's wait, so the
        connections the seller pool opened are the calls that were in
        flight together: all of the access's, not a worker count."""
        payless = _traced_payless(
            "async",
            faulty=False,
            latency=LatencyModel(round_trip_ms=20.0, per_transaction_ms=1.0),
        )
        _warm_stripes(payless)
        pools = payless.context.async_transport.pool_stats
        assert pools()["whw"]["opened"] == 1  # one call at a time so far
        try:
            calls = payless.query(self.SQL).stats.calls
            assert calls >= 3
            assert pools()["whw"]["opened"] == calls
        finally:
            payless.close()
