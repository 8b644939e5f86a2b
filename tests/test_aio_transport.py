"""The fetch drivers: selection, parity, pools, prefetch, lifecycle.

The market's latency model picks the driver once per query: on an
instant market (``realtime_scale == 0``) every call is driven inline on
the querying thread; when calls really wait, they are pipelined on the
event loop of :mod:`repro.market.aio`.  The contract is that the choice
changes *when* market calls happen, never *what they cost*: both drivers
replay the same sans-IO fetch machine, so idempotency keys, fault draws,
retries and billing are identical by construction.  These tests assert
that contract from the outside, running one latency model at scale 0
(inline) and at a tiny scale (async), as :mod:`tests.fetch_drivers` does:

* **selection at query time** — one installation fetches inline, then on
  the loop (prefetching) once ``market.latency`` starts waiting, and an
  :class:`AdaptivePolicy` never prefetches.
* **canonical ledger parity** — the same workload billed through either
  driver produces the same multiset of billed calls (URL, rows,
  transactions, price, server-side latency, waste classification, and
  idempotency key), calm and under injected chaos.  Raw idempotency keys
  are installation-scoped (they embed a transport id), so the comparison
  canonicalizes them to ordinals first.
* **connection-setup semantics** — ``LatencyModel.connection_setup_ms``
  is charged per physical call by the inline driver but once per
  pooled connection by the async driver; the saved milliseconds equal
  ``setup_ms x connections_reused`` exactly, while dollars are
  untouched.
* **conservative prefetch** — a query that fails after its prefetches
  were issued still records every completed purchase in the semantic
  store (counted in ``metrics()["prefetch_wasted_dollars"]``), so a retry
  pays only for what was never bought: two-run total == clean-run total.
* **lifecycle** — ``close`` is idempotent and a later query transparently
  restarts the loop with fresh pools.
"""

import threading

import pytest

from repro.core.objectives import AdaptivePolicy, QueryOptions
from repro.market.faults import FaultPolicy
from repro.market.latency import LatencyModel
from repro.market.transport import TransportConfig
from repro.testing import (
    oracle_evaluate,
    registered_payless,
    tiny_weather_market,
)

from .fetch_drivers import DRIVERS, canonical_ledger, drive

JOIN_SQL = (
    "SELECT s.City, w.Temperature FROM Station s, Weather w "
    "WHERE s.Country = w.Country AND s.StationID = w.StationID "
    "AND w.Date >= 1 AND w.Date <= 5"
)
WEATHER_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= ? AND Date <= ?"
)


COUNTRY_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = ? AND Date >= ? AND Date <= ?"
)

def _payless(driver, transport=None, **option_kwargs):
    market = drive(tiny_weather_market(days=10, tuples_per_transaction=5), driver)
    payless = registered_payless(
        market,
        options=QueryOptions(transport=transport, **option_kwargs),
    )
    return payless


def _replay(driver, transport=None):
    """A small mixed session: join, repeat (free), two range windows."""
    payless = _payless(driver, transport=transport)
    try:
        results = [
            payless.query(JOIN_SQL),
            payless.query(JOIN_SQL),
            payless.query(WEATHER_SQL, (1, 6)),
            payless.query(WEATHER_SQL, (4, 9)),
        ]
        return canonical_ledger(payless.market.ledger), results
    finally:
        payless.close()


def _thread_spy(market):
    """Per ``market.get``: the calling thread, and whether any thread was
    started since the spy was installed (a fetch pool or an event loop)."""
    seen = []
    original = market.get
    before = set(threading.enumerate())

    def spying(request, **kwargs):
        started = set(threading.enumerate()) - before
        seen.append((threading.current_thread().name, bool(started)))
        return original(request, **kwargs)

    market.get = spying
    return seen


def _fragmented(payless, country):
    """Buy the middle of a window, then the window: the second access
    makes one call per uncovered side."""
    payless.query(COUNTRY_SQL, (country, 4, 5))
    return payless.query(COUNTRY_SQL, (country, 1, 10))


class TestTheLatencyModelPicksTheDriver:
    def test_inline_when_instant_then_the_loop_once_calls_wait(self):
        payless = _payless("inline")
        seen = _thread_spy(payless.market)
        try:
            result = _fragmented(payless, "CountryA")
            assert result.stats.calls == 2
            assert result.stats.prefetch_hits == 0
            # No pool thread, no loop: every call ran on the querying thread.
            main = threading.current_thread().name
            assert seen == [(main, False)] * 3
            assert "idle" in repr(payless.context.async_transport)

            # The same installation, once its market's calls wait.  What
            # CountryA cost plus this window passes the whole table's
            # price, so the window buys Weather whole, in one call.
            drive(payless.market, "async")
            seen.clear()
            result = _fragmented(payless, "CountryB")
            assert result.stats.calls == 1
            assert result.stats.prefetch_hits > 0
            assert [name for name, __ in seen] == ["market-aio-loop"] * 2
        finally:
            payless.close()

    def test_an_adaptive_policy_is_never_prefetched(self):
        payless = _payless("async", adaptive=AdaptivePolicy())
        seen = _thread_spy(payless.market)
        try:
            result = _fragmented(payless, "CountryA")
            assert result.stats.calls == 2
            assert result.stats.prefetch_hits == 0
            assert [name for name, __ in seen] == ["market-aio-loop"] * 3
        finally:
            payless.close()


class TestLedgerParity:
    def test_calm_ledgers_identical(self):
        inline, inline_results = _replay("inline")
        awaited, async_results = _replay("async")
        assert awaited == inline
        for a, b in zip(inline_results, async_results):
            assert sorted(a.rows, key=repr) == sorted(b.rows, key=repr)
            assert a.stats.price == b.stats.price

    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_chaos_ledgers_identical(self, seed):
        def chaotic():
            return TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.35),
                max_retries=5,
            )

        inline, __ = _replay("inline", transport=chaotic())
        awaited, __ = _replay("async", transport=chaotic())
        assert awaited == inline

    def test_stats_report_the_driver(self):
        """Only the event-loop driver prefetches, so ``prefetch_hits``
        tells which driver ran; nothing else in the stats may."""
        stats = {}
        for driver in DRIVERS:
            payless = _payless(driver)
            try:
                stats[driver] = vars(payless.query(JOIN_SQL).stats)
            finally:
                payless.close()
        assert stats["inline"].pop("prefetch_hits") == 0
        assert stats["async"].pop("prefetch_hits") > 0
        assert stats["inline"] == stats["async"]


class TestConnectionSetup:
    def _run(self, driver):
        payless = _payless(driver)
        drive(
            payless.market,
            driver,
            LatencyModel(
                round_trip_ms=10.0,
                per_transaction_ms=1.0,
                connection_setup_ms=100.0,
            ),
        )
        try:
            # Warm a middle window so the second query's remainder splits
            # into two physical calls against the same seller.
            payless.query(WEATHER_SQL, (4, 5))
            stats = payless.query(WEATHER_SQL, (1, 10)).stats
            return stats, payless.metrics()["connections_reused"]
        finally:
            payless.close()

    def test_setup_charged_per_connection_not_per_call(self):
        inline, inline_reused = self._run("inline")
        awaited, async_reused = self._run("async")
        assert inline.calls == awaited.calls == 2
        assert inline.price == awaited.price  # dollars never move
        assert inline_reused == 0.0
        # The two calls are in flight together: one reuses the warm
        # call's connection, the other opens a second.
        assert async_reused == 1.0
        # The inline driver paid the handshake on both calls; the async
        # driver on one — the gap is exactly setup x reuses.
        assert inline.market_time_ms - awaited.market_time_ms == (
            pytest.approx(100.0 * async_reused)
        )
        assert (
            awaited.market_time_critical_path_ms
            <= inline.market_time_critical_path_ms
        )

    def test_negative_setup_rejected(self):
        from repro.errors import MarketError

        with pytest.raises(MarketError):
            LatencyModel(connection_setup_ms=-1.0)

    def test_setup_participates_in_is_instant(self):
        instant = LatencyModel(round_trip_ms=0.0, per_transaction_ms=0.0)
        assert instant.is_instant
        assert not LatencyModel(
            round_trip_ms=0.0,
            per_transaction_ms=0.0,
            connection_setup_ms=5.0,
        ).is_instant


class TestPrefetch:
    def test_prefetch_consumed_and_free_of_waste(self):
        payless = _payless("async", use_theorems=False)
        try:
            result = payless.query(JOIN_SQL)
            assert result.stats.prefetch_hits == 2  # both accesses
            assert payless.metrics()["prefetch_wasted_dollars"] == 0.0
            want = sorted(
                oracle_evaluate(payless, JOIN_SQL).rows, key=repr
            )
            assert sorted(result.rows, key=repr) == want
        finally:
            payless.close()

    def test_failed_query_drains_prefetched_purchases(self):
        clean = _payless("async", use_theorems=False)
        try:
            clean.query(JOIN_SQL)
            clean_total = clean.market.ledger.total_price
        finally:
            clean.close()

        payless = _payless("async", use_theorems=False)
        market = payless.market
        original = market.get

        def failing(request, **kwargs):
            # Station is the plan's first access: its prefetch surfaces
            # the outage while Weather's prefetched purchase completes
            # and must be drained, not dropped.
            if request.table.lower() == "station":
                raise RuntimeError("injected seller outage")
            return original(request, **kwargs)

        market.get = failing
        try:
            with pytest.raises(RuntimeError, match="injected"):
                payless.query(JOIN_SQL)
            # Weather's speculative purchase is accounted as waste...
            assert payless.metrics()["prefetch_wasted_dollars"] > 0.0
            assert payless.market.ledger.total_price > 0.0
            # ...but recorded in the store, so the retry pays only for
            # what was never bought: two runs cost one clean run.
            market.get = original
            retry = payless.query(JOIN_SQL)
            assert payless.market.ledger.total_price == clean_total
            want = sorted(
                oracle_evaluate(payless, JOIN_SQL).rows, key=repr
            )
            assert sorted(retry.rows, key=repr) == want
        finally:
            market.get = original
            payless.close()


class TestLifecycleAndValidation:
    def test_close_is_idempotent_and_restartable(self):
        payless = _payless("async")
        try:
            first = payless.query(WEATHER_SQL, (1, 3))
            aio = payless.context.async_transport
            aio.close()
            aio.close()  # idempotent
            # A query after close lazily restarts the loop (fresh pools).
            second = payless.query(WEATHER_SQL, (4, 6))
            assert first.stats.complete and second.stats.complete
        finally:
            payless.close()
            payless.close()

    def test_zero_call_query_leaves_the_loop_idle(self):
        """A fully covered query has no market call to pipeline, so it
        must not start the loop thread just to gather nothing."""
        payless = _payless("async")
        try:
            cold = payless.query(JOIN_SQL)
            assert cold.stats.calls > 0
            aio = payless.context.async_transport
            aio.close()
            assert "idle" in repr(aio)
            warm = payless.query(JOIN_SQL)
            assert warm.stats.calls == 0
            assert sorted(warm.rows) == sorted(cold.rows)
            assert "idle" in repr(aio)
            assert not any(
                thread.name == "market-aio-loop"
                for thread in threading.enumerate()
            )
        finally:
            payless.close()
