"""Chaos + determinism for concurrent serving (``pytest -m concurrency``).

Two acceptance properties of the serving front-end, asserted *exactly*
(not probabilistically):

* **billing invariance under chaos** — the same multi-session workload,
  run at 8 workers with coalescing on, bills the identical total whether
  or not transient market faults are injected.  The fault policy's
  ``max_consecutive_faults`` cap is below the retry allowance, so every
  call eventually succeeds; idempotency keys make retries free; and the
  singleflight invariant makes every distinct remainder box bill exactly
  once no matter how sessions interleave.  No box is ever double-billed
  and no waiter is ever served rows from an unbilled fetch.
* **determinism across worker counts** — with coalescing off and a
  workload whose sessions touch disjoint regions, workers=1 and
  workers=8 produce identical per-query rows and identical total spent
  dollars: thread scheduling must never leak into results or money.

Both run on each fetch driver: inline on an instant market, and on the
event loop once the same latency model's calls wait.

The workload is the paper's Q1 template over a small synthetic WHW
market; shared regions are identical across sessions (the coalescing
surface), private regions are disjoint per session (the determinism
surface).
"""

from dataclasses import replace

import pytest

from repro.core.objectives import QueryOptions
from repro.core.payless import PayLess
from repro.market.faults import FaultPolicy
from repro.market.server import DataMarket
from repro.market.transport import TransportConfig
from repro.serve import QueryScheduler, ServeConfig
from repro.workloads.weather import (
    TEMPLATES,
    WeatherConfig,
    generate_weather_workload,
)

from .fetch_drivers import DRIVERS, drive

pytestmark = pytest.mark.concurrency

Q1 = TEMPLATES["Q1"]

#: Small but real: 2 countries x 6 stations x 40 days, 20-tuple pages.
DATA = generate_weather_workload(
    WeatherConfig(
        countries=2,
        stations_per_country=6,
        cities_per_country=4,
        days=40,
        tuples_per_transaction=20,
        seed=13,
    )
)

SESSIONS = 4


def _fresh_payless(
    transport: TransportConfig | None = None,
    driver: str = "inline",
) -> PayLess:
    market = DataMarket()
    for dataset in DATA.datasets:
        market.publish(dataset)
    payless = PayLess.full(
        drive(market, driver),
        local_db=DATA.local_database(),
        options=QueryOptions(transport=transport),
    )
    for dataset in DATA.datasets:
        payless.register_dataset(dataset.name)
    return payless


def _shared_workload() -> list[tuple[str, tuple]]:
    """Per session: 2 shared Q1 regions (identical across sessions, the
    coalescing surface) then 4 private 2-day windows (disjoint across
    sessions).  Submission is region-major so the shared fetches of all
    sessions overlap under the scheduler's workers."""
    shared = [("Country00", 1, 10), ("Country01", 11, 20)]
    workload: list[tuple[str, tuple]] = []
    for params in shared:
        for session in range(SESSIONS):
            workload.append((f"user{session}", params))
    for session in range(SESSIONS):
        for window in range(4):
            index = session * 4 + window
            country = f"Country{index // 10:02d}"
            low = 21 + 2 * (index % 10)
            workload.append((f"user{session}", (country, low, low + 1)))
    return workload


def _disjoint_workload() -> list[tuple[str, tuple]]:
    """Every (session, query) touches its own region — billing and rows
    cannot depend on interleaving, which is what determinism asserts."""
    workload: list[tuple[str, tuple]] = []
    for session in range(SESSIONS):
        for window in range(6):
            index = session * 6 + window
            country = f"Country{index // 13:02d}"
            low = 1 + 3 * (index % 13)
            workload.append((f"user{session}", (country, low, low + 2)))
    return workload


def _run(
    workload,
    workers: int,
    coalesce: bool,
    transport: TransportConfig | None = None,
    session_max_inflight: int = 2,
    driver: str = "inline",
):
    """One fresh installation through the scheduler; results in submit
    order (so runs are comparable query-by-query)."""
    payless = _fresh_payless(transport, driver=driver)
    config = ServeConfig(
        workers=workers,
        coalesce=coalesce,
        session_max_inflight=session_max_inflight,
    )
    with QueryScheduler(payless, config) as scheduler:
        tickets = [
            (scheduler.session(session).submit(Q1, params))
            for session, params in workload
        ]
        results = [ticket.result(timeout=120.0) for ticket in tickets]
    payless.close()  # stops the event loop if a query started it
    return payless, scheduler, results


class TestChaosBillingInvariance:
    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("seed", [7, 23, 101])
    def test_faults_do_not_change_the_bill(self, seed, driver):
        workload = _shared_workload()
        calm_payless, __, calm_results = _run(
            workload, workers=8, coalesce=True,
            driver=driver,
        )
        faults = FaultPolicy.uniform(seed=seed, rate=0.4)
        assert faults.max_consecutive_faults == 3  # < max_retries below
        # On the event loop an access's calls fail together, so the default
        # breaker opens on faults of different calls (pinned in
        # test_faults.py); this gate is about the bill of retried calls.
        chaotic = TransportConfig(faults=faults, max_retries=5)
        if driver == "async":
            chaotic = replace(chaotic, breaker_failure_threshold=10_000)
        chaos_payless, scheduler, chaos_results = _run(
            workload, workers=8, coalesce=True, transport=chaotic,
            driver=driver,
        )

        # Chaos actually happened, and every fault was absorbed.
        injected = sum(r.stats.faults_injected for r in chaos_results)
        assert injected > 0
        assert all(r.stats.complete for r in chaos_results)

        # The acceptance gate: total billed dollars identical faults-on
        # vs faults-off, and nothing wasted.
        calm_ledger = calm_payless.market.ledger
        chaos_ledger = chaos_payless.market.ledger
        assert (
            chaos_ledger.total_transactions
            == calm_ledger.total_transactions
        )
        assert chaos_ledger.total_price == pytest.approx(
            calm_ledger.total_price
        )
        assert chaos_ledger.wasted_on_failures.calls == 0
        assert chaos_payless.total_price == pytest.approx(
            calm_payless.total_price
        )

        # At-most-once per box, under chaos and coalescing: no remainder
        # URL appears twice among billed calls.
        urls = [entry.request.url() for entry in chaos_ledger]
        assert len(urls) == len(set(urls))

        # No waiter was ever served rows from a failed (unbilled) fetch:
        # every query's rows match the fault-free run's, query for query.
        for calm, chaos in zip(calm_results, chaos_results):
            assert sorted(chaos.rows) == sorted(calm.rows)

        # Attribution still sums exactly despite retries interleaving.
        sessions = scheduler.sessions
        assert sum(s.price for s in sessions) == pytest.approx(
            chaos_payless.total_price
        )

        # Conservative prefetch: nothing speculatively bought was ever
        # thrown away, even under chaos.
        assert chaos_payless.metrics()["prefetch_wasted_dollars"] == 0.0

    def test_coalesced_savings_ledger_consistent(self):
        """Whatever was coalesced is accounted once, on both sides: the
        sessions' attributed savings equal the ledger's savings bucket."""
        payless, scheduler, results = _run(
            _shared_workload(), workers=8, coalesce=True
        )
        savings = payless.market.ledger.coalesced_savings
        attributed = sum(r.stats.coalesced_fetches for r in results)
        assert savings.calls == attributed
        assert sum(
            r.stats.coalesced_savings_price for r in results
        ) == pytest.approx(savings.price)
        # Free riders (coalesced or covered-at-issue or covered-at-
        # rewrite) exist or not depending on timing, but money never
        # exceeds the serial bill: each distinct box at most once.
        urls = [e.request.url() for e in payless.market.ledger]
        assert len(urls) == len(set(urls))


class TestDeterminismAcrossWorkers:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_workers_1_and_8_agree_exactly(self, driver):
        workload = _disjoint_workload()
        serial_payless, __, serial_results = _run(
            workload, workers=1, coalesce=False, session_max_inflight=1,
            driver=driver,
        )
        parallel_payless, __, parallel_results = _run(
            workload, workers=8, coalesce=False, session_max_inflight=1,
            driver=driver,
        )
        assert len(serial_results) == len(parallel_results)
        for serial, parallel in zip(serial_results, parallel_results):
            assert sorted(parallel.rows) == sorted(serial.rows)
            assert (
                parallel.stats.transactions == serial.stats.transactions
            )
        assert (
            parallel_payless.total_transactions
            == serial_payless.total_transactions
        )
        assert parallel_payless.total_price == pytest.approx(
            serial_payless.total_price
        )
        assert (
            parallel_payless.market.ledger.total_price
            == pytest.approx(serial_payless.market.ledger.total_price)
        )

    def test_parallel_run_repeats_identically(self):
        workload = _disjoint_workload()
        first_payless, __, first = _run(
            workload, workers=8, coalesce=False, session_max_inflight=1
        )
        second_payless, __, second = _run(
            workload, workers=8, coalesce=False, session_max_inflight=1
        )
        for a, b in zip(first, second):
            assert sorted(a.rows) == sorted(b.rows)
        assert first_payless.total_price == pytest.approx(
            second_payless.total_price
        )
