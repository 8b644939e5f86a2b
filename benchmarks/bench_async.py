"""Async transport: pipelined latency, pooled serve throughput, prefetch.

The async driver (:mod:`repro.market.aio`) exists to hide market latency
the threaded fetch path cannot: coroutines waiting on seller round-trips
are nearly free, so in-flight depth is bounded by the per-seller pool
(64) instead of the thread count (8), and connection setup is paid once
per pooled connection instead of once per call.  Measured against real
wall-clock on a market whose calls block for real
(``LatencyModel.realtime_scale``):

* **critical-path latency** — one query whose access fragments into 32
  remainder calls (a checkerboard of previously-bought windows) must run
  >= 2x faster under the async driver than under the threaded driver at
  ``max_concurrent_calls=8``, for the identical dollars;
* **serve throughput** — a single serving session replaying queries that
  each fragment into 64 calls must clear >= 2x the queries/second under
  the async driver (64 calls in flight) than under the threaded driver
  (capped at 8);
* **prefetch is free money-wise** — cross-access prefetch overlaps the
  fetches of a join's accesses; ``prefetch_wasted_dollars`` must be 0:
  only rewritten remainders of the chosen plan are prefetched, so
  nothing speculative is ever thrown away.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_async.py [--smoke|--ci]

Default mode writes ``benchmarks/results/async.txt`` and appends a
trajectory entry to ``BENCH_async.json`` at the repo root; ``--ci`` runs
the full workload and every acceptance gate without touching the
committed files; ``--smoke`` runs a tiny workload and skips the gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.objectives import QueryOptions  # noqa: E402
from repro.core.payless import PayLess  # noqa: E402
from repro.market.latency import LatencyModel  # noqa: E402
from repro.market.server import DataMarket  # noqa: E402
from repro.serve import QueryScheduler, ServeConfig  # noqa: E402
from repro.workloads.weather import (  # noqa: E402
    WeatherConfig,
    generate_weather_workload,
)

RESULTS_PATH = Path(__file__).parent / "results" / "async.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_async.json"

LATENCY_GATE = 2.0  # critical-path: async vs threaded at 8 workers
THROUGHPUT_GATE = 2.0  # serve qps: async (64 in flight) vs threaded (8)

RANGE_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Country = ? AND Date >= ? AND Date <= ?"
)
JOIN_SQL = (
    "SELECT s.City, w.Temperature FROM Station s, Weather w "
    "WHERE s.Country = w.Country AND s.StationID = w.StationID "
    "AND w.Country = ? AND w.Date >= ? AND w.Date <= ?"
)

#: The realtime market every timed phase runs against: a high-latency
#: seller where connection setup dominates a single round trip.
TIMED_LATENCY = LatencyModel(
    round_trip_ms=30.0,
    per_transaction_ms=1.0,
    connection_setup_ms=150.0,
    realtime_scale=1.0,
)


def _make_data(countries: int, days: int):
    return generate_weather_workload(
        WeatherConfig(
            countries=countries,
            stations_per_country=4,
            cities_per_country=2,
            days=days,
            tuples_per_transaction=10,
            seed=7,
        )
    )


def _fresh_payless(data, transport_mode: str, **option_kwargs):
    """An instant-market installation; callers flip ``market.latency`` to
    :data:`TIMED_LATENCY` once the coverage warm-up is done."""
    market = DataMarket()
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess.full(
        market,
        local_db=data.local_database(),
        options=QueryOptions(
            transport_mode=transport_mode,
            max_concurrent_calls=8,
            **option_kwargs,
        ),
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


def _checkerboard(payless, country: str, gaps: int) -> None:
    """Buy every other 2-day window of ``country`` so a later full-range
    query fragments into ``gaps`` remainder calls to the same seller."""
    for window in range(gaps):
        low = 4 * window + 1
        payless.query(RANGE_SQL, (country, low, low + 1))


def run_latency_arm(transport_mode: str, gaps: int) -> dict:
    """One query, ``gaps`` fragmented calls, wall-clock and dollars."""
    data = _make_data(countries=1, days=4 * gaps)
    payless = _fresh_payless(data, transport_mode)
    try:
        _checkerboard(payless, "Country00", gaps)
        payless.market.latency = TIMED_LATENCY
        started = time.perf_counter()
        result = payless.query(RANGE_SQL, ("Country00", 1, 4 * gaps))
        elapsed_s = time.perf_counter() - started
        return {
            "transport": transport_mode,
            "calls": result.stats.calls,
            "elapsed_ms": 1000.0 * elapsed_s,
            "spent_dollars": result.stats.price,
            "rows": len(result.rows),
            "connections_reused": payless.metrics()["connections_reused"],
        }
    finally:
        payless.close()


def run_serve_arm(transport_mode: str, queries: int, gaps: int) -> dict:
    """A single serving session replaying ``queries`` fragmented queries
    serially; in-flight depth inside each query is the whole contest."""
    data = _make_data(countries=queries, days=4 * gaps)
    payless = _fresh_payless(data, transport_mode)
    try:
        for index in range(queries):
            _checkerboard(payless, f"Country{index:02d}", gaps)
        payless.market.latency = TIMED_LATENCY
        config = ServeConfig(workers=2, session_max_inflight=1)
        started = time.perf_counter()
        with QueryScheduler(payless, config) as scheduler:
            session = scheduler.session("tenant0")
            tickets = [
                session.submit(RANGE_SQL, (f"Country{i:02d}", 1, 4 * gaps))
                for i in range(queries)
            ]
            results = [ticket.result(timeout=600.0) for ticket in tickets]
        elapsed_s = time.perf_counter() - started
        return {
            "transport": transport_mode,
            "queries": queries,
            "calls": sum(r.stats.calls for r in results),
            "elapsed_s": elapsed_s,
            "qps": queries / elapsed_s,
            "spent_dollars": sum(r.stats.price for r in results),
        }
    finally:
        payless.close()


def run_prefetch_arm() -> dict:
    """One two-access join under the async driver; prefetch overlaps the
    accesses' fetches (bushy plan via ``use_theorems=False``)."""
    data = _make_data(countries=1, days=40)
    payless = _fresh_payless(data, "async", use_theorems=False)
    try:
        payless.market.latency = TIMED_LATENCY
        started = time.perf_counter()
        result = payless.query(JOIN_SQL, ("Country00", 1, 40))
        elapsed_s = time.perf_counter() - started
        return {
            "elapsed_ms": 1000.0 * elapsed_s,
            "spent_dollars": result.stats.price,
            "prefetch_hits": result.stats.prefetch_hits,
            "wasted_dollars": payless.metrics()["prefetch_wasted_dollars"],
        }
    finally:
        payless.close()


def run(latency_gaps: int, serve_queries: int, serve_gaps: int) -> dict:
    threaded_latency = run_latency_arm("threaded", latency_gaps)
    async_latency = run_latency_arm("async", latency_gaps)
    threaded_serve = run_serve_arm("threaded", serve_queries, serve_gaps)
    async_serve = run_serve_arm("async", serve_queries, serve_gaps)
    prefetch = run_prefetch_arm()
    return {
        "latency_gaps": latency_gaps,
        "serve_queries": serve_queries,
        "serve_gaps": serve_gaps,
        "threaded_latency": threaded_latency,
        "async_latency": async_latency,
        "latency_speedup": (
            threaded_latency["elapsed_ms"] / async_latency["elapsed_ms"]
        ),
        "threaded_serve": threaded_serve,
        "async_serve": async_serve,
        "throughput_speedup": threaded_serve["elapsed_s"]
        / async_serve["elapsed_s"],
        "prefetch": prefetch,
    }


def render(results: dict) -> str:
    threaded = results["threaded_latency"]
    awaited = results["async_latency"]
    t_serve = results["threaded_serve"]
    a_serve = results["async_serve"]
    prefetch = results["prefetch"]
    return "\n".join(
        [
            "async transport: pipelining, connection pools, prefetch",
            f"(market: {TIMED_LATENCY.round_trip_ms:g} ms round trip, "
            f"{TIMED_LATENCY.connection_setup_ms:g} ms connection setup, "
            "real sleeps)",
            "",
            f"critical-path latency, one query x "
            f"{threaded['calls']} fragmented calls:",
            f"  threaded (8 workers) | {threaded['elapsed_ms']:>7.0f} ms | "
            f"${threaded['spent_dollars']:g}",
            f"  async    (64 pool)   | {awaited['elapsed_ms']:>7.0f} ms | "
            f"${awaited['spent_dollars']:g} | "
            f"{awaited['connections_reused']:.0f} connections reused",
            f"  speedup: {results['latency_speedup']:.1f}x",
            "",
            f"serve throughput, 1 session x {t_serve['queries']} queries "
            f"x {results['serve_gaps']} calls each:",
            f"  threaded (8 in flight)  | {t_serve['qps']:>5.2f} qps | "
            f"{t_serve['elapsed_s']:>6.2f} s | ${t_serve['spent_dollars']:g}",
            f"  async    (64 in flight) | {a_serve['qps']:>5.2f} qps | "
            f"{a_serve['elapsed_s']:>6.2f} s | ${a_serve['spent_dollars']:g}",
            f"  speedup: {results['throughput_speedup']:.1f}x",
            "",
            "cross-access prefetch, two-access join:",
            f"  async | {prefetch['elapsed_ms']:>7.0f} ms | "
            f"{prefetch['prefetch_hits']:.0f} hits | "
            f"${prefetch['spent_dollars']:g} spent | "
            f"${prefetch['wasted_dollars']:g} wasted",
        ]
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for a quick check; no gates, no result files",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="full workload + every acceptance gate, but no result files",
    )
    args = parser.parse_args()

    if args.smoke:
        results = run(latency_gaps=8, serve_queries=2, serve_gaps=8)
    else:
        results = run(latency_gaps=32, serve_queries=6, serve_gaps=64)
    text = render(results)
    print(text)

    if not args.smoke:
        latency_ok = results["latency_speedup"] >= LATENCY_GATE
        dollars_ok = (
            results["threaded_latency"]["spent_dollars"]
            == results["async_latency"]["spent_dollars"]
            and results["threaded_serve"]["spent_dollars"]
            == results["async_serve"]["spent_dollars"]
        )
        throughput_ok = results["throughput_speedup"] >= THROUGHPUT_GATE
        prefetch_ok = (
            results["prefetch"]["wasted_dollars"] == 0.0
            and results["prefetch"]["prefetch_hits"] > 0
        )
        print()
        print(
            f"latency acceptance (>={LATENCY_GATE:g}x): "
            f"{results['latency_speedup']:.1f}x — "
            f"{'PASS' if latency_ok else 'FAIL'}"
        )
        print(
            f"identical dollars across drivers: "
            f"{'PASS' if dollars_ok else 'FAIL'}"
        )
        print(
            f"throughput acceptance (>={THROUGHPUT_GATE:g}x): "
            f"{results['throughput_speedup']:.1f}x — "
            f"{'PASS' if throughput_ok else 'FAIL'}"
        )
        print(
            f"prefetch wastes nothing: "
            f"{'PASS' if prefetch_ok else 'FAIL'}"
        )
        if not (latency_ok and dollars_ok and throughput_ok and prefetch_ok):
            return 1

    if not args.smoke and not args.ci:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"[written to {RESULTS_PATH}]")
        trajectory = []
        if TRAJECTORY_PATH.exists():
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory.append(
            {
                "bench": "async",
                "latency_gate": LATENCY_GATE,
                "throughput_gate": THROUGHPUT_GATE,
                "results": results,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
