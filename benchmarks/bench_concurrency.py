"""Concurrent serving: thread-pool throughput + singleflight savings.

The serving front-end (:mod:`repro.serve`) must actually deliver the two
things it exists for, measured against real wall-clock on a market whose
calls wait for real (``LatencyModel.realtime_scale``, which also puts
every arm's calls on the installation's event loop):

* **throughput** — the same multi-tenant workload at 8 workers must run
  >= 3x the queries/second of the serial (workers=1) replay;
* **money** — with coalescing ON, overlapping sessions fetching the same
  hot regions must spend >= 30% fewer dollars than the identical run with
  coalescing OFF (where every concurrent session pays for its own copy).

Workload: 8 tenant sessions over a synthetic WHW market.  Each session
issues 4 *shared* Q1 regions (identical across sessions, submitted
region-major so all sessions' fetches of one region overlap — the
coalescing surface) followed by 8 *private* 2-day windows disjoint
across sessions (pure throughput work).  Arms run on fresh
installations: serial, 8 workers + coalesce, 8 workers no-coalesce.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_concurrency.py [--smoke|--ci]

Default mode writes ``benchmarks/results/concurrency.txt`` and appends a
trajectory entry to ``BENCH_concurrency.json`` at the repo root; ``--ci``
runs the full workload and both acceptance gates without touching the
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

from repro.core.payless import PayLess  # noqa: E402
from repro.market.latency import LatencyModel  # noqa: E402
from repro.market.server import DataMarket  # noqa: E402
from repro.serve import QueryScheduler, ServeConfig  # noqa: E402
from repro.workloads.weather import (  # noqa: E402
    TEMPLATES,
    WeatherConfig,
    generate_weather_workload,
)

RESULTS_PATH = Path(__file__).parent / "results" / "concurrency.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_concurrency.json"

SPEEDUP_GATE = 3.0  # qps at 8 workers vs serial
SAVINGS_GATE = 0.30  # dollars saved, coalesce on vs off

Q1 = TEMPLATES["Q1"]


def _make_workload(sessions: int, shared_regions: int, private_windows: int):
    """(session, params) pairs: shared regions region-major, then private
    disjoint windows.  Shared spans are 20 days in 1..80; private windows
    are 2 days in 81..120, disjoint across all sessions."""
    workload: list[tuple[str, tuple]] = []
    for region in range(shared_regions):
        params = (f"Country{region:02d}", region * 20 + 1, (region + 1) * 20)
        for session in range(sessions):
            workload.append((f"user{session}", params))
    for session in range(sessions):
        for window in range(private_windows):
            index = session * private_windows + window
            country = f"Country{index // 16:02d}"
            low = 81 + 2 * (index % 16)
            workload.append((f"user{session}", (country, low, low + 1)))
    return workload


def _fresh_payless(data, round_trip_ms: float):
    market = DataMarket(
        latency=LatencyModel(
            round_trip_ms=round_trip_ms,
            per_transaction_ms=2.0,
            realtime_scale=1.0,  # calls block for real wall-clock
        )
    )
    for dataset in data.datasets:
        market.publish(dataset)
    payless = PayLess.full(market, local_db=data.local_database())
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)
    return payless


def run_arm(data, workload, workers: int, coalesce: bool,
            round_trip_ms: float) -> dict:
    payless = _fresh_payless(data, round_trip_ms)
    config = ServeConfig(
        workers=workers, coalesce=coalesce, session_max_inflight=2
    )
    started = time.perf_counter()
    with payless, QueryScheduler(payless, config) as scheduler:
        tickets = [
            scheduler.session(session).submit(Q1, params)
            for session, params in workload
        ]
        for ticket in tickets:
            ticket.result(timeout=600.0)
    elapsed_s = time.perf_counter() - started
    savings = payless.market.ledger.coalesced_savings
    return {
        "workers": workers,
        "coalesce": coalesce,
        "queries": len(workload),
        "elapsed_s": elapsed_s,
        "qps": len(workload) / elapsed_s,
        "spent_dollars": payless.total_price,
        "spent_transactions": payless.total_transactions,
        "coalesced_fetches": savings.calls,
        "saved_dollars": savings.price,
    }


def run(sessions: int, shared_regions: int, private_windows: int,
        round_trip_ms: float) -> dict:
    data = generate_weather_workload(
        WeatherConfig(
            countries=4,
            stations_per_country=8,
            cities_per_country=4,
            days=120,
            tuples_per_transaction=20,
            seed=7,
        )
    )
    workload = _make_workload(sessions, shared_regions, private_windows)
    serial = run_arm(data, workload, 1, False, round_trip_ms)
    parallel_on = run_arm(data, workload, 8, True, round_trip_ms)
    parallel_off = run_arm(data, workload, 8, False, round_trip_ms)
    speedup = parallel_on["qps"] / serial["qps"]
    savings_fraction = (
        (parallel_off["spent_dollars"] - parallel_on["spent_dollars"])
        / parallel_off["spent_dollars"]
        if parallel_off["spent_dollars"]
        else 0.0
    )
    return {
        "sessions": sessions,
        "shared_regions": shared_regions,
        "private_windows": private_windows,
        "round_trip_ms": round_trip_ms,
        "serial": serial,
        "parallel_coalesce": parallel_on,
        "parallel_no_coalesce": parallel_off,
        "speedup": speedup,
        "savings_fraction": savings_fraction,
    }


def render(results: dict) -> str:
    def row(label: str, arm: dict) -> str:
        return (
            f"{label:>22} | {arm['qps']:>7.1f} qps | "
            f"{arm['elapsed_s']:>6.2f} s | "
            f"${arm['spent_dollars']:>7g} spent | "
            f"{arm['coalesced_fetches']:>3} coalesced "
            f"(${arm['saved_dollars']:g} saved)"
        )

    return "\n".join(
        [
            "concurrency: thread-pool serving + singleflight coalescing",
            f"({results['sessions']} sessions x "
            f"{results['shared_regions']} shared + "
            f"{results['private_windows']} private Q1 regions; "
            f"market round-trip {results['round_trip_ms']:g} ms, "
            "real sleeps)",
            "",
            row("serial (1 worker)", results["serial"]),
            row("8 workers, coalesce", results["parallel_coalesce"]),
            row("8 workers, no coal.", results["parallel_no_coalesce"]),
            "",
            f"throughput speedup: {results['speedup']:.1f}x   "
            f"coalescing savings: {100 * results['savings_fraction']:.0f}%",
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
        help="full workload + both acceptance gates, but no result files",
    )
    args = parser.parse_args()

    if args.smoke:
        results = run(
            sessions=2, shared_regions=2, private_windows=2,
            round_trip_ms=10.0,
        )
    else:
        results = run(
            sessions=8, shared_regions=4, private_windows=8,
            round_trip_ms=60.0,
        )
    text = render(results)
    print(text)

    if not args.smoke:
        speedup_ok = results["speedup"] >= SPEEDUP_GATE
        savings_ok = results["savings_fraction"] >= SAVINGS_GATE
        print()
        print(
            f"throughput acceptance (>={SPEEDUP_GATE:g}x): "
            f"{results['speedup']:.1f}x — "
            f"{'PASS' if speedup_ok else 'FAIL'}"
        )
        print(
            f"savings acceptance (>={100 * SAVINGS_GATE:.0f}%): "
            f"{100 * results['savings_fraction']:.0f}% — "
            f"{'PASS' if savings_ok else 'FAIL'}"
        )
        if not (speedup_ok and savings_ok):
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
                "bench": "concurrency",
                "speedup_gate": SPEEDUP_GATE,
                "savings_gate": SAVINGS_GATE,
                "results": results,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
