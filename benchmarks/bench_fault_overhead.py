"""Fault-transport overhead: the money-safe path must be free when clean.

The money-safe transport (``repro.market.transport``) sits between the
executor and every market call.  Its value shows up only under faults, so
its cost with fault injection *off* must be negligible — that is the
acceptance gate here.  Two measurements:

* **call overhead** — raw ``market.get`` in a loop vs ``transport.fetch``
  with no fault policy (the fast path the executor takes by default);
* **session overhead** — a Figure-10-style query session through PayLess
  built with the default transport vs one with chaos knobs configured but
  the fault rate at zero (retries armed, breakers allocated, keys off
  because no policy is attached).

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py [--smoke]

Writes ``benchmarks/results/fault_overhead.txt``; ``--smoke`` shrinks the
iteration counts for CI and skips the results file.  The gate: fault-free
per-call overhead below 25% (the fast path is one attribute check — the
margin is generous because the absolute cost is microseconds).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.objectives import QueryOptions  # noqa: E402
from repro.market.faults import FaultPolicy  # noqa: E402
from repro.market.rest import RestRequest  # noqa: E402
from repro.market.transport import MarketTransport, TransportConfig  # noqa: E402
from repro.relational.query import AttributeConstraint  # noqa: E402
from repro.testing import registered_payless, tiny_weather_market  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "fault_overhead.txt"

SESSION = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Alpha' AND Station.StationID = Weather.StationID",
    "SELECT * FROM Station",
    "SELECT Temperature FROM Weather WHERE Country = 'CountryA'",
    "SELECT Temperature FROM Weather WHERE Country = 'CountryB' AND Date >= 3",
)


def requests(count: int) -> list[RestRequest]:
    return [
        RestRequest(
            "WHW",
            "Weather",
            (AttributeConstraint("StationID", value=1 + index % 4),),
        )
        for index in range(count)
    ]


def time_raw_gets(calls: int) -> float:
    market = tiny_weather_market()
    batch = requests(calls)
    start = time.perf_counter()
    for request in batch:
        market.get(request)
    return (time.perf_counter() - start) * 1000.0


def time_transport_fetches(calls: int, faults: FaultPolicy | None) -> float:
    market = tiny_weather_market()
    transport = MarketTransport(
        market,
        TransportConfig(
            faults=faults,
            retry_budget=None,
            breaker_failure_threshold=10_000,
        ),
    )
    batch = requests(calls)
    scope = transport.new_scope()
    start = time.perf_counter()
    for request in batch:
        transport.fetch(request, scope)
    return (time.perf_counter() - start) * 1000.0


def time_session(transport: TransportConfig | None, rounds: int) -> float:
    payless = registered_payless(
        tiny_weather_market(), options=QueryOptions(transport=transport)
    )
    start = time.perf_counter()
    for __ in range(rounds):
        for sql in SESSION:
            payless.query(sql)
    return (time.perf_counter() - start) * 1000.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small iteration counts for CI; prints but writes no file",
    )
    args = parser.parse_args()
    calls = 500 if args.smoke else 5000
    rounds = 3 if args.smoke else 20

    # Warm-up so first-import costs don't land on either arm.
    time_raw_gets(50)
    time_transport_fetches(50, None)

    raw_ms = time_raw_gets(calls)
    clean_ms = time_transport_fetches(calls, None)
    chaos_ms = time_transport_fetches(
        calls, FaultPolicy.uniform(seed=7, rate=0.2)
    )
    session_plain_ms = time_session(None, rounds)
    session_armed_ms = time_session(
        TransportConfig(max_retries=8, breaker_failure_threshold=10_000),
        rounds,
    )

    call_overhead = (clean_ms - raw_ms) / raw_ms * 100.0
    session_overhead = (
        (session_armed_ms - session_plain_ms) / session_plain_ms * 100.0
    )
    lines = [
        "fault_overhead: money-safe transport vs raw market access",
        f"({calls} calls per arm; {rounds}x{len(SESSION)} session queries)",
        "",
        f"raw market.get            {raw_ms:>10.2f} ms",
        f"transport, faults off     {clean_ms:>10.2f} ms  "
        f"({call_overhead:+.1f}% per call)",
        f"transport, 20% faults     {chaos_ms:>10.2f} ms  "
        "(retries + keyed billing, for scale)",
        "",
        f"session, default          {session_plain_ms:>10.2f} ms",
        f"session, chaos armed      {session_armed_ms:>10.2f} ms  "
        f"({session_overhead:+.1f}%)",
    ]
    ok = call_overhead < 25.0
    lines.append("")
    lines.append(
        f"fault-free call overhead acceptance (<25%): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    text = "\n".join(lines)
    print(text)

    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"[written to {RESULTS_PATH}]")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
