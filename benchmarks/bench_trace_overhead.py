"""Tracing overhead: a disabled tracer must be (near) free.

The observability layer (``repro.obs``) threads a :class:`~repro.obs.
trace.Tracer` through planner → rewriter → executor → transport.  Every
hot path guards with ``if tracer.enabled`` before touching any span
machinery, so the disabled-tracer cost per query is a handful of
attribute checks.  Two measurements defend that contract:

* **session overhead** — a query session through a PayLess installation
  built with ``tracing=False`` vs one with tracing on.  The disabled arm
  is compared against itself across repetitions (A/A) to estimate the
  noise floor, and the enabled arm shows what full span recording costs
  for scale.
* **guard microbenchmark** — the cost of the ``tracer.enabled`` check
  itself, times the *measured* number of guard evaluations per query
  (counted with an instrumented tracer), expressed as a fraction of the
  measured per-query time.

Acceptance gate (CI runs ``--smoke``): the disabled-tracer guard cost —
guard nanoseconds × guards per query, as a percentage of the per-query
runtime — must stay below 3%, and the A/A session delta must not show a
systematic regression beyond noise (also gated at 3% after averaging).

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py [--smoke]

Writes ``benchmarks/results/trace_overhead.txt``; ``--smoke`` shrinks
iteration counts for CI and skips the results file.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.trace import Tracer  # noqa: E402
from repro.testing import registered_payless, tiny_weather_market  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "trace_overhead.txt"

SESSION = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Alpha' AND Station.StationID = Weather.StationID",
    "SELECT * FROM Station",
    "SELECT Temperature FROM Weather WHERE Country = 'CountryA'",
    "SELECT Temperature FROM Weather WHERE Country = 'CountryB' AND Date >= 3",
)

class _CountingTracer(Tracer):
    """A disabled tracer that counts how often ``enabled`` is consulted."""

    def __init__(self):
        self.reads = 0
        super().__init__(enabled=False)

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        self.reads += 1
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass


def count_guards_per_query() -> float:
    """Actual ``tracer.enabled`` evaluations per query of the session."""
    payless = registered_payless(tiny_weather_market())
    counting = _CountingTracer()
    payless.tracer = counting
    payless.context.tracer = counting
    payless.rewriter.tracer = counting
    for sql in SESSION:  # store-cold pass: the guard-heaviest shape
        payless.query(sql)
    first_pass = counting.reads
    counting.reads = 0
    for sql in SESSION:  # store-warm pass
        payless.query(sql)
    return max(first_pass, counting.reads) / len(SESSION)


def time_session(tracing: bool, rounds: int) -> float:
    """Total ms for ``rounds`` repetitions of the session (fresh install)."""
    payless = registered_payless(tiny_weather_market(), tracing=tracing)
    start = time.perf_counter()
    for __ in range(rounds):
        for sql in SESSION:
            payless.query(sql)
    return (time.perf_counter() - start) * 1000.0


def time_guard(iterations: int) -> float:
    """Nanoseconds per disabled-tracer guard check (``tracer.enabled``)."""
    tracer = Tracer(enabled=False)
    sink = 0
    start = time.perf_counter()
    for __ in range(iterations):
        if tracer.enabled:
            sink += 1
    elapsed = time.perf_counter() - start
    assert sink == 0
    return elapsed / iterations * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small iteration counts for CI; prints but writes no file",
    )
    args = parser.parse_args()
    rounds = 3 if args.smoke else 15
    repeats = 3 if args.smoke else 5
    guard_iterations = 200_000 if args.smoke else 2_000_000

    # Warm-up: imports, first-query store registration, JIT-ish dict fills.
    time_session(False, 1)
    time_session(True, 1)

    # A/A and A/B, interleaved and averaged to ride out scheduler noise.
    off_a = [0.0] * repeats
    off_b = [0.0] * repeats
    on = [0.0] * repeats
    for index in range(repeats):
        off_a[index] = time_session(False, rounds)
        on[index] = time_session(True, rounds)
        off_b[index] = time_session(False, rounds)

    off_a_ms = sum(off_a) / repeats
    off_b_ms = sum(off_b) / repeats
    on_ms = sum(on) / repeats
    noise_pct = (off_b_ms - off_a_ms) / off_a_ms * 100.0
    enabled_pct = (on_ms - min(off_a_ms, off_b_ms)) / min(off_a_ms, off_b_ms) * 100.0

    guard_ns = time_guard(guard_iterations)
    guards_per_query = count_guards_per_query()
    queries = rounds * len(SESSION)
    per_query_ms = min(off_a_ms, off_b_ms) / queries
    guard_budget_ms = guard_ns * guards_per_query / 1e6
    guard_pct = guard_budget_ms / per_query_ms * 100.0

    lines = [
        "trace_overhead: disabled tracer vs enabled tracing",
        f"({repeats} repeats x {rounds} rounds x {len(SESSION)} queries; "
        f"{guard_iterations} guard iterations)",
        "",
        f"session, tracing off (A)  {off_a_ms:>10.2f} ms",
        f"session, tracing off (B)  {off_b_ms:>10.2f} ms  "
        f"(A/A noise {noise_pct:+.1f}%)",
        f"session, tracing on       {on_ms:>10.2f} ms  "
        f"({enabled_pct:+.1f}% — full span recording, for scale)",
        "",
        f"guard check               {guard_ns:>10.1f} ns per "
        "`tracer.enabled`",
        f"guard budget              {guard_budget_ms:>10.4f} ms per query "
        f"({guards_per_query:.0f} measured guards)",
        f"per-query runtime         {per_query_ms:>10.2f} ms",
        f"disabled-tracer cost      {guard_pct:>10.2f} % of query time",
    ]
    guard_ok = guard_pct < 3.0
    aa_ok = abs(noise_pct) < 3.0 or off_b_ms <= off_a_ms
    ok = guard_ok and aa_ok
    lines.append("")
    lines.append(
        f"disabled-overhead acceptance (<3% guard cost, A/A within noise): "
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
