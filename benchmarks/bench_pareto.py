"""Pareto planning: latency bounds that hold, at planning cost that doesn't.

Two acceptance gates guard the money-latency planner:

* **bound** — on a market whose calls block for real wall-clock
  (``LatencyModel.realtime_scale``), a ``dollars_under_latency_ms``
  plan must actually finish its market calls within the bound it was
  planned under, while spending no more dollars than the unconstrained
  fastest (``min_latency``) plan — the bounded objective buys the
  cheapest feasible point, never a pricier one;
* **overhead** — enumerating the full Pareto frontier (``min_latency``)
  must cost at most 2x the single-objective (``min_dollars``) planning
  time at n=10 on chain and star join graphs.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_pareto.py [--smoke|--ci]

Default mode writes ``benchmarks/results/pareto.txt`` and appends a
trajectory entry to ``BENCH_pareto.json`` at the repo root.  ``--ci``
runs both gates without touching the committed files; ``--smoke`` runs
small graphs and skips the gates.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.harness import build_system  # noqa: E402
from repro.core.objectives import (  # noqa: E402
    MIN_DOLLARS,
    PlanObjective,
    QueryOptions,
)
from repro.market.latency import LatencyModel  # noqa: E402
from repro.testing import registered_payless, tiny_weather_market  # noqa: E402
from repro.workloads.synthetic import make_join_graph  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "pareto.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_pareto.json"

#: Pareto planning time must stay within this factor of single-objective.
OVERHEAD_GATE = 2.0
GATED = (("chain", 10), ("star", 10))

FULL_GRAPHS = (
    ("chain", 6),
    ("chain", 8),
    ("chain", 10),
    ("star", 6),
    ("star", 8),
    ("star", 10),
    ("clique", 6),
)
SMOKE_GRAPHS = (("chain", 4), ("chain", 6), ("star", 6))

#: The two-point-frontier fixture: a selective City filter keeps four of
#: eight stations, so the bind join is cheaper but slower than the
#: direct fetch — frontier ($17, 725 ms), ($9, 975 ms).
STATIONS = tuple(
    ("CountryA", i, "Alpha" if i <= 4 else "Beta") for i in range(1, 9)
)
SQL = (
    "SELECT Weather.Temperature FROM Station JOIN Weather "
    "ON Station.StationID = Weather.StationID "
    "WHERE Station.City = 'Alpha'"
)
LATENCY_BOUND_MS = 800.0
#: Fraction of modelled milliseconds the market really sleeps per call.
REALTIME_SCALE = 0.25


def _planning_ms(data, objective, rounds: int = 3) -> float:
    """Best-of-``rounds`` EXPLAIN wall-clock with the plan cache off."""
    best = float("inf")
    for __ in range(rounds):
        payless = build_system(
            "payless",
            data,
            options=QueryOptions(plan_cache_size=0, objective=objective),
        )
        start = time.perf_counter()
        payless.explain(data.sql)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def bench_overhead(shape: str, n: int) -> dict:
    data = make_join_graph(shape, n)
    scalar_ms = _planning_ms(data, MIN_DOLLARS)
    pareto_ms = _planning_ms(data, PlanObjective.min_latency())
    return {
        "shape": shape,
        "n": n,
        "scalar_ms": scalar_ms,
        "pareto_ms": pareto_ms,
        "ratio": pareto_ms / scalar_ms if scalar_ms > 0 else float("inf"),
    }


def bench_bound() -> dict:
    """Execute the bounded plan against a really-sleeping market."""
    market = tiny_weather_market(stations=STATIONS, days=20)
    market.latency = LatencyModel(realtime_scale=REALTIME_SCALE)

    with registered_payless(
        tiny_weather_market(stations=STATIONS, days=20)
    ) as quoting:
        fastest = quoting.explain(SQL, objective="min_latency").planning

    objective = PlanObjective.dollars_under_latency_ms(LATENCY_BOUND_MS)
    with registered_payless(market) as payless:
        start = time.perf_counter()
        result = payless.query(SQL, objective=objective)
        wall_ms = (time.perf_counter() - start) * 1000.0
    stats = result.stats
    # The calls overlap on the event loop (a static plan's accesses are
    # prefetched together), so the wait they cannot shorten is the slowest
    # one's, not the sum of all of them.
    slowest_ms = max(entry.elapsed_ms for entry in market.ledger)
    return {
        "bound_ms": LATENCY_BOUND_MS,
        "estimated_ms": fastest.latency_ms,
        "actual_market_ms": stats.market_time_ms,
        "wall_ms": wall_ms,
        "slept_ms": slowest_ms * REALTIME_SCALE,
        "bounded_price": stats.price,
        "fastest_price": fastest.cost,
        "bound_met": stats.market_time_ms <= LATENCY_BOUND_MS,
        "cheap_enough": stats.price <= fastest.cost,
        "really_slept": wall_ms >= slowest_ms * REALTIME_SCALE * 0.9,
    }


def render(bound: dict, overhead: list[dict]) -> str:
    lines = [
        "pareto: latency-bounded execution + frontier enumeration overhead",
        "",
        f"bounded plan (dollars_under_latency_ms:{bound['bound_ms']:g} on "
        f"realtime market, scale {REALTIME_SCALE:g}):",
        f"  market time {bound['actual_market_ms']:.0f} ms "
        f"(bound {bound['bound_ms']:g} ms) — "
        f"{'met' if bound['bound_met'] else 'MISSED'}",
        f"  dollars ${bound['bounded_price']:g} vs fastest plan "
        f"${bound['fastest_price']:g} — "
        f"{'ok' if bound['cheap_enough'] else 'OVERPAID'}",
        f"  wall-clock {bound['wall_ms']:.0f} ms "
        f"(its slowest call slept ~{bound['slept_ms']:.0f} ms for real)",
        "",
        f"{'graph':>8} | {'min_dollars':>11} | {'pareto':>8} | ratio",
    ]
    for row in overhead:
        lines.append(
            f"{row['shape'] + str(row['n']):>8} | "
            f"{row['scalar_ms']:>9.1f}ms | {row['pareto_ms']:>6.1f}ms | "
            f"{row['ratio']:.2f}x"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small graphs for a quick check; no gates, no result files",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="full graphs + both acceptance gates, but no result files",
    )
    args = parser.parse_args()

    graphs = SMOKE_GRAPHS if args.smoke else FULL_GRAPHS
    bound = bench_bound()
    overhead = [bench_overhead(shape, n) for shape, n in graphs]
    text = render(bound, overhead)
    print(text)

    if not args.smoke:
        ok = True
        print()
        for check, label in (
            ("bound_met", f"market time within {LATENCY_BOUND_MS:g} ms"),
            ("cheap_enough", "dollars <= fastest plan"),
            ("really_slept", "market calls blocked for real"),
        ):
            print(f"bound gate ({label}): {'PASS' if bound[check] else 'FAIL'}")
            ok = ok and bound[check]
        for shape, n in GATED:
            row = next(
                r for r in overhead if (r["shape"], r["n"]) == (shape, n)
            )
            passed = row["ratio"] <= OVERHEAD_GATE
            ok = ok and passed
            print(
                f"{shape} n={n} overhead acceptance "
                f"(<={OVERHEAD_GATE:g}x): {row['ratio']:.2f}x — "
                f"{'PASS' if passed else 'FAIL'}"
            )
        if not ok:
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
                "bench": "pareto",
                "overhead_gate": OVERHEAD_GATE,
                "bound": bound,
                "overhead": overhead,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
