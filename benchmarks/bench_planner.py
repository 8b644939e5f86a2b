"""Planner at scale: the plan cache on vs ``plan_cache_size=0``.

The epoch-keyed parameterized plan cache must make planning cheap on the
repeat-template sessions the paper's workloads are built from, *without
ever changing the chosen plan* — the DP itself has no shortcut beyond
Theorems 1-3, so the cache is the whole session win.  This bench
measures it on synthetic chain/star/clique join graphs up to n=12 market
tables:

* **cold**    — one fresh planning (the DP's own cost; both arms run
  the same code on a first sight of a template, so one column);
* **session** — the same template explained R=8 times per arm: the
  cached arm plans once and serves 7 cache hits, the ``no cache`` arm
  re-parses and re-plans every time (the regime ``PreparedQuery`` and
  the harness's Zipfian sessions live in);
* **parity**  — before timing anything, both arms must choose
  byte-identical plans at identical cost (the correctness gate).

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_planner.py [--smoke|--ci]

Default mode writes ``benchmarks/results/planner.txt`` and appends a
trajectory entry to ``BENCH_planner.json`` at the repo root.  ``--ci``
runs the same graphs and the acceptance gate without touching the
committed files; ``--smoke`` runs tiny graphs and skips the gate.  The
gate fails the build unless the cached arm shows a >=5x session speedup
at n=10 on both chain and star.
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
from repro.core.objectives import QueryOptions  # noqa: E402
from repro.workloads.synthetic import make_join_graph  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "planner.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_planner.json"

SPEEDUP_GATE = 5.0  # session speedup at n=10 chain AND star
GATED = (("chain", 10), ("star", 10))

FULL_GRAPHS = (
    ("chain", 6),
    ("chain", 8),
    ("chain", 10),
    ("chain", 12),
    ("star", 6),
    ("star", 8),
    ("star", 10),
    ("star", 12),
    ("clique", 4),
    ("clique", 6),
    ("clique", 8),
)
SMOKE_GRAPHS = (("chain", 4), ("chain", 6), ("star", 6), ("clique", 4))

#: Template repeats per session — one cold planning plus R-1 warm repeats.
REPEATS = 8


def _fresh(data, *, cached: bool):
    """One installation per arm: the default, or with the cache off."""
    options = None if cached else QueryOptions(plan_cache_size=0)
    payless = build_system("payless", data, options=options)
    return payless


def _session_ms(payless, sql: str, repeats: int) -> float:
    """Wall-clock of ``repeats`` EXPLAINs of one template (parse+plan)."""
    start = time.perf_counter()
    for __ in range(repeats):
        payless.explain(sql)
    return (time.perf_counter() - start) * 1000.0


def bench_graph(shape: str, n: int, repeats: int) -> dict:
    data = make_join_graph(shape, n)

    # Parity gate first: identical chosen plan and cost, or nothing else
    # in this row means anything.
    a = _fresh(data, cached=True).explain(data.sql)
    b = _fresh(data, cached=False).explain(data.sql)
    plans_match = (
        a.plan.describe() == b.plan.describe() and a.cost == b.cost
    )

    # Cold planning (a fresh installation so nothing is cached).
    cold_ms = _session_ms(_fresh(data, cached=True), data.sql, 1)

    # Repeat-template session per arm.
    session_cached_ms = _session_ms(
        _fresh(data, cached=True), data.sql, repeats
    )
    session_uncached_ms = _session_ms(
        _fresh(data, cached=False), data.sql, repeats
    )

    return {
        "shape": shape,
        "n": n,
        "repeats": repeats,
        "plans_match": plans_match,
        "candidates": a.evaluated_plans,
        "candidates_dominated": a.pruned_plans,
        "cold_ms": cold_ms,
        "session_uncached_ms": session_uncached_ms,
        "session_cached_ms": session_cached_ms,
        "session_speedup": (
            session_uncached_ms / session_cached_ms
            if session_cached_ms > 0
            else float("inf")
        ),
    }


def run(graphs, repeats: int) -> list[dict]:
    return [bench_graph(shape, n, repeats) for shape, n in graphs]


def render(results) -> str:
    lines = [
        "planner: plan cache on vs plan_cache_size=0",
        f"(session = the same template explained {results[0]['repeats']} "
        "times; the cached arm",
        " plans once and serves the rest from the epoch-keyed plan cache;",
        " dominated = candidates an incumbent over the same tables rejected;",
        " parity = byte-identical chosen plan and cost across the arms)",
        "",
        f"{'graph':>10} | {'candidates':>10} {'dominated':>9} | "
        f"{'cold ms':>8} | {'session no cache':>16} {'cache':>8} "
        f"{'speedup':>8} | parity",
    ]
    for row in results:
        lines.append(
            f"{row['shape'] + str(row['n']):>10} | "
            f"{row['candidates']:>10} "
            f"{row['candidates_dominated']:>9} | "
            f"{row['cold_ms']:>8.1f} | "
            f"{row['session_uncached_ms']:>16.1f} "
            f"{row['session_cached_ms']:>8.1f} "
            f"{row['session_speedup']:>7.1f}x | "
            f"{'ok' if row['plans_match'] else 'DIVERGED'}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny graphs for a quick check; no gate, no result files",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="full graphs + the >=5x acceptance gate, but no result files",
    )
    args = parser.parse_args()

    graphs = SMOKE_GRAPHS if args.smoke else FULL_GRAPHS
    results = run(graphs, REPEATS)
    text = render(results)
    print(text)

    diverged = [r for r in results if not r["plans_match"]]
    if diverged:
        names = ", ".join(f"{r['shape']}{r['n']}" for r in diverged)
        print(f"\nplan parity FAILED on: {names}")
        return 1

    if not args.smoke:
        ok = True
        print()
        for shape, n in GATED:
            row = next(
                r for r in results if (r["shape"], r["n"]) == (shape, n)
            )
            passed = row["session_speedup"] >= SPEEDUP_GATE
            ok = ok and passed
            print(
                f"{shape} n={n} session acceptance (>={SPEEDUP_GATE:g}x): "
                f"{row['session_speedup']:.1f}x — "
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
                "bench": "planner",
                "gate": SPEEDUP_GATE,
                "results": results,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
