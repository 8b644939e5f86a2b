"""Store scaling: indexed probes vs the brute-force scans, by store age.

PayLess never evicts, so remainder decomposition and row assembly must stay
sub-linear in the number of stored boxes.  This bench populates identical
stores — one indexed (the default), one routed through the flat scans
(``debug_bruteforce=True``) — with 10/100/1k/5k covered boxes, then times
the two operations the optimizer and executor hammer:

* **rewrite**: remainder decomposition + coverage verdict per query box;
* **assembly**: ``columns_in_boxes`` over request-region batches (a few
  range boxes — what the executor runs after every market fetch);
* **fan-out**: ``columns_in_boxes`` over 24 single-value boxes (the
  bind-join shape), which the chunked store folds back into one probe
  with a 24-value set on one axis.  Reported beside the other two; the
  >=5x acceptance gate stays on rewrite and assembly.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_store_scaling.py [--smoke]

Writes ``benchmarks/results/store_scaling.txt`` and appends a trajectory
entry to ``BENCH_store.json`` at the repo root.  ``--smoke`` runs tiny
sizes for CI; it skips the JSON append and the committed results file.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.relational.schema import Attribute, Schema  # noqa: E402
from repro.relational.types import AttributeType as T  # noqa: E402
from repro.semstore.boxes import Box  # noqa: E402
from repro.semstore.space import BoxSpace, Dimension  # noqa: E402
from repro.semstore.store import SemanticStore  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "store_scaling.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_store.json"

K_HIGH = 4000
D_HIGH = 365


def make_store(debug_bruteforce: bool) -> SemanticStore:
    space = BoxSpace(
        "R",
        (
            Dimension("K", is_categorical=False, low=0, high=K_HIGH),
            Dimension("D", is_categorical=False, low=0, high=D_HIGH),
        ),
    )
    schema = Schema(
        [Attribute("K", T.INT), Attribute("D", T.INT), Attribute("V", T.FLOAT)]
    )
    store = SemanticStore(debug_bruteforce=debug_bruteforce)
    store.register_table(space, schema)
    return store


def random_box(rng: random.Random, max_k: int = 60, max_d: int = 30) -> Box:
    k_width = rng.randint(1, max_k)
    d_width = rng.randint(1, max_d)
    k_low = rng.randint(0, K_HIGH - k_width)
    d_low = rng.randint(0, D_HIGH - d_width)
    return Box(((k_low, k_low + k_width), (d_low, d_low + d_width)))


def populate(stores, boxes: int, seed: int, rows_per_box: int = 20) -> None:
    """Record the same ``boxes`` covered regions (plus rows) in every store."""
    rng = random.Random(seed)
    for __ in range(boxes):
        box = random_box(rng)
        (k0, k1), (d0, d1) = box.extents
        rows = [
            (k, d, float(k * 1000 + d))
            for k, d in {
                (rng.randint(k0, k1 - 1), rng.randint(d0, d1 - 1))
                for _ in range(rows_per_box)
            }
        ]
        for store in stores:
            store.record("R", box, rows)


def time_rewrite(store: SemanticStore, queries) -> float:
    start = time.perf_counter()
    for query in queries:
        store.remainder("R", [query])
        store.is_covered("R", query)
    return (time.perf_counter() - start) * 1000.0


def time_assembly(store: SemanticStore, batches) -> float:
    start = time.perf_counter()
    for batch in batches:
        store.columns_in_boxes("R", batch)
    return (time.perf_counter() - start) * 1000.0


def run(sizes, probes: int) -> list[dict]:
    results = []
    for size in sizes:
        indexed = make_store(debug_bruteforce=False)
        brute = make_store(debug_bruteforce=True)
        populate((indexed, brute), size, seed=size)
        rng = random.Random(size + 1)
        queries = [random_box(rng, max_k=120, max_d=60) for __ in range(probes)]
        # Request-region assembly: a handful of disjoint range boxes, as
        # produced by rewrite.request_boxes after each market fetch.
        k_step = K_HIGH // 8
        region_batches = [
            [
                Box(
                    (
                        (start, min(start + rng.randint(40, 120), start + k_step)),
                        (d_low, d_low + rng.randint(20, 60)),
                    )
                )
                for start, d_low in zip(
                    rng.sample(range(0, K_HIGH - k_step, k_step), 4),
                    (rng.randint(0, D_HIGH - 61) for __ in range(4)),
                )
            ]
            for __ in range(max(1, probes // 4))
        ]
        # Bind-join fan-out: many single-value boxes along K.
        fanout_batches = [
            [
                Box(((k, k + 1), (0, D_HIGH)))
                for k in rng.sample(range(K_HIGH), 24)
            ]
            for __ in range(max(1, probes // 4))
        ]
        # Sanity: the two stores must agree before we time anything.
        for query in queries[:5]:
            assert indexed.remainder("R", [query]) == brute.remainder("R", [query])
            assert indexed.rows_in_boxes("R", [query]) == brute.rows_in_boxes(
                "R", [query]
            )
        for batch in region_batches[:2] + fanout_batches[:2]:
            assert indexed.rows_in_boxes("R", batch) == brute.rows_in_boxes(
                "R", batch
            )
        row = {
            "stored_boxes": size,
            "cached_rows": indexed.table("R").cached_row_count,
            "rewrite_brute_ms": time_rewrite(brute, queries),
            "rewrite_indexed_ms": time_rewrite(indexed, queries),
            "assembly_brute_ms": time_assembly(brute, region_batches),
            "assembly_indexed_ms": time_assembly(indexed, region_batches),
            "fanout_brute_ms": time_assembly(brute, fanout_batches),
            "fanout_indexed_ms": time_assembly(indexed, fanout_batches),
        }
        for kind in ("rewrite", "assembly", "fanout"):
            indexed_ms = row[f"{kind}_indexed_ms"]
            row[f"{kind}_speedup"] = (
                row[f"{kind}_brute_ms"] / indexed_ms
                if indexed_ms > 0
                else float("inf")
            )
        results.append(row)
    return results


def render(results, probes: int) -> str:
    lines = [
        "store_scaling: indexed grid probes vs brute-force scans",
        f"({probes} query boxes per size; times are totals in ms;",
        " assembly = request-region batches, fanout = 24-way bind-join shape)",
        "",
        f"{'boxes':>6} {'rows':>7} | {'rewrite brute':>13} {'indexed':>9} "
        f"{'speedup':>8} | {'assembly brute':>14} {'indexed':>9} "
        f"{'speedup':>8} | {'fanout brute':>12} {'indexed':>9} {'speedup':>8}",
    ]
    for row in results:
        lines.append(
            f"{row['stored_boxes']:>6} {row['cached_rows']:>7} | "
            f"{row['rewrite_brute_ms']:>13.2f} {row['rewrite_indexed_ms']:>9.2f} "
            f"{row['rewrite_speedup']:>7.1f}x | "
            f"{row['assembly_brute_ms']:>14.2f} {row['assembly_indexed_ms']:>9.2f} "
            f"{row['assembly_speedup']:>7.1f}x | "
            f"{row['fanout_brute_ms']:>12.2f} {row['fanout_indexed_ms']:>9.2f} "
            f"{row['fanout_speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for CI; prints but does not write result files",
    )
    args = parser.parse_args()

    sizes = (10, 50) if args.smoke else (10, 100, 1000, 5000)
    probes = 20 if args.smoke else 200
    results = run(sizes, probes)
    text = render(results, probes)
    print(text)

    at_1k = next(
        (row for row in results if row["stored_boxes"] == 1000), None
    )
    if at_1k is not None:
        ok = (
            at_1k["rewrite_speedup"] >= 5.0
            and at_1k["assembly_speedup"] >= 5.0
        )
        print(
            f"\n1k-box acceptance (>=5x on both): "
            f"{'PASS' if ok else 'FAIL'}"
        )
        if not ok:
            return 1

    if not args.smoke:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"[written to {RESULTS_PATH}]")
        trajectory = []
        if TRAJECTORY_PATH.exists():
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory.append(
            {
                "bench": "store_scaling",
                "probes": probes,
                "results": results,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
