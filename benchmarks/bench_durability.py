"""Durability economics: cold-restart speed and steady-state WAL drag.

The durable backend makes two promises:

* **cold restart** — recovering 10k covered boxes from snapshot+WAL is
  reported (``wal_recover_ms``) and the recovered store must answer the
  same probes exactly as the installation that wrote the snapshot.  The
  levers are the pickled tables sidecar (``export_bulk_state`` /
  ``adopt_bulk_state`` move the store's columns, coordinates, chunk
  ranges, covers and the *prebuilt* grid index buckets wholesale, so
  restart re-derives nothing and builds no row tuple);
* **steady state** (the acceptance gate) — with the WAL on, a
  warm-dominated workload (every range bought once, re-read three times —
  the system never evicts, so steady state *is* mostly warm) must cost at
  most **10%** more wall time than the same workload with durability off.
  An all-cold sweep is reported alongside for honesty but not gated: it
  measures fsync price per purchase, not steady state.

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_durability.py [--smoke]

Writes ``benchmarks/results/durability.txt`` and appends a trajectory
entry to ``BENCH_durability.json`` at the repo root.  ``--smoke`` runs
tiny sizes for quick iteration; it skips the gate and the result files.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import (  # noqa: E402
    BindingPattern,
    DataMarket,
    Dataset,
    PayLess,
    PricingPolicy,
    QueryOptions,
    Table,
)
from repro.durable.backend import (  # noqa: E402
    DurabilityConfig,
    DurableStateBackend,
)
from repro.relational.schema import Attribute, Domain, Schema  # noqa: E402
from repro.relational.types import AttributeType as T  # noqa: E402
from repro.semstore.boxes import Box  # noqa: E402
from repro.semstore.space import BoxSpace, Dimension  # noqa: E402
from repro.semstore.store import SemanticStore  # noqa: E402

RESULTS_PATH = Path(__file__).parent / "results" / "durability.txt"
TRAJECTORY_PATH = REPO_ROOT / "BENCH_durability.json"

K_HIGH = 4000
D_HIGH = 365

#: Cold-restart timing repeats; the best run is reported.
RESTART_REPEATS = 3


# -- cold restart: recover from snapshot+WAL -----------------------------------


class _Statistics:
    """A catalog entry whose histogram is not a FeedbackHistogram, so
    recovery skips histogram work and the timing is store-only."""

    histogram = object()


class _Catalog:
    def __init__(self):
        self._statistics = _Statistics()

    def statistics(self, key: str) -> _Statistics:
        return self._statistics


class _RestorableInstall:
    """The duck-typed slice of PayLess that snapshot/recover touch: a
    real SemanticStore, a catalog, and the nine bill counters."""

    def __init__(self):
        space = BoxSpace(
            "R",
            (
                Dimension("K", is_categorical=False, low=0, high=K_HIGH),
                Dimension("D", is_categorical=False, low=0, high=D_HIGH),
            ),
        )
        schema = Schema(
            [
                Attribute("K", T.INT),
                Attribute("D", T.INT),
                Attribute("V", T.FLOAT),
            ]
        )
        self.store = SemanticStore()
        self.store.register_table(space, schema)
        self.catalog = _Catalog()
        self.durability = None
        self.total_transactions = 0
        self.total_price = 0.0
        self.total_calls = 0
        self.queries_executed = 0
        self.total_wasted_transactions = 0
        self.total_wasted_price = 0.0
        self.total_coalesced_fetches = 0
        self.total_coalesced_transactions = 0
        self.total_coalesced_price = 0.0


def _random_box(rng: random.Random, max_k: int = 60, max_d: int = 30) -> Box:
    k_width = rng.randint(1, max_k)
    d_width = rng.randint(1, max_d)
    k_low = rng.randint(0, K_HIGH - k_width)
    d_low = rng.randint(0, D_HIGH - d_width)
    return Box(((k_low, k_low + k_width), (d_low, d_low + d_width)))


def _populate(install: _RestorableInstall, boxes: int, seed: int) -> None:
    rng = random.Random(seed)
    for __ in range(boxes):
        box = _random_box(rng)
        (k0, k1), (d0, d1) = box.extents
        rows = [
            (k, d, float(k * 1000 + d))
            for k, d in {
                (rng.randint(k0, k1 - 1), rng.randint(d0, d1 - 1))
                for _ in range(10)
            }
        ]
        install.store.record("R", box, rows)


def bench_cold_restart(sizes) -> list[dict]:
    results = []
    for size in sizes:
        workdir = Path(tempfile.mkdtemp(prefix="bench-durability-"))
        try:
            state_dir = workdir / "state"
            source = _RestorableInstall()
            _populate(source, size, seed=size)
            backend = DurableStateBackend(
                DurabilityConfig(state_dir=state_dir)
            )
            backend.attach(source)
            backend.snapshot()
            backend.close()

            # Min of repeats: restores allocate millions of small
            # objects, so any single shot can eat a gen2 GC pause.
            wal_ms = math.inf
            for __ in range(RESTART_REPEATS):
                gc.collect()
                start = time.perf_counter()
                wal_install = _RestorableInstall()
                wal_backend = DurableStateBackend(
                    DurabilityConfig(state_dir=state_dir)
                )
                wal_backend.recover(wal_install)
                wal_ms = min(
                    wal_ms, (time.perf_counter() - start) * 1000.0
                )
                wal_backend.abandon()

            # The recovered store answers exactly as the one snapshotted.
            rng = random.Random(size + 1)
            for __ in range(5):
                probe = _random_box(rng, max_k=120, max_d=60)
                assert wal_install.store.remainder(
                    "R", probe
                ) == source.store.remainder("R", probe)
                assert wal_install.store.rows_in_boxes(
                    "R", [probe]
                ) == source.store.rows_in_boxes("R", [probe])

            results.append(
                {
                    "stored_boxes": size,
                    "cached_rows": wal_install.store.table(
                        "R"
                    ).cached_row_count,
                    "wal_recover_ms": wal_ms,
                }
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return results


# -- steady state: WAL on vs off over a live market ---------------------------

STATIONS = 30
DAYS = 240


def _make_market() -> DataMarket:
    countries = ["CountryA", "CountryB"]
    stations = [
        (
            "CountryA" if station <= STATIONS // 2 else "CountryB",
            station,
            f"City{station % 7}",
        )
        for station in range(1, STATIONS + 1)
    ]
    weather = [
        (country, station, day, float(station * 10 + day))
        for country, station, __ in stations
        for day in range(1, DAYS + 1)
    ]
    station_schema = Schema(
        [
            Attribute("Country", T.STRING, Domain.categorical(countries)),
            Attribute("StationID", T.INT, Domain.numeric(1, STATIONS)),
            Attribute(
                "City",
                T.STRING,
                Domain.categorical([f"City{i}" for i in range(7)]),
            ),
        ]
    )
    weather_schema = Schema(
        [
            Attribute("Country", T.STRING, Domain.categorical(countries)),
            Attribute("StationID", T.INT, Domain.numeric(1, STATIONS)),
            Attribute("Date", T.DATE, Domain.numeric(1, DAYS)),
            Attribute("Temperature", T.FLOAT),
        ]
    )
    dataset = Dataset("WHW", PricingPolicy(tuples_per_transaction=10))
    dataset.add_table(
        Table("Station", station_schema, stations),
        BindingPattern.parse("Station", "Countryf, StationIDf, Cityf"),
    )
    dataset.add_table(
        Table("Weather", weather_schema, weather),
        BindingPattern.parse("Weather", "Countryf, StationIDf, Datef"),
    )
    market = DataMarket()
    market.publish(dataset)
    return market


def _cold_queries() -> list[str]:
    queries = []
    for country in ("CountryA", "CountryB"):
        for low in range(1, DAYS - 30, 12):
            queries.append(
                "SELECT StationID, Date, Temperature FROM Weather "
                f"WHERE Country = '{country}' "
                f"AND Date >= {low} AND Date <= {low + 29}"
            )
    return queries


def _run_workload(workload, state_dir) -> float:
    market = _make_market()
    if state_dir is not None:
        payless = PayLess.full(
            market, options=QueryOptions(durability=state_dir)
        )
    else:
        payless = PayLess.full(market)
    payless.register_dataset("WHW")
    if state_dir is not None:
        payless.recover()
    # Level the GC field: earlier sections (notably the cold-restart
    # restores) leave millions of collectable objects behind, and an
    # inherited gen2 pass landing inside one timed run skews the ratio.
    gc.collect()
    start = time.perf_counter()
    for sql in workload:
        payless.query(sql)
    elapsed = (time.perf_counter() - start) * 1000.0
    return elapsed


def bench_steady_state(repeats: int) -> dict:
    cold = _cold_queries()
    steady = []
    for sql in cold:
        steady.append(sql)
        steady.extend([sql] * 3)  # warm re-reads: the common case

    def best_pair(workload) -> tuple[float, float, float]:
        """Best plain time, best durable time, and best *paired* overhead.

        Repeats are interleaved plain/durable and the overhead is the
        minimum ratio over adjacent pairs: ambient machine drift (CPU
        frequency, co-tenants) moves both members of a pair together, so
        the pair ratio isolates the WAL's intrinsic cost far better than
        comparing two independent minima taken seconds apart."""
        plain_ms = durable_ms = math.inf
        pair_ratio = math.inf
        for __ in range(repeats):
            plain = _run_workload(workload, None)
            workdir = Path(tempfile.mkdtemp(prefix="bench-durability-"))
            try:
                durable = _run_workload(workload, workdir / "state")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            plain_ms = min(plain_ms, plain)
            durable_ms = min(durable_ms, durable)
            pair_ratio = min(pair_ratio, durable / plain)
        return plain_ms, durable_ms, (pair_ratio - 1.0) * 100.0

    steady_plain, steady_durable, steady_overhead = best_pair(steady)
    cold_plain, cold_durable, cold_overhead = best_pair(cold)
    return {
        "queries": len(steady),
        "steady_plain_ms": steady_plain,
        "steady_durable_ms": steady_durable,
        "steady_overhead_pct": steady_overhead,
        "cold_plain_ms": cold_plain,
        "cold_durable_ms": cold_durable,
        "cold_overhead_pct": cold_overhead,
    }


def render(restarts, steady) -> str:
    lines = [
        "durability: cold-restart recovery and steady-state WAL overhead",
        "",
        "cold restart (snapshot+WAL recover; recovered store == source):",
        f"{'boxes':>6} {'rows':>7} | {'wal recover':>12}",
    ]
    for row in restarts:
        lines.append(
            f"{row['stored_boxes']:>6} {row['cached_rows']:>7} | "
            f"{row['wal_recover_ms']:>10.1f}ms"
        )
    lines += [
        "",
        f"steady state ({steady['queries']} queries, 1 cold : 3 warm):",
        f"  WAL off {steady['steady_plain_ms']:>8.1f}ms   "
        f"WAL on {steady['steady_durable_ms']:>8.1f}ms   "
        f"overhead {steady['steady_overhead_pct']:>5.1f}%",
        "all-cold sweep (every query purchases; reported, not gated):",
        f"  WAL off {steady['cold_plain_ms']:>8.1f}ms   "
        f"WAL on {steady['cold_durable_ms']:>8.1f}ms   "
        f"overhead {steady['cold_overhead_pct']:>5.1f}%",
    ]
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for quick iteration; prints but neither writes "
        "result files nor enforces the gate",
    )
    args = parser.parse_args()

    sizes = (200,) if args.smoke else (1000, 10000)
    repeats = 1 if args.smoke else 5
    restarts = bench_cold_restart(sizes)
    steady = bench_steady_state(repeats)
    text = render(restarts, steady)
    print(text)

    if not args.smoke:
        steady_ok = steady["steady_overhead_pct"] <= 10.0
        print(
            f"\nsteady-state overhead acceptance (<=10%): "
            f"{'PASS' if steady_ok else 'FAIL'}"
        )
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(text + "\n")
        print(f"[written to {RESULTS_PATH}]")
        trajectory = []
        if TRAJECTORY_PATH.exists():
            trajectory = json.loads(TRAJECTORY_PATH.read_text())
        trajectory.append(
            {
                "bench": "durability",
                "restarts": restarts,
                "steady_state": steady,
            }
        )
        TRAJECTORY_PATH.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"[trajectory appended to {TRAJECTORY_PATH}]")
        if not steady_ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
