"""One workload, in one process: set up, repeat, check, report.

Started by ``run.py`` with ``PYTHONHASHSEED`` fixed, ``src/`` on the path
and ``-W error::DeprecationWarning`` (the benchmark must survive the
removal of every deprecated spelling untouched).  The last line of
standard output is the result object the benchmark contract asks for;
everything the contract has no room for (per-repetition values, sample
counts, the machine) goes to ``out/<workload>-seed<n>-trace<0|1>.json``.

Every set-up and every repetition is accompanied by a machine-speed probe
and its CPU-bound time metrics are reported at the reference machine's
speed (``calibrate.py`` says why); the values as measured are kept beside
them in ``out/``.

With ``--trace 0`` nothing is wrapped and the end-to-end metrics are
reported.  With ``--trace 1`` repetitions come in untraced/traced twins on
the same draw, the per-layer metrics come from the traced ones, and the
ratio of a traced wall to its untraced twin's is the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Bracket
from tracing import Tracer, attach_installation, attach_process, summarize, write_jsonl
from workloads import OUT_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def percentile(values: list[float], fraction: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def counters(installations) -> dict[str, float]:
    """Cumulative counts read off public attributes of the installations
    and their markets' ledgers (never off a tracer or a registry)."""
    total = dict.fromkeys(
        (
            "plan_hits", "plan_misses", "plan_evictions", "memo_hits",
            "memo_misses", "calls", "transactions", "records", "slept_s",
            "spent", "wasted", "wal_bytes", "covered_boxes", "cached_rows",
        ),
        0.0,
    )
    for payless in installations:
        cache, rewriter = payless.plan_cache, payless.rewriter
        total["plan_hits"] += cache.hits
        total["plan_misses"] += cache.misses
        total["plan_evictions"] += cache.evictions
        total["memo_hits"] += rewriter.cache_hits
        total["memo_misses"] += rewriter.cache_misses
        ledger = payless.market.ledger
        scale = payless.market.latency.realtime_scale
        for entry in ledger:
            total["calls"] += 1
            total["transactions"] += entry.transactions
            total["records"] += entry.record_count
            total["slept_s"] += entry.elapsed_ms * scale / 1000.0
            total["wasted" if ledger.is_wasted(entry) else "spent"] += entry.price
        if payless.durability is not None:
            # Growth of the live segment; a compaction starts a new one.
            total["wal_bytes"] += payless.durability.wal.tell()
        for dataset in payless.market:
            for table in dataset:
                table_store = payless.store.table(table.name)
                total["covered_boxes"] += table_store.covered_count
                total["cached_rows"] += table_store.cached_row_count
    return total


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rep, spans, planned, before, after) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    layers = summarize(spans)

    def self_s(name: str) -> float:
        return layers[name]["self_s"] if name in layers else 0.0

    def calls(name: str) -> int:
        return layers[name]["calls"] if name in layers else 0

    delta = {key: after[key] - before[key] for key in after}
    results = [
        outcome for __, outcome in rep.outcomes
        if not isinstance(outcome, Exception)
    ]
    stats = [r.stats for r in results if r.stats is not None]
    roots = sorted(
        (start, end) for __, name, start, end, parent, __op in spans
        if parent is None and name in ("payless.query", "payless.explain")
    )
    # Queue wait pairs submissions and service starts in order: exact in
    # total, and per op under the scheduler's first-come dispatch.
    waits = [
        start - sent for sent, (start, __) in zip(sorted(rep.submits), roots)
    ]
    lookups = delta["plan_hits"] + delta["plan_misses"]
    fetch_calls = calls("transport.fetch")
    return {
        "sqlparser.parse_s": self_s("sqlparser.parse"),
        "sqlparser.analyze_s": self_s("sqlparser.analyze"),
        "sqlparser.calls": calls("sqlparser.parse") + calls("sqlparser.analyze"),
        "plancache.lookup_s": self_s("plancache.lookup"),
        "plancache.lookups": lookups,
        "plancache.hit_ratio": ratio(delta["plan_hits"], lookups),
        "plancache.evictions": delta["plan_evictions"],
        "optimizer.optimize_s": self_s("optimizer.optimize"),
        "optimizer.calls": calls("optimizer.optimize"),
        "optimizer.evaluated_plans": sum(p.evaluated_plans for p in planned),
        "optimizer.pruned_plans": sum(p.pruned_plans for p in planned),
        "rewriter.rewrite_s": self_s("rewriter.rewrite"),
        "rewriter.calls": calls("rewriter.rewrite"),
        "rewriter.memo_hit_ratio": ratio(
            delta["memo_hits"], delta["memo_hits"] + delta["memo_misses"]
        ),
        "rewriter.enumerated_boxes": sum(p.enumerated_boxes for p in planned),
        "rewriter.kept_boxes": sum(p.kept_boxes for p in planned),
        "semstore.record_s": self_s("semstore.record"),
        "semstore.record_calls": calls("semstore.record"),
        "semstore.remainder_s": self_s("semstore.remainder"),
        "semstore.remainder_calls": calls("semstore.remainder"),
        "semstore.assemble_s": self_s("semstore.assemble"),
        "semstore.assemble_calls": calls("semstore.assemble"),
        "semstore.covered_boxes": after["covered_boxes"],
        "semstore.cached_rows": after["cached_rows"],
        "stats.observe_s": self_s("stats.observe"),
        "stats.observe_calls": calls("stats.observe"),
        "executor.execute_s": self_s("executor.execute"),
        "executor.calls": calls("executor.execute"),
        "executor.replans": sum(s.replans for s in stats),
        "executor.prefetch_hits": sum(s.prefetch_hits for s in stats),
        "transport.fetch_s": (
            layers["transport.fetch"]["total_s"] if fetch_calls else 0.0
        ),
        "transport.overhead_s": self_s("transport.fetch"),
        "transport.calls": fetch_calls,
        "transport.calls_per_access": ratio(
            fetch_calls, calls("semstore.assemble")
        ),
        "transport.retries": sum(s.retries for s in stats),
        "transport.faults": sum(s.faults_injected for s in stats),
        "transport.replays": sum(s.replays for s in stats),
        "transport.failed_calls": sum(s.failed_calls for s in stats),
        "market.get_s": self_s("market.get"),
        "market.sleep_s": delta["slept_s"],
        "market.calls": delta["calls"],
        "market.transactions": delta["transactions"],
        "market.records": delta["records"],
        "market.dollars_wasted": delta["wasted"],
        "relational.evaluate_s": self_s("relational.evaluate"),
        "relational.calls": calls("relational.evaluate"),
        "relational.rows_out": sum(
            len(r.rows) for r in results if r.stats is not None
        ),
        "durable.intent_s": self_s("durable.intent"),
        "durable.append_s": self_s("durable.append"),
        "durable.commit_s": self_s("durable.commit"),
        "durable.records": calls("durable.intent") + calls("durable.append"),
        "durable.wal_bytes": delta["wal_bytes"],
        "durable.bytes_per_purchased_row": ratio(
            delta["wal_bytes"], delta["records"]
        ),
        "durable.compactions": calls("durable.snapshot"),
        "serve.queue_wait_s": sum(waits),
        "serve.queue_wait_p95_ms": percentile(waits, 0.95) * 1000.0 if waits else 0.0,
        "serve.service_s": (
            sum(end - start for start, end in roots) if rep.submits else 0.0
        ),
        "serve.coalesced_fetches": sum(s.coalesced_fetches for s in stats),
        "serve.coalesced_dollars": sum(s.coalesced_savings_price for s in stats),
        "serve.covered_skips": sum(s.covered_skips for s in stats),
        "serve.admission_rejects": rep.admission_rejects,
        "loadgen.late_ms_max": rep.late_ms_max,
        "unattributed_s": self_s("payless.query") + self_s("payless.explain"),
    }


def environment(args, repetitions: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "repetitions": repetitions,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def warm_up(args) -> None:
    """One shrunken, untimed pass first: imports the program lazily pulls
    in, parse memos, the interpreter's specialised bytecode and the
    allocator's arenas are then what a long-running buyer has."""
    workload = WORKLOADS[args.workload](True)
    workload.setup(args.seed * 10000 + 9990)
    try:
        workload.repetition(0)
    finally:
        workload.teardown()


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.smoke:
        warm_up(args)
    workload = WORKLOADS[args.workload](args.smoke)
    tracer = Tracer() if args.trace else None
    planned: list = []
    span_log: list[list[tuple]] = []
    setups: list[dict] = []
    reps: list[dict] = []
    layer_reps: list[dict[str, float]] = []
    attempted = failed = 0
    timed = 0.0
    peak_rss_mb = 0.0
    index = installs = 0
    # A traced run needs one repetition of each kind, however short.
    while timed < args.seconds or (tracer is not None and index < 2):
        # Draw n of seed s owns the seeds (s*1000+n)*10 .. +9 (data, replay
        # order); ``installs_per_draw`` fresh installations are made on it.
        # A traced run repeats each installation, so every traced
        # repetition has an untraced twin on the same inputs.
        draw = (
            installs // workload.installs_per_draw if tracer is None
            else index // 2
        )
        installs += 1
        gc.collect()
        meter = Bracket()  # a set-up is one thread computing
        meter.start()
        started = time.perf_counter()
        drew = workload.setup((args.seed * 1000 + draw) * 10)
        elapsed = time.perf_counter() - started
        if drew:  # a whole set-up: inputs drawn, then installed
            slow = meter.stop()
            scale = slow if "setup_s" in workload.speed_scaled else 1.0
            setups.append(
                {"raw_s": elapsed, "slowdown": slow, "setup_s": elapsed / scale}
            )
        for __ in range(workload.reps_per_setup):
            # Twins run untraced-traced, then traced-untraced: whichever
            # goes second finds warmer caches, and the order cancels that.
            traced = tracer is not None and index % 4 in (1, 2)
            before = counters(workload.installations)
            if traced:
                attach_process(tracer, planned)
                for payless in workload.installations:
                    attach_installation(tracer, payless)
            gc.collect()
            meter = workload.speed_meter()
            meter.start()
            try:
                rep = workload.repetition(index)
            finally:
                slow = meter.stop()
                if traced:
                    tracer.restore()
            after = counters(workload.installations)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            timed += rep.wall_s
            ops = len(rep.outcomes)
            attempted += ops
            failed += workload.failed(rep)
            raw = {
                "ops_per_s": ops / rep.wall_s,
                "p50_ms": percentile(rep.latencies_ms, 0.50),
                "p95_ms": percentile(rep.latencies_ms, 0.95),
                "cpu_ms_per_op": rep.cpu_s * 1000.0 / ops,
            }
            # At the reference machine's speed: a rate is that many times
            # higher, a time that many times shorter (``calibrate.py``).
            scaled = {
                name: (
                    value if name not in workload.speed_scaled
                    else value * slow if name == "ops_per_s" else value / slow
                )
                for name, value in raw.items()
            }
            reps.append(
                {
                    "traced": traced,
                    "wall_s": rep.wall_s,
                    "ops": ops,
                    "slowdown": slow,
                    "raw": raw,
                    **scaled,
                    "dollars_spent": after["spent"] + rep.quoted_dollars,
                }
            )
            if traced:
                spans = tracer.drain()
                span_log.append(spans)
                layer_reps.append(
                    layer_metrics(rep, spans, planned, before, after)
                )
                layer_reps[-1]["machine.slowdown"] = slow
                planned.clear()
            index += 1
            if timed >= args.seconds and (tracer is None or index >= 2):
                break
        checks, failures = workload.teardown()
        attempted += checks
        failed += failures

    OUT_DIR.mkdir(exist_ok=True)
    if tracer is None:
        # Medians over repetitions: one stalled or unlucky repetition (a
        # draw whose TPC-H session fragments the store) moves none of them.
        values = {
            name: statistics.median(rep[name] for rep in reps)
            for name in ("ops_per_s", "p50_ms", "p95_ms", "cpu_ms_per_op", "dollars_spent")
        }
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        declared = spec["end_to_end"]
    else:
        values = {
            name: statistics.median(rep[name] for rep in layer_reps)
            for name in layer_reps[0]
        }
        twins = (
            sorted(pair, key=lambda r: r["traced"])
            for pair in zip(reps[0::2], reps[1::2])
        )
        # Twins do the same ops, so the ratio of their rates is that of
        # their walls — at the reference machine's speed where the workload
        # is scaled: the machine may change pace between the two.
        values["trace.overhead_ratio"] = statistics.median(
            plain["ops_per_s"] / traced["ops_per_s"] for plain, traced in twins
        )
        values["durable.recover_s"] = (
            statistics.median(workload.recover_s) if workload.recover_s else 0.0
        )
        values["durable.recovered_records"] = sum(workload.recovered_records)
        values["process.peak_rss_mb"] = peak_rss_mb
        values["failed_ratio"] = failed / attempted
        declared = spec["per_layer"]
        write_jsonl(
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", span_log
        )
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
    }

    detail = {
        "environment": environment(args, len(reps)),
        "setups": setups,
        "repetitions": reps,
        "layer_repetitions": layer_reps,
        "latency_samples": sum(r["ops"] for r in reps),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
