"""Parent against change on one workload of the end-to-end benchmark, or on all.

    python3 tools/bench_pair.py --parent /root/scratch/parent --workload weather_warm
    python3 tools/bench_pair.py --parent ../parent --change . --workload tpch_session \\
        --pairs 10 --seeds 7,8,9,21,22
    python3 tools/bench_pair.py --parent /root/scratch/parent --workload all --pairs 6

Runs ``--pairs`` pairs of ``benchmarks/e2e/run.py --workload W --seed S``,
one run in each checkout (a ``git clone`` or ``git worktree`` of the parent
commit and the working tree), alternating which side goes first, cycling
through ``--seeds``.  Each checkout runs its own copy of the benchmark on
its own ``src/``; the run length is the benchmark's unless ``--seconds``
shortens it for a look (a claim is made at the benchmark's length).

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, in how many pairs the change read better, and a
verdict by the rule a claimed gain must meet (choosing-metrics §8): the
change ahead in at least nine tenths of the pairs, ties counting for
neither side, *and* the medians apart by more than the parent's own
interquartile range.  A median worse than the parent's by more than the
metric's bound is flagged as a regression.  Failed operations are reported
beside the timings, and so is whether the two sides spent the same dollars
repetition by repetition: a faster side completes more draws in the same
run, so the run's median ``dollars_spent`` can differ while every draw both
sides reached cost exactly the same — the detail files under
``benchmarks/e2e/out/`` are compared over their common prefix.  ``setup_s``
has the same artefact (a run's value is the median over its draws' set-ups,
and later draws need not cost what draw 0 does), so it gets a second row,
``setup_s (shared)``, with each side's median taken over only the draws both
sides of the pair reached; the set-ups and repetitions behind each side's
medians are printed too.

``--workload all`` runs the workloads ``BENCHMARK.json`` names one after the
other and ends with one table of every verdict, a row per workload and
metric — the no-regression half of a claim in one command.  The detail
files a run leaves under ``benchmarks/e2e/out/`` of the ``--parent``
checkout are removed once read (that tree is somebody else's); the change's
own stay, git-ignored, for a closer look.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float | None, keep: bool
) -> dict:
    """One untraced pass in ``checkout``: the result object it printed, plus
    the dollars each repetition spent (from the pass's detail file, which
    is removed afterwards unless ``keep`` or it was there before)."""
    detail_path = (
        checkout / "benchmarks/e2e/out" / f"{workload}-seed{seed}-trace0.json"
    )
    ours = not keep and not detail_path.exists()
    command = [
        sys.executable, "benchmarks/e2e/run.py",
        "--workload", workload, "--seed", str(seed),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(
            f"{checkout}: {' '.join(command)} exited {done.returncode}\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads(detail_path.read_text())
    if ours:
        detail_path.unlink()
    result["dollars_by_repetition"] = [
        repetition["dollars_spent"] for repetition in detail["repetitions"]
    ]
    result["setup_by_draw"] = [setup["setup_s"] for setup in detail["setups"]]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    p_low, p_median, p_high = quartiles(parent)
    c_low, c_median, c_high = quartiles(change)
    gap = (p_median - c_median) if lower else (c_median - p_median)
    if gap > 0 and wins >= 0.9 * len(parent) and gap > p_high - p_low:
        word = "GAIN"
    elif -gap > metric["bound"] * p_median:
        word = "REGRESSION"
    else:
        word = "within bound"
    return (
        f"  {metric['name']:16s} parent {p_median:11.4f} [{p_low:.4f}, {p_high:.4f}]"
        f"  change {c_median:11.4f} [{c_low:.4f}, {c_high:.4f}]"
        f"  {gap / p_median:+7.1%}  wins {wins}/{len(parent)}"
        f" (losses {losses})  {word}"
    )


def compare(spec: dict, sides: dict[str, Path], workload: str, args) -> list[str]:
    """Run the pairs of one workload, print them and what they add up to;
    returns the verdict lines."""
    seeds = [int(seed) for seed in args.seeds.split(",")]
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = seeds[pair % len(seeds)]
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(
                run_once(
                    sides[side], workload, seed, args.seconds, keep=side == "change"
                )
            )
        p, c = results["parent"][-1], results["change"][-1]
        print(
            f"pair {pair + 1:2d} seed {seed:4d} ({order[0]} first): "
            + "  ".join(
                f"{m['name']} {p['metrics'][m['name']]['value']:.4g}"
                f"->{c['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"]
            ),
            flush=True,
        )

    print(f"\n== {workload}: {args.pairs} alternated pairs, seeds {seeds[:args.pairs]} ==")
    verdicts = []
    for metric in spec["end_to_end"]:
        values = {
            side: [run["metrics"][metric["name"]]["value"] for run in runs]
            for side, runs in results.items()
        }
        verdicts.append(verdict(metric, values["parent"], values["change"]))
        if metric["name"] == "setup_s":
            shared = {"parent": [], "change": []}
            for p, c in zip(results["parent"], results["change"]):
                draws = min(len(p["setup_by_draw"]), len(c["setup_by_draw"]))
                shared["parent"].append(statistics.median(p["setup_by_draw"][:draws]))
                shared["change"].append(statistics.median(c["setup_by_draw"][:draws]))
            verdicts.append(verdict(
                {**metric, "name": "setup_s (shared)"},
                shared["parent"], shared["change"],
            ))
    for side, runs in results.items():
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        setups = sorted(len(run["setup_by_draw"]) for run in runs)
        repetitions = sorted(len(run["dollars_by_repetition"]) for run in runs)
        verdicts.append(
            f"  {side}: {failed} of {attempted} operations failed; a run's medians"
            f" are over {setups[0]}-{setups[-1]} set-ups and"
            f" {repetitions[0]}-{repetitions[-1]} repetitions"
        )
    unequal = [
        pair + 1
        for pair, (p, c) in enumerate(zip(results["parent"], results["change"]))
        if any(
            a != b
            for a, b in zip(p["dollars_by_repetition"], c["dollars_by_repetition"])
        )
    ]
    verdicts.append(
        "  dollars_spent equal repetition by repetition in every pair"
        if not unequal
        else f"  dollars_spent differs on a shared repetition in pairs {unequal}"
    )
    print("\n".join(verdicts), flush=True)
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, default=Path.cwd(),
                        help="checkout of the change (default: here)")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="7,8,9,21,22,23,24,101,102,103",
                        help="comma-separated; pair i uses seed i mod the list")
    parser.add_argument("--seconds", type=float, default=None,
                        help="override the benchmark's run length (not for a claim)")
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.workload != "all":
        compare(spec, sides, args.workload, args)
        return 0
    verdicts = {
        workload["name"]: compare(spec, sides, workload["name"], args)
        for workload in spec["workloads"]
    }
    print(f"\n== all workloads, {args.pairs} alternated pairs each ==")
    for workload, lines in verdicts.items():
        print(workload)
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
