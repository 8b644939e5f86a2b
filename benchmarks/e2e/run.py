"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py                  # all six workloads, both passes
    python3 benchmarks/e2e/run.py --workload serve_steady --seed 23
    python3 benchmarks/e2e/run.py --smoke          # whole set + traced pass in <30 s
    python3 benchmarks/e2e/run.py --aa             # two full sets, compared to the bounds

(``PYTHONPATH=src python -m benchmarks.e2e.run`` is the same command.)

With ``--workload`` it is the call the benchmark contract describes: one
workload, one pass (``--trace 0`` end-to-end, ``--trace 1`` per-layer), the
result object as the last line of standard output.  Without it, every
workload runs untraced and then traced, each in its own process, and every
metric named in ``BENCHMARK.json`` is printed by name with its unit.

This file imports nothing of the program: each workload runs in a fresh
``worker.py`` process with ``PYTHONHASHSEED`` fixed, ``src/`` on the path
and deprecation warnings turned into errors.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The contract gives one run 180 s; leave room to report a hang.
WORKER_TIMEOUT_S = 170
SMOKE_SECONDS = 0.2


def worker_command(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    command = [
        sys.executable, "-W", "error::DeprecationWarning",
        str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    return command + ["--smoke"] if smoke else command


def worker_environment() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(workload, seed, seconds, trace, smoke, capture: bool):
    """Run one workload pass; ``subprocess.run`` kills and reaps the worker
    if it overruns."""
    return subprocess.run(
        worker_command(workload, seed, seconds, trace, smoke),
        env=worker_environment(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
        capture_output=capture, text=True,
    )


def detail(workload: str, seed: int, trace: int) -> dict:
    return json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )


def run_set(spec: dict, seed: int, seconds: float, smoke: bool) -> tuple[dict, bool]:
    """Every workload, untraced then traced; prints each metric by name.
    Returns the end-to-end values per workload and whether all was correct."""
    end_to_end: dict[str, dict[str, float]] = {}
    correct = True
    env = None
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run_worker(workload, seed, seconds, trace, smoke, capture=True)
            if done.returncode != 0:
                correct = False
                print(done.stdout, done.stderr, sep="\n")
                print(f"{workload} --trace {trace}: FAILED (exit {done.returncode})")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            info = detail(workload, seed, trace)
            reps = info["repetitions"]
            print(
                f"\n== {workload} --trace {trace}: {result['attempted']} ops, "
                f"{result['failed']} failed, {len(reps)} repetitions, "
                f"{info['latency_samples']} latency samples, "
                f"{len(info['setups'])} set-ups =="
            )
            per_repetition = info["layer_repetitions"] if trace else reps
            for name, metric in result["metrics"].items():
                line = f"  {name:34s} {metric['value']:14.4f} {metric['unit']}"
                samples = (
                    [s["setup_s"] for s in info["setups"]] if name == "setup_s"
                    else [r[name] for r in per_repetition if name in r]
                )
                if len(samples) > 1:
                    line += f"   (n={len(samples)}, {min(samples):.4f}..{max(samples):.4f})"
                print(line)
            if trace == 0:
                end_to_end[workload] = {
                    name: metric["value"]
                    for name, metric in result["metrics"].items()
                }
                env = info["environment"]
    if env is not None:
        print(
            f"\nseed {seed}, {env['nproc']} cores, Python {env['python']}, "
            f"{env['platform']}, commit {env['commit']}"
        )
    return end_to_end, correct


def compare(spec: dict, first: dict, second: dict) -> bool:
    """A/A: the relative difference of each end-to-end metric between two
    sets of the same commit, beside the bound it must stay within."""
    within = True
    print("\n== A/A: second set against first ==")
    for workload, values in first.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values[name], second[workload][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= bound else "EXCEEDS"
            within = within and worse <= bound
            print(
                f"  {workload:16s} {name:14s} {a:12.4f} -> {b:12.4f} "
                f"{worse:+8.2%} (bound {bound:.0%}) {verdict}"
            )
    return within


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--aa", action="store_true")
    args = parser.parse_args()
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    if args.workload:
        return run_worker(
            args.workload, args.seed, seconds, args.trace, args.smoke, capture=False
        ).returncode
    first, correct = run_set(spec, args.seed, seconds, args.smoke)
    if args.aa and correct:
        second, correct = run_set(spec, args.seed, seconds, args.smoke)
        correct = correct and compare(spec, first, second)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
