"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = ["tests"]``): it runs the whole
``--smoke`` set — every workload, untraced and traced, oracle included.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 7


def test_smoke_run_emits_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", str(SEED)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            name = workload["name"]
            detail = json.loads(
                (HERE / "out" / f"{name}-seed{SEED}-trace{trace}.json").read_text()
            )
            assert detail["failed"] == 0 and detail["attempted"] >= 1, name
            assert {
                metric: value["unit"] for metric, value in detail["metrics"].items()
            } == {metric["name"]: metric["unit"] for metric in declared}, (name, trace)
            # Every metric is printed by name, with its unit.
            for metric in declared:
                assert f"  {metric['name']} " in done.stdout, metric["name"]
