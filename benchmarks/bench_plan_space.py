"""Section 4.1 analysis — plan-space size formulas and optimizer latency.

Two ablations beyond the paper's figures:

* the closed-form search-space sizes (≈ 6^n − 5^n for plain bushy DP vs
  ≈ 2^n' + (2/3)·n'³ with Theorems 1-3) tabulated for chain queries;
* the paper's Section 5 "Efficiency" claim — optimization finishes in
  milliseconds — measured directly with pytest-benchmark on a 4-table
  real-workload join.
"""

from __future__ import annotations

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system
from repro.bench.reporting import summary_table
from repro.core.optimizer import (
    Optimizer,
    plan_space_baseline,
    plan_space_payless,
)


def test_plan_space_formulas(benchmark, report):
    def tabulate():
        return [
            [
                n,
                plan_space_baseline(n, tightened=False, enumerated=False),
                plan_space_baseline(n),
                plan_space_payless(n),
                plan_space_payless(n, zero_price=2),
            ]
            for n in range(3, 11)
        ]

    rows = benchmark(tabulate)
    report(
        "plan_space",
        summary_table(
            "Section 4.1: plan-space sizes for chain queries",
            rows,
            [
                "n",
                "bushy (≈6^n−5^n)",
                "bushy exact",
                "PayLess exact",
                "PayLess exact (m=2 free)",
            ],
        ),
    )
    for n in range(3, 11):
        assert plan_space_payless(n) < plan_space_baseline(n)


def test_optimization_latency(benchmark, profile, report):
    """Optimize (not execute) the paper's Q5 analogue repeatedly."""
    data = make_workload("real", profile)
    payless = build_system("payless", data)
    instance = next(
        q for q in make_instances("real", data, 1, profile) if q.template == "Q5"
    )
    logical = payless.compile(instance.sql, instance.params)
    optimizer = Optimizer(payless.context)

    result = benchmark(optimizer.optimize, logical)
    report(
        "efficiency",
        "Section 5 'Efficiency': optimizing the 4-table Q5 template took "
        f"mean {benchmark.stats.stats.mean * 1e3:.2f} ms "
        f"(evaluated {result.evaluated_plans} candidate plans). The paper "
        "reports optimization 'within milliseconds'.",
    )
    assert benchmark.stats.stats.mean < 0.25  # a quarter second, generously
