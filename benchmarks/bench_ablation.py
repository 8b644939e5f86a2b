"""Ablations beyond the paper's figures — design choices DESIGN.md calls out.

* **Histogram resolution** — the feedback histogram's refined-box budget
  trades estimation accuracy for planning speed; too coarse and the
  optimizer mis-prices remainders.
* **Batch (multi-query) ordering** — the conclusion's future-work sketch:
  executing a batch containing broad + narrow overlapping queries in
  containment order vs a worst-case narrow-first order.
* **Consistency levels** — what weak / X-week / strong cost over a session
  with periodic re-issues (the Section 4.3 trade-off, quantified).
"""

from __future__ import annotations

import pytest

from repro import ConsistencyPolicy, PayLess
from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system
from repro.bench.reporting import summary_table
from repro.serve import QueryScheduler
from repro.stats import isomer


def test_histogram_resolution(benchmark, profile, report):
    """Total spend as the histogram's refined-box budget varies."""
    data = make_workload("real", profile)
    instances = make_instances("real", data, 5, profile)

    def run_with_budget(budget):
        original = isomer.DEFAULT_MAX_BOXES
        isomer.DEFAULT_MAX_BOXES = budget
        try:
            payless = build_system("payless", data)
            for table in payless.catalog._tables.values():  # noqa: SLF001
                table.histogram.max_boxes = budget
            total = 0
            for instance in instances:
                result = payless.query(instance.sql, instance.params)
                total += result.stats.transactions
            return total
        finally:
            isomer.DEFAULT_MAX_BOXES = original

    def sweep():
        return {budget: run_with_budget(budget) for budget in (8, 64, 512)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        "ablation_histogram",
        summary_table(
            "Ablation: feedback-histogram resolution vs total spend",
            [[budget, total] for budget, total in results.items()],
            ["max refined boxes", "total transactions"],
        ),
    )
    # Coarser statistics must never *help* by more than noise: the finest
    # setting should be within 20% of the best observed.
    best = min(results.values())
    assert results[512] <= best * 1.2 + 5


def test_batch_ordering(benchmark, profile, report):
    """Containment-ordered batch vs adversarial narrow-first execution."""
    data = make_workload("real", profile)
    country = data.countries[0]
    days = data.config.days
    batch = [
        (
            "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
            (country, 1 + 7 * i, 1 + 7 * i + 6),
        )
        for i in range(6)
    ] + [
        (
            "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
            (country, 1, days),
        )
    ]

    def run():
        clever_system = build_system("payless", data)
        with QueryScheduler(clever_system) as scheduler:
            session = scheduler.session("dashboard")
            for sql, params in batch:
                session.defer(sql, params)
            scheduler.flush()
        clever = clever_system.total_transactions
        naive_system = build_system("payless", data)
        naive = sum(
            naive_system.query(sql, params).stats.transactions
            for sql, params in batch
        )
        return clever, naive

    clever, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_batch",
        summary_table(
            "Ablation: multi-query batch ordering (6 narrow + 1 broad query)",
            [["containment-ordered (PayLess batch)", clever],
             ["submission order (narrow first)", naive]],
            ["strategy", "total transactions"],
        ),
    )
    assert clever <= naive


def test_learning_curve(benchmark, profile, report):
    """The learning optimizer's premise: later queries cost less.

    Splits a session in half and compares per-query spend: the second half
    should be much cheaper — partly semantic reuse, partly better
    statistics.  Also contrasts the three pluggable statistics.
    """
    data = make_workload("real", profile)
    instances = make_instances("real", data, 8, profile)
    half = len(instances) // 2

    def run():
        from repro.market.server import DataMarket

        rows = []
        for statistic in ("isomer", "independence", "uniform"):
            market = DataMarket()
            for dataset in data.datasets:
                market.publish(dataset)
            payless = PayLess.full(
                market, local_db=data.local_database(), statistic=statistic
            )
            for dataset in data.datasets:
                payless.register_dataset(dataset.name)
            first = sum(
                payless.query(i.sql, i.params).stats.transactions
                for i in instances[:half]
            )
            second = sum(
                payless.query(i.sql, i.params).stats.transactions
                for i in instances[half:]
            )
            rows.append([statistic, first, second])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_learning",
        summary_table(
            "Ablation: per-half session spend under each statistic",
            rows,
            ["statistic", "first half", "second half"],
        ),
    )
    for __, first, second in rows:
        assert second < first  # the store + statistics must pay off


def test_consistency_cost(benchmark, profile, report):
    """Weekly re-issues under the three consistency levels."""
    data = make_workload("real", profile)
    sql = (
        "SELECT City, AVG(Temperature) FROM Station, Weather "
        "WHERE Station.Country = Weather.Country = ? "
        "AND Weather.Date >= ? AND Weather.Date <= ? "
        "AND Station.StationID = Weather.StationID GROUP BY City"
    )
    params = (data.countries[0], 1, 30)

    def run():
        totals = {}
        for label, policy in (
            ("weak", ConsistencyPolicy.weak()),
            ("2-week", ConsistencyPolicy.weeks(2)),
            ("strong", ConsistencyPolicy.strong()),
        ):
            base = build_system("payless", data)
            payless = PayLess(
                base.market, local_db=data.local_database(), consistency=policy
            )
            for dataset in data.datasets:
                payless.register_dataset(dataset.name)
            total = 0
            for __week in range(6):
                total += payless.query(sql, params).stats.transactions
                payless.store.advance_clock(1)
            totals[label] = total
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_consistency",
        summary_table(
            "Ablation: 6 weekly re-issues under each consistency level",
            [[label, total] for label, total in totals.items()],
            ["consistency", "total transactions"],
        ),
    )
    assert totals["weak"] <= totals["2-week"] <= totals["strong"]
