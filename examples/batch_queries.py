"""Multi-query optimization: deferring queries into a batch saves money.

The paper's conclusion sketches multi-query optimization as future work —
"if users are willing to defer theirs to become a batch".  This example
shows the payoff: a dashboard that issues six weekly slices plus one
quarterly overview.  Executed as they arrive (narrow first), every slice
buys its own fragments; deferred on the serving scheduler and flushed as a
batch, PayLess runs the containing query first and the slices ride free.

Run with:  python examples/batch_queries.py
"""

from repro.bench.figures import make_workload
from repro.bench.harness import build_system
from repro.serve import QueryScheduler


def main() -> None:
    data = make_workload("real")
    country = data.countries[0]

    weekly = [
        (
            "SELECT * FROM Weather WHERE Country = ? "
            "AND Date >= ? AND Date <= ?",
            (country, 1 + 7 * week, 7 + 7 * week),
        )
        for week in range(6)
    ]
    quarterly = (
        "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
        (country, 1, data.config.days),
    )
    batch = weekly + [quarterly]

    print("Submission order (what an interactive session would pay):")
    interactive = build_system("payless", data)
    naive_total = 0
    for sql, params in batch:
        cost = interactive.query(sql, params).stats.transactions
        naive_total += cost
        print(f"  {params!s:>24} -> {cost:3d} transactions")
    print(f"  total: {naive_total}\n")

    print("Batched (PayLess reorders by containment):")
    batched = build_system("payless", data)
    with QueryScheduler(batched) as scheduler:
        dashboard = scheduler.session("dashboard")
        deferred = [dashboard.defer(sql, params) for sql, params in batch]
        executed = scheduler.flush()
    print(f"  execution order: {[deferred.index(t) for t in executed]}")
    for ticket in deferred:
        cost = ticket.result().stats.transactions
        print(f"  {ticket.params!s:>24} -> {cost:3d} transactions")
    print(f"  total: {dashboard.transactions}")

    saved = naive_total - dashboard.transactions
    print(
        f"\nBatching saved {saved} transactions "
        f"({saved / max(naive_total, 1):.0%}) — the quarterly query ran "
        "first, so every weekly slice was already in the semantic store."
    )


if __name__ == "__main__":
    main()
