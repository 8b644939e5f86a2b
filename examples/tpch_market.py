"""TPC-H over a priced data market: when Download All *isn't* crazy.

The paper's TPC-H experiment (Figure 10b/c) shows the other side of the
trade-off: scan-heavy analytical queries touch big overlapping slices of
the data, so optimizers that re-buy data on every query (Minimizing Calls,
PayLess without rewriting) end up paying more than a one-off bulk
download — while full PayLess converges to the bulk-download price because
its semantic store eventually holds the whole dataset.

Run with:  python examples/tpch_market.py [instances_per_template] [--skew]
"""

import sys

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system, download_all_bound, run_session
from repro.workloads.tpch import TEMPLATES


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    q = int(args[0]) if args else 2
    workload = "tpch_skew" if "--skew" in sys.argv else "tpch"

    data = make_workload(workload)
    instances = make_instances(workload, data, q)
    bound = download_all_bound(data)
    print(
        f"Workload: {workload}, {len(TEMPLATES)} templates x {q} = "
        f"{len(instances)} queries over {data.total_market_rows()} market rows"
    )
    print(f"Download-All bound: {bound} transactions\n")

    print("One query in detail — the shipping-priority template T03:")
    payless = build_system("payless", data)
    t03 = next(i for i in instances if i.template == "T03")
    planning = payless.explain(t03.sql, t03.params)
    print(planning.plan.describe())
    result = payless.query(t03.sql, t03.params)
    print(
        f"-> {len(result.rows)} result rows, {result.stats.transactions} "
        f"transactions, {result.stats.calls} calls\n"
    )

    for label, system in (
        ("PayLess", "payless"),
        ("PayLess w/o SQR", "payless_nosqr"),
        ("Minimizing Calls", "min_calls"),
        ("Download All", "download_all"),
    ):
        session = run_session(system, data, instances)
        versus = session.total_transactions / bound
        print(
            f"{label:>17}: {session.total_transactions:>6} transactions "
            f"({versus:4.1f}x the download bound)"
        )

    print(
        "\nAs in the paper: without semantic rewriting the repeated scans "
        "cost several times the bulk download, while full PayLess stays "
        "at or below it — and nobody had to know q in advance."
    )


if __name__ == "__main__":
    main()
