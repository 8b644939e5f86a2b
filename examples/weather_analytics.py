"""A meteorological analytics session over the data market.

Replays the paper's real-data workload (the five Table 1 templates over the
WHW + EHR datasets plus the local ZipMap table) through four buyer
strategies, prints the Figure 10a-style cumulative-spend comparison and,
per table, PayLess's spend beside the whole-table price.

Run with:  python examples/weather_analytics.py [instances_per_template]
"""

import sys

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import download_all_bound, run_session
from repro.bench.reporting import series_table
from repro.workloads.weather import TEMPLATES


def main() -> None:
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 8

    data = make_workload("real")
    instances = make_instances("real", data, q)
    print(
        f"Workload: {len(TEMPLATES)} templates x {q} instances = "
        f"{len(instances)} queries over {data.total_market_rows()} market rows"
    )
    print(f"Downloading everything upfront would cost "
          f"{download_all_bound(data)} transactions.\n")

    systems = {
        "PayLess": "payless",
        "PayLess w/o SQR": "payless_nosqr",
        "Minimizing Calls": "min_calls",
        "Download All": "download_all",
    }
    sessions = {}
    for label, system in systems.items():
        sessions[label] = run_session(system, data, instances)
        print(
            f"{label:>17}: {sessions[label].total_transactions:>6} transactions, "
            f"{sessions[label].total_calls:>5} REST calls"
        )

    print()
    print(
        series_table(
            "Cumulative transactions (compare with the paper's Figure 10a)",
            {
                label: session.cumulative_transactions
                for label, session in sessions.items()
            },
        )
    )

    payless = sessions["PayLess"].total_transactions
    download = sessions["Download All"].total_transactions
    print(
        f"\nPayLess answered the whole session for {payless} transactions — "
        f"{download / max(payless, 1):.1f}x cheaper than downloading the "
        "datasets outright, without ever needing to guess how many queries "
        "the analysts would issue."
    )

    # Rent or buy, per table: what PayLess spent beside the whole table's
    # price.  A table whose spend would pass its price is bought whole.
    metrics = sessions["PayLess"].metrics
    print("\nPer-table spend vs the whole-table price (PayLess):")
    for key in sorted(metrics):
        if key.endswith(".dollars_spent"):
            table = key.removesuffix(".dollars_spent")
            print(
                f"{table:>12}: ${metrics[key]:g} spent, whole table "
                f"${metrics[table + '.whole_table_dollars']:g} "
                f"({metrics[table + '.spent_over_whole']:.2f}x)"
            )


if __name__ == "__main__":
    main()
