"""Consistency levels: freshness vs money (Section 4.3 of the paper).

The paper sketches three reuse policies for the semantic store — weak
(reuse forever), X-week (reuse recent results), strong (never reuse).
This example runs the same query repeatedly while the logical clock
advances a week between queries, and prints what each policy pays.

Run with:  python examples/consistency_levels.py
"""

from repro import ConsistencyPolicy, PayLess
from repro.bench.figures import make_workload
from repro.bench.harness import build_system


def run(policy_label: str, policy: ConsistencyPolicy | None, data, weeks: int):
    market_less = build_system("payless", data)  # for registrations only
    payless = PayLess(
        market_less.market, local_db=data.local_database(), consistency=policy
    )
    for dataset in data.datasets:
        payless.register_dataset(dataset.name)

    sql = (
        "SELECT City, AVG(Temperature) FROM Station, Weather "
        "WHERE Station.Country = Weather.Country = ? "
        "AND Weather.Date >= ? AND Weather.Date <= ? "
        "AND Station.StationID = Weather.StationID GROUP BY City"
    )
    params = (data.countries[0], 10, 40)

    costs = []
    for __ in range(weeks):
        result = payless.query(sql, params)
        costs.append(result.stats.transactions)
        payless.store.advance_clock(1)  # one week passes
    return costs


def main() -> None:
    data = make_workload("real")
    weeks = 6

    print(
        "The same weekly report query, re-run for "
        f"{weeks} consecutive weeks (transactions billed per week):\n"
    )
    for label, policy in (
        ("weak (reuse forever)", ConsistencyPolicy.weak()),
        ("2-week consistency", ConsistencyPolicy.weeks(2)),
        ("strong (always fresh)", ConsistencyPolicy.strong()),
    ):
        costs = run(label, policy, data, weeks)
        print(f"{label:>22}: {costs}   total = {sum(costs)}")

    print(
        "\nWeak consistency pays once; strong re-buys every week; X-week "
        "sits in between — exactly the freshness/price trade-off the paper "
        "describes. (The simulated datasets are append-only, so weak "
        "consistency is actually exact here.)"
    )


if __name__ == "__main__":
    main()
