"""Watching the optimizer think: plans, theorems, and learning.

Walks through the optimizer's behaviour on the mini weather market:

1. the P1-vs-P2 choice (direct fetch vs bind join) and how it flips with
   the data distribution;
2. Theorem 2 in action — after a table is cached, it migrates into the
   zero-price block and the search space shrinks;
3. the search-space counters behind the paper's Figure 14.

Run with:  python examples/plan_exploration.py
"""

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system


def main() -> None:
    data = make_workload("real")
    payless = build_system("payless", data)
    country = data.countries[0]

    sql = (
        "SELECT Temperature FROM Station, Weather "
        "WHERE City = ? AND Station.Country = ? AND Weather.Country = ? "
        "AND Date >= 1 AND Date <= 30 "
        "AND Station.StationID = Weather.StationID"
    )
    # A city hosting few stations: the bind join should win.
    rare_city = min(
        data.cities[country],
        key=lambda c: sum(
            1 for row in data.station_rows if row[0] == country and row[2] == c
        ),
    )
    params = (rare_city, country, country)

    print("=== 1. Plan choice on a cold store ===")
    planning = payless.explain(sql, params)
    print(planning.plan.describe())
    print(f"estimated price: ${planning.cost:g}; "
          f"candidate plans evaluated: {planning.evaluated_plans}\n")

    print("=== 2. Theorem 2: caching Station makes it zero-price ===")
    payless.query("SELECT * FROM Station")
    planning_cached = payless.explain(sql, params)
    print(planning_cached.plan.describe())
    print(
        f"candidate plans evaluated: {planning_cached.evaluated_plans} "
        f"(was {planning.evaluated_plans})\n"
    )

    print("=== 3. Search-space counters, per Figure 14 arm ===")
    q5 = next(
        i for i in make_instances("real", data, 1) if i.template == "Q5"
    )
    # Each arm is its own installation; each buys Station first, as above,
    # but only the one with SQR may reuse it.
    for label, system in (
        ("PayLess (Theorems + SQR)", "payless"),
        ("Disable SQR", "payless_nosqr"),
        ("Disable All (bushy)", "payless_disable_all"),
    ):
        arm = build_system(system, data)
        arm.query("SELECT * FROM Station")
        result = arm.explain(q5.sql, q5.params)
        print(
            f"{label:>26}: {result.evaluated_plans:>5} candidate plans, "
            f"best cost ${result.cost:g}"
        )

    print(
        "\nThe bushy enumeration explores an order of magnitude more plans "
        "for the same best cost — Theorem 1's guarantee that left-deep "
        "search loses nothing, visualized."
    )


if __name__ == "__main__":
    main()
