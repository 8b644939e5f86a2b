"""An organization in production: many users, budgets, and the invoice.

Puts the deployment-facing features together on the weather market:

* a :class:`QueryScheduler` shares one PayLess install between analysts,
  so one user's purchases make a colleague's overlapping queries free;
* deferred queries flush as a containment-ordered batch;
* a session opened with a :class:`BudgetPolicy` has a query whose estimate
  would blow the monthly cap rejected *before* any money moves;
* the :class:`Subscription` plan converts raw transactions into the
  marketplace invoice (the paper's "$12 per 100 transactions" example).

Run with:  python examples/organization_budget.py
"""

from repro.bench.figures import make_workload
from repro.bench.harness import build_system
from repro.core.budget import BudgetExceededError, BudgetPolicy
from repro.market.subscription import Subscription
from repro.serve import QueryScheduler


def main() -> None:
    data = make_workload("real")
    payless = build_system("payless", data)
    country = data.countries[0]

    print("=== A two-analyst organization ===")
    with QueryScheduler(payless) as desk:
        alice = desk.session("alice")
        bob = desk.session("bob")

        alice.query(
            "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
            (country, 1, 60),
        )
        result = bob.query(
            "SELECT AVG(Temperature) FROM Weather "
            "WHERE Country = ? AND Date >= ? AND Date <= ?",
            (country, 10, 40),
        )
        print(
            f"Bob's overlapping query cost: {result.stats.transactions} "
            "transactions"
        )
        print(desk.spend_report())

        print("\n=== Deferred batch ===")
        narrow = alice.defer(
            "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?",
            (data.countries[1], 5, 11),
        )
        broad = bob.defer(
            "SELECT * FROM Weather WHERE Country = ?", (data.countries[1],)
        )
        desk.flush()
        print(
            f"broad query paid {broad.result().stats.transactions}, narrow "
            f"rode free ({narrow.result().stats.transactions})"
        )

    print("\n=== Budget enforcement ===")
    fresh = build_system("payless", data)
    with QueryScheduler(fresh) as desk:
        intern = desk.session("intern", budget=BudgetPolicy(limit_dollars=50))
        try:
            intern.query("SELECT * FROM Weather")  # whole table ≫ $50
        except BudgetExceededError as error:
            print(f"rejected up front: {error}")
        small = intern.query(
            "SELECT * FROM Weather WHERE Country = ? AND Date <= 10", (country,)
        )
        print(
            f"small query allowed: ${small.stats.price:g}, "
            f"${intern.remaining:g} remaining"
        )
        print(desk.spend_report())

    print("\n=== The marketplace invoice ===")
    plan = Subscription(transactions_per_block=100, block_price=12.0)
    spent = payless.total_transactions
    print(
        f"organization used {spent} transactions -> "
        f"{plan.blocks_for(spent)} blocks of 100 -> "
        f"${plan.invoice(spent):.2f} "
        f"({plan.utilization(spent):.0%} of the quota used)"
    )


if __name__ == "__main__":
    main()
