"""Budget control: spending caps for a buyer organization.

Figure 2 of the paper shows the organization receiving *bills* from the
market, and Section 2.2 notes organizations should not ration their users'
queries ("that is counter-productive") — but finance still wants a ceiling.
A :class:`BudgetPolicy` enforces one *before* money is spent: the optimizer
already produces a price estimate for every plan, so a query whose
estimated cost would exceed the remaining budget is rejected up front
(``hard`` mode) or logged (``advisory`` mode) instead of surprising anyone
on the invoice.

Estimates can err, so the guard is belt-and-braces: the hard check uses
the plan estimate before execution, and the running total uses actual
billed transactions after it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.payless import PayLess, QueryResult
from repro.errors import ReproError


class BudgetExceededError(ReproError):
    """Raised in hard mode when a query's estimate would break the budget."""


class BudgetMode(enum.Enum):
    HARD = "hard"          #: reject queries whose estimate exceeds the rest
    ADVISORY = "advisory"  #: execute anyway, but record the breach


@dataclass
class BudgetPolicy:
    """A transaction budget with a mode."""

    limit_transactions: int
    mode: BudgetMode = BudgetMode.HARD

    def __post_init__(self) -> None:
        if self.limit_transactions < 0:
            raise ReproError("budget cannot be negative")


@dataclass
class BudgetReport:
    """Where the money went, for the organization's finance page."""

    limit_transactions: int
    spent_transactions: int = 0
    executed_queries: int = 0
    rejected_queries: int = 0
    advisory_breaches: int = 0

    @property
    def remaining(self) -> int:
        return max(self.limit_transactions - self.spent_transactions, 0)


class BudgetedPayLess:
    """A PayLess wrapper that enforces a :class:`BudgetPolicy`."""

    def __init__(self, payless: PayLess, policy: BudgetPolicy):
        self.payless = payless
        self.policy = policy
        self.report = BudgetReport(limit_transactions=policy.limit_transactions)

    def query(self, sql: str, params: Sequence[Any] = ()) -> QueryResult:
        payless = self.payless
        with payless.tracer.query_scope(sql):
            # Planned once, through the installation's plan cache; the
            # plan the estimate was read off is the plan executed.
            planning, logical = payless._plan(
                payless.plan_cache.parse_sql(sql), params
            )
            estimate = planning.cost
            if (
                self.policy.mode is BudgetMode.HARD
                and estimate > self.report.remaining
            ):
                self.report.rejected_queries += 1
                raise BudgetExceededError(
                    f"estimated {estimate:.0f} transactions exceeds the "
                    f"remaining budget of {self.report.remaining}"
                )
            if estimate > self.report.remaining:
                self.report.advisory_breaches += 1
            result = payless._execute(planning, logical)
        self.report.spent_transactions += result.stats.transactions
        self.report.executed_queries += 1
        return result
