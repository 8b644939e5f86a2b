"""Budget control: spending caps for the sessions of a buyer organization.

Figure 2 of the paper shows the organization receiving *bills* from the
market, and Section 2.2 notes organizations should not ration their users'
queries ("that is counter-productive") — but finance still wants a ceiling.
A :class:`BudgetPolicy` on a serving session
(``scheduler.session(name, budget=...)``) enforces one *before* money is
spent: the optimizer already produces a price estimate for every plan, so a
query whose estimated cost would exceed the remaining budget is rejected up
front (``hard`` mode) or logged (``advisory`` mode) instead of surprising
anyone on the invoice.

Estimates can err, so the guard is belt-and-braces: the check uses the plan
estimate before execution, and the running total uses actual billed
dollars after it (``QueryScheduler._reserve``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ReproError


class BudgetExceededError(ReproError):
    """Raised in hard mode when a query's estimate would break the budget."""


class BudgetMode(enum.Enum):
    HARD = "hard"          #: reject queries whose estimate exceeds the rest
    ADVISORY = "advisory"  #: execute anyway, but record the breach


@dataclass
class BudgetPolicy:
    """A dollar budget with a mode."""

    limit_dollars: float
    mode: BudgetMode = BudgetMode.HARD

    def __post_init__(self) -> None:
        if not self.limit_dollars >= 0:  # NaN would admit every estimate
            raise ReproError("budget cannot be negative")
