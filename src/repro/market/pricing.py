"""Transaction pricing — Equation (1) of the paper.

A *transaction* is a page of ``t`` tuples and the smallest pricing unit.
A RESTful call returning ``n`` records costs ``ceil(n / t)`` transactions,
each priced at ``p``.  The paper's running defaults are ``p = $1`` and
``t = 100``.

:class:`PricingPolicy` is the one place rows become transactions and
dollars: the seller bills each call with its dataset's policy, and the
buyer's rewriter and optimizer price their estimated calls with the same
instance (``PlanningContext.pricing``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import MarketError

DEFAULT_TUPLES_PER_TRANSACTION = 100
DEFAULT_PRICE_PER_TRANSACTION = 1.0


@dataclass(frozen=True)
class PricingPolicy:
    """Per-dataset pricing: ``price_per_transaction`` and page size ``t``."""

    tuples_per_transaction: int = DEFAULT_TUPLES_PER_TRANSACTION
    price_per_transaction: float = DEFAULT_PRICE_PER_TRANSACTION

    def __post_init__(self) -> None:
        # The planner compares these prices: a NaN would make every
        # comparison false, a fractional page bill fractional pages.
        page, price = self.tuples_per_transaction, self.price_per_transaction
        if isinstance(page, bool) or not isinstance(page, int) or page <= 0:
            raise MarketError(
                f"tuples_per_transaction must be a positive int, got {page!r}"
            )
        if isinstance(price, bool) or not isinstance(price, (int, float)) or (
            not 0 <= price < math.inf  # False for NaN
        ):
            raise MarketError(
                f"price_per_transaction must be finite and >= 0, got {price!r}"
            )

    def transactions_for(self, record_count: float) -> int:
        """Transactions billed for a call returning ``record_count``
        records; an estimated (fractional) count rounds up the same way."""
        if record_count < 0:
            raise MarketError("record count cannot be negative")
        return math.ceil(record_count / self.tuples_per_transaction)

    def price_for(self, record_count: float) -> float:
        """Money billed for a call returning ``record_count`` records."""
        return self.transactions_for(record_count) * self.price_per_transaction
