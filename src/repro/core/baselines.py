"""The evaluation's competitor systems (Section 5).

* **Minimizing Calls** — an optimizer in the style of limited-access-pattern
  query planners [Florescu et al., SIGMOD'99]: the same planner under
  :class:`PerCallPricing`, so it minimises *REST calls*, without semantic
  rewriting.  It happily downloads a broad superset in one call where
  PayLess would pay per-page for less data.
* **Download All** — fetch each touched table in its entirety the first time
  any query needs it, then answer every query locally, free, forever.
  Optimal in hindsight for scan-heavy workloads; ruinous when the user asks
  three queries and walks away.  It is PayLess's rent-or-buy rule with a
  buy threshold of 0 (:meth:`~repro.core.payless.PayLess.download_all`),
  so it needs no code of its own here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.market.pricing import PricingPolicy


@dataclass(frozen=True)
class PerCallPricing(PricingPolicy):
    """One unit per REST call, whatever it returns; transactions stay the
    seller's pages, so plan latency is estimated as before."""

    @classmethod
    def of(cls, published: PricingPolicy) -> "PerCallPricing":
        return cls(published.tuples_per_transaction)

    def price_for(self, record_count: float) -> float:
        return 1.0
