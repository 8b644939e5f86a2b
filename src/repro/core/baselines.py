"""The evaluation's competitor systems (Section 5).

* **Minimizing Calls** — an optimizer in the style of limited-access-pattern
  query planners [Florescu et al., SIGMOD'99]: the same planner under
  :class:`PerCallPricing`, so it minimises *REST calls*, without semantic
  rewriting.  It happily downloads a broad superset in one call where
  PayLess would pay per-page for less data.
* **Download All** — fetch each touched table in its entirety the first time
  any query needs it, then answer every query locally, free, forever.
  Optimal in hindsight for scan-heavy workloads; ruinous when the user asks
  three queries and walks away.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.context import PlanningContext
from repro.errors import ExecutionError
from repro.market.pricing import PricingPolicy
from repro.market.server import DataMarket
from repro.relational.database import Database
from repro.relational.engine import evaluate
from repro.relational.operators import Relation
from repro.relational.query import LogicalQuery
from repro.relational.table import Table


@dataclass(frozen=True)
class PerCallPricing(PricingPolicy):
    """One unit per REST call, whatever it returns; transactions stay the
    seller's pages, so plan latency is estimated as before."""

    @classmethod
    def of(cls, published: PricingPolicy) -> "PerCallPricing":
        return cls(published.tuples_per_transaction)

    def price_for(self, record_count: float) -> float:
        return 1.0


@dataclass
class DownloadAllResult:
    """What one Download-All query returned and what it cost."""

    relation: Relation
    transactions: int
    price: float
    calls: int
    fetched_records: int
    #: Simulated wall-clock spent on REST calls (serial sum).
    market_time_ms: float = 0.0
    #: Download-All issues one whole-table call per first touch — there is
    #: nothing to overlap, so the critical path equals the serial sum.
    market_time_critical_path_ms: float = 0.0


class DownloadAllStrategy:
    """Download whole tables on first touch; afterwards everything is local."""

    def __init__(self, context: PlanningContext):
        self.context = context
        self._downloaded = Database()

    @property
    def downloaded_tables(self) -> list[str]:
        return self._downloaded.names()

    def upfront_cost(self, tables: list[str]) -> int:
        """Transactions needed to download ``tables`` whole (for reporting)."""
        total = 0
        for name in tables:
            dataset, market_table = self.context.market.find_table(name)
            total += dataset.pricing.transactions_for(len(market_table.table))
        return total

    def execute(self, query: LogicalQuery) -> DownloadAllResult:
        ledger = self.context.market.ledger
        transactions_before = ledger.total_transactions
        price_before = ledger.total_price
        calls_before = ledger.total_calls
        records_before = ledger.total_records
        elapsed_before = ledger.total_elapsed_ms

        staging = Database()
        for name in query.tables:
            if self.context.is_market(name):
                staging.add(self._ensure_downloaded(name))
            else:
                staging.add(self.context.local_db.table(name))
        relation = evaluate(staging, query)
        return DownloadAllResult(
            relation=relation,
            transactions=ledger.total_transactions - transactions_before,
            price=ledger.total_price - price_before,
            calls=ledger.total_calls - calls_before,
            fetched_records=ledger.total_records - records_before,
            market_time_ms=ledger.total_elapsed_ms - elapsed_before,
            market_time_critical_path_ms=(
                ledger.total_elapsed_ms - elapsed_before
            ),
        )

    def _ensure_downloaded(self, name: str) -> Table:
        if name in self._downloaded:
            return self._downloaded.table(name)
        response = self.context.market.download_table(name)
        table = Table(name, response.schema)
        table.extend(response.rows)
        return self._downloaded.add(table)
