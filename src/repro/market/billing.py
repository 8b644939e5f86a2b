"""Billing: the ledger of every REST call and what it cost.

The ledger is the ground truth the evaluation reads: Figures 10-13 of the
paper all plot *cumulative transactions billed*, which is exactly
``ledger.total_transactions`` over time; the benchmark harness reads
the cumulative series after each user query.

Money-safety (see :mod:`repro.market.transport`) splits the bill in two:

* **spent** — charges for calls whose data was eventually delivered; this
  is what ``total_transactions`` / ``total_price`` report, so the figures
  stay comparable whether or not faults were injected;
* **wasted_on_failures** — charges for calls the market billed but whose
  response never reached the buyer (retry exhaustion after a dropped
  response, a naive retry double-billing without an idempotency key).
  The transport moves an entry here via :meth:`BillingLedger.mark_wasted`
  when it gives up on the entry's idempotency key.

A third, informational bucket — **coalesced_savings** — accumulates the
charges that singleflight coalescing (:mod:`repro.serve.singleflight`)
avoided: when an in-flight fetch is shared, the waiters' would-have-been
bills land here instead of in ``spent``.

The ledger is the seller's side of the bill, and nothing on the buyer's
side reads it back to cost a query: each call's outcome carries what
that call billed (:class:`~repro.market.transport.FetchResult`), and a
query's stats and spans are folds over its outcomes.  Entries of many
sessions interleave here freely; the test suite reconciles the folds
against these buckets (and the buyer's own :class:`BuyerBill`) as an
independent oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Any, Iterator

from repro.errors import MarketError
from repro.market.rest import RestRequest


@dataclass(frozen=True)
class LedgerEntry:
    """One billed REST call."""

    request: RestRequest
    record_count: int
    transactions: int
    price: float
    #: Simulated wall-clock of the call (see repro.market.latency).
    elapsed_ms: float = 0.0
    #: The transport's at-most-once billing key, when one was attached.
    idempotency_key: str | None = None


@dataclass(frozen=True)
class ChargeTotals:
    """An aggregate over a subset of ledger entries."""

    calls: int = 0
    transactions: int = 0
    price: float = 0.0

    def __bool__(self) -> bool:
        return self.calls > 0


@dataclass(eq=False)
class BuyerBill:
    """One installation's running bill: the ledger's three buckets, each
    as calls, transactions and price, folded one call at a time where the
    write-ahead log journals money (``Purchases._record`` spends and
    coalesces, the transport's ``fail()`` wastes) and again by recovery
    from the records it replays.  ``PayLess.total_*`` are views of it.
    """

    spent_calls: int = 0
    spent_transactions: int = 0
    spent_price: float = 0.0
    wasted_calls: int = 0
    wasted_transactions: int = 0
    wasted_price: float = 0.0
    coalesced_calls: int = 0
    coalesced_transactions: int = 0
    coalesced_price: float = 0.0

    def __post_init__(self) -> None:
        #: Serialises folds.  A durable backend appends under it too, so a
        #: fold and the WAL record it rides are one step to a snapshot.
        self.lock = threading.RLock()

    def spend(self, calls: int, transactions: int, price: float) -> None:
        """``calls`` billed calls the ledger counts as spent."""
        with self.lock:
            self.spent_calls += calls
            self.spent_transactions += transactions
            self.spent_price += price

    def waste(self, transactions: int, price: float) -> None:
        """One billed call whose data never arrived."""
        with self.lock:
            self.wasted_calls += 1
            self.wasted_transactions += transactions
            self.wasted_price += price

    def coalesce(self, transactions: int, price: float) -> None:
        """One fetch served by another session's in-flight call: the bill
        it avoided."""
        with self.lock:
            self.coalesced_calls += 1
            self.coalesced_transactions += transactions
            self.coalesced_price += price

    def to_json(self) -> dict[str, Any]:
        with self.lock:
            return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore(self, data: dict[str, Any]) -> None:
        """Set every bucket from :meth:`to_json`'s output (a snapshot)."""
        with self.lock:
            for f in fields(self):
                setattr(self, f.name, data[f.name])


class BillingLedger:
    """Append-only record of billed calls with per-dataset aggregation.

    ``record`` and ``mark_wasted`` are thread-safe: concurrent serving
    sessions, and the event loop their calls run on, all bill through
    this single ledger.
    """

    def __init__(self) -> None:
        self._entries: list[LedgerEntry] = []
        self._wasted_keys: set[str] = set()
        self._lock = threading.Lock()
        self._coalesced_calls = 0
        self._coalesced_transactions = 0
        self._coalesced_price = 0.0

    def record(
        self,
        request: RestRequest,
        record_count: int,
        transactions: int,
        price: float,
        elapsed_ms: float = 0.0,
        idempotency_key: str | None = None,
    ) -> LedgerEntry:
        entry = LedgerEntry(
            request, record_count, transactions, price, elapsed_ms, idempotency_key
        )
        with self._lock:
            self._entries.append(entry)
        return entry

    def credit_coalesced_savings(self, transactions: int, price: float) -> None:
        """Credit the savings bucket: a coalesced fetch avoided this bill."""
        with self._lock:
            self._coalesced_calls += 1
            self._coalesced_transactions += transactions
            self._coalesced_price += price

    @property
    def coalesced_savings(self) -> ChargeTotals:
        """Charges singleflight coalescing avoided (informational bucket)."""
        with self._lock:
            return ChargeTotals(
                self._coalesced_calls,
                self._coalesced_transactions,
                self._coalesced_price,
            )

    def mark_wasted(self, idempotency_key: str) -> None:
        """Reclassify the entry billed under ``idempotency_key`` as wasted.

        Called by the transport when it abandons a call whose charge went
        through but whose data never arrived: the money is gone, but it
        must not inflate the spend series the evaluation plots.
        """
        if idempotency_key is None:
            raise MarketError("cannot mark a keyless entry as wasted")
        with self._lock:
            self._wasted_keys.add(idempotency_key)

    def is_wasted(self, entry: LedgerEntry) -> bool:
        return (
            entry.idempotency_key is not None
            and entry.idempotency_key in self._wasted_keys
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[LedgerEntry]:
        return iter(self._snapshot())

    def _snapshot(self) -> list[LedgerEntry]:
        """A stable view for aggregate reads concurrent with appends."""
        with self._lock:
            return list(self._entries)

    def _totals(self, wasted: bool) -> ChargeTotals:
        calls = transactions = 0
        price = 0.0
        for entry in self._snapshot():
            if self.is_wasted(entry) is not wasted:
                continue
            calls += 1
            transactions += entry.transactions
            price += entry.price
        return ChargeTotals(calls, transactions, price)

    @property
    def spent(self) -> ChargeTotals:
        """Charges for calls whose data was (eventually) delivered."""
        return self._totals(wasted=False)

    @property
    def wasted_on_failures(self) -> ChargeTotals:
        """Charges for billed calls whose data never arrived."""
        return self._totals(wasted=True)

    @property
    def total_calls(self) -> int:
        """Every billed call, delivered or not."""
        return len(self._entries)

    @property
    def total_records(self) -> int:
        return sum(entry.record_count for entry in self._snapshot())

    @property
    def total_transactions(self) -> int:
        """Transactions *spent* (wasted charges are reported separately)."""
        return sum(
            entry.transactions
            for entry in self._snapshot()
            if not self.is_wasted(entry)
        )

    @property
    def total_price(self) -> float:
        """Money *spent* (wasted charges are reported separately)."""
        return sum(
            entry.price
            for entry in self._snapshot()
            if not self.is_wasted(entry)
        )

    @property
    def total_elapsed_ms(self) -> float:
        """Simulated wall-clock spent on billed REST calls, summed serially."""
        return sum(entry.elapsed_ms for entry in self._snapshot())

    def transactions_for_dataset(self, dataset: str) -> int:
        wanted = dataset.lower()
        return sum(
            entry.transactions
            for entry in self._snapshot()
            if entry.request.dataset.lower() == wanted
            and not self.is_wasted(entry)
        )

    def summary(self) -> str:
        """A short human-readable bill."""
        per_dataset: dict[str, tuple[int, int, float]] = {}
        for entry in self._snapshot():
            if self.is_wasted(entry):
                continue
            calls, transactions, price = per_dataset.get(
                entry.request.dataset, (0, 0, 0.0)
            )
            per_dataset[entry.request.dataset] = (
                calls + 1,
                transactions + entry.transactions,
                price + entry.price,
            )
        lines = [
            f"{name}: {calls} calls, {transactions} transactions, ${price:g}"
            for name, (calls, transactions, price) in sorted(per_dataset.items())
        ]
        lines.append(
            f"TOTAL: {self.total_calls} calls, "
            f"{self.total_transactions} transactions, ${self.total_price:g}"
        )
        wasted = self.wasted_on_failures
        if wasted:
            lines.append(
                f"WASTED on failures: {wasted.calls} calls, "
                f"{wasted.transactions} transactions, ${wasted.price:g}"
            )
        saved = self.coalesced_savings
        if saved:
            lines.append(
                f"SAVED by coalescing: {saved.calls} shared fetches, "
                f"{saved.transactions} transactions, ${saved.price:g}"
            )
        return "\n".join(lines)
