"""The data-market server: dataset registry + GET execution + metering.

This is the cloud side of the paper's setting (Figure 2).  Buyers interact
with it only through :meth:`DataMarket.get` — the simulator enforces exactly
the restrictions of the real marketplace interface:

* binding patterns are checked on every call (bound attributes must be
  constrained; output attributes may not be);
* range constraints are allowed only on numeric attributes;
* there are no joins, no disjunctions, no aggregation server-side;
* every call is billed ``ceil(records / t)`` transactions via the dataset's
  pricing policy and recorded in a :class:`BillingLedger`.
"""

from __future__ import annotations

import threading
import time
from typing import Iterator

from repro.errors import MarketError
from repro.market.billing import BillingLedger
from repro.market.dataset import BasicStatistics, Dataset, MarketTable
from repro.market.rest import RestRequest, RestResponse
from repro.relational.query import AttributeConstraint


class DataMarket:
    """A simulated cloud data market hosting multiple priced datasets."""

    def __init__(self, latency: "LatencyModel | None" = None) -> None:
        from repro.market.latency import INSTANT

        self._datasets: dict[str, Dataset] = {}
        self.ledger = BillingLedger()
        #: Simulated call latency (INSTANT by default; pass a
        #: :class:`~repro.market.latency.LatencyModel` for realism).
        self.latency = latency if latency is not None else INSTANT
        #: Server-side idempotency cache: key -> the response already billed
        #: under that key.  A retried call carrying the same key replays the
        #: stored response without billing again (at-most-once billing).
        #: Unbounded by design — the simulator never runs long enough for
        #: this to matter; a real gateway would expire keys after ~24h.
        self._idempotency: dict[str, RestResponse] = {}
        self._idempotency_lock = threading.Lock()
        #: How many calls were answered from the idempotency cache (free).
        self.replay_count = 0

    # -- registry ------------------------------------------------------------

    def publish(self, dataset: Dataset) -> Dataset:
        """Make ``dataset`` available for purchase."""
        key = dataset.name.lower()
        if key in self._datasets:
            raise MarketError(f"dataset {dataset.name!r} already published")
        self._datasets[key] = dataset
        return dataset

    def dataset(self, name: str) -> Dataset:
        try:
            return self._datasets[name.lower()]
        except KeyError:
            raise MarketError(f"unknown dataset {name!r}") from None

    def __iter__(self) -> Iterator[Dataset]:
        return iter(self._datasets.values())

    def find_table(self, table_name: str) -> tuple[Dataset, MarketTable]:
        """Locate a table by name across all datasets."""
        for dataset in self._datasets.values():
            if table_name in dataset:
                return dataset, dataset.table(table_name)
        raise MarketError(f"no dataset offers table {table_name!r}")

    def basic_statistics(self, table_name: str) -> BasicStatistics:
        """The publicly tagged stats of a table (what buyers can see free)."""
        __, market_table = self.find_table(table_name)
        return market_table.basic_statistics()

    # -- the RESTful interface --------------------------------------------------

    def get(
        self,
        request: RestRequest,
        *,
        idempotency_key: str | None = None,
        sleep: bool = True,
    ) -> RestResponse:
        """Execute one GET call, bill it, and return the matching records.

        When ``idempotency_key`` is given and a call was already billed
        under it, the stored response is replayed **without billing** —
        this is the server half of at-most-once billing: a client that
        never saw the response (it timed out in transit) can retry with the
        same key and not pay twice.

        ``sleep=False`` skips the realtime ``time.sleep`` while keeping
        billing and accounting identical — the async transport issues the
        call without blocking its event-loop executor and awaits an
        ``asyncio.sleep`` of the same duration instead, so the modelled
        wall-clock is paid cooperatively rather than thread-blockingly.

        Thread-safe: calls are read-only against published data (each
        table's per-attribute indexes are built on a call's first use of the
        attribute, under the table's lock) and billing appends under the
        ledger's lock, so the executor may issue independent calls
        concurrently.  ``publish``/``append`` are not meant to race with
        in-flight GETs, mirroring a real market's release windows.
        """
        if idempotency_key is not None:
            with self._idempotency_lock:
                cached = self._idempotency.get(idempotency_key)
                if cached is not None:
                    self.replay_count += 1
                    return cached
        dataset = self.dataset(request.dataset)
        if request.table not in dataset:
            raise MarketError(
                f"dataset {dataset.name!r} has no table {request.table!r}"
            )
        market_table = dataset.table(request.table)
        self._validate(request, market_table)

        rows = tuple(market_table.rows_matching(request))
        transactions = dataset.pricing.transactions_for(len(rows))
        price = dataset.pricing.price_for(len(rows))
        elapsed_ms = self.latency.call_ms(transactions)
        if self.latency.realtime_scale and sleep:
            # Real-time mode: block the calling thread for (a scaled-down
            # slice of) the modelled latency, so concurrent serving has a
            # genuine wait to overlap and coalesce.  Replays above stay
            # instant, mirroring a gateway cache hit.
            time.sleep(elapsed_ms * self.latency.realtime_scale / 1000.0)
        self.ledger.record(
            request,
            len(rows),
            transactions,
            price,
            elapsed_ms=elapsed_ms,
            idempotency_key=idempotency_key,
        )
        response = RestResponse(
            request=request,
            rows=rows,
            schema=market_table.schema,
            transactions=transactions,
            price=price,
            elapsed_ms=elapsed_ms,
        )
        if idempotency_key is not None:
            with self._idempotency_lock:
                self._idempotency[idempotency_key] = response
        return response

    @staticmethod
    def _validate(request: RestRequest, market_table: MarketTable) -> None:
        for constraint in request.constraints:
            if constraint.attribute not in market_table.schema:
                raise MarketError(
                    f"{market_table.name}: unknown attribute "
                    f"{constraint.attribute!r}"
                )
        market_table.pattern.validate_constrained(
            request.constrained_attributes
        )
        for constraint in request.constraints:
            attribute = market_table.schema.attribute(constraint.attribute)
            if constraint.is_range and not attribute.type.is_numeric:
                raise MarketError(
                    f"{market_table.name}: range constraint on categorical "
                    f"attribute {constraint.attribute!r}"
                )
