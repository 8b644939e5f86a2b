"""Buying one table access: Figure 3, steps 5.1-5.4.

The plan walk (:mod:`repro.core.executor`) buys every market access in
the same three steps of :class:`Purchases`:

* :meth:`~Purchases.start` rewrites the access against the store *now*
  and starts one call machine per remainder box.  The market's latency
  model picks the driver, once per query: when calls really wait
  (``LatencyModel.realtime_scale > 0``) the machines are coroutines
  pipelined on the event loop of :mod:`repro.market.aio`; when nothing can
  wait they are driven inline, in request order, on the calling thread,
  and the access starts already resolved.  Either way it is one
  :class:`StartedAccess`.  A prefetch is nothing but an early start.
* :meth:`~Purchases.finish` adopts the calls' spans, charges their time,
  records the completed purchases into the store, the statistics, the bill
  and the durability log serially in remainder order — so coverage,
  histograms and the bill are identical whichever driver ran — retires the
  singleflights the access led, and assembles the request boxes' rows, in
  one hold of the table lock.
* :meth:`~Purchases.drain` settles the accesses a failed query started but
  never finished: billed money always buys coverage.

Each remainder call is one sans-IO generator
(:meth:`Purchases._call_machine`) holding the whole per-call protocol —
under concurrent serving, the singleflight leader/follower sharing whose
money invariant is that no waiter is ever served rows the market did not
bill — and a driver only answers its ``fetch`` / ``wait`` effects.  Each
outcome carries its own call's bill, and what calls cost is one fold over
them, :meth:`CallAccount.of`: a ``market_call`` span is the fold of one
outcome, a ``table_fetch`` span of its access's, the query's
:class:`~repro.core.executor.QueryStats` of the query's.  Wall-clock is
reported both ways: ``market_time_ms`` (serial sum) and
``market_time_critical_path_ms`` (each access's calls over the seller
pool's ``DEFAULT_POOL_SIZE`` lanes).

All calls go through the money-safe transport
(:mod:`repro.market.transport`): transient faults are retried with backoff
under at-most-once billing.  A call that still fails records nothing — a
failed box must never enter the coverage index, or a future query would
skip buying data the store does not have — and its access raises
:class:`~repro.errors.MarketUnavailableError` unless the transport's
``partial_results`` mode returns the rows that did arrive.
"""

from __future__ import annotations

import asyncio
import heapq
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ExecutionError, MarketUnavailableError, TransportError
from repro.market.aio import DEFAULT_POOL_SIZE
from repro.market.rest import RestRequest
from repro.market.transport import FetchResult
from repro.obs.trace import Span
from repro.relational.expressions import RowLayout
from repro.relational.relation import Relation


@dataclass(frozen=True)
class FailedFetch:
    """One remainder region the transport could not buy."""

    table: str
    request: RestRequest
    error: TransportError

    def __repr__(self) -> str:
        return f"FailedFetch({self.request.url()}: {self.error})"


@dataclass(frozen=True)
class CoveredSkip:
    """A remainder box found already covered at issue time.

    Only possible under concurrent serving: another session recorded the
    box between this query's rewrite and its fetch.  Nothing is billed
    and nothing needs recording — the rows are read from the store like
    any other cache hit.
    """

    request: RestRequest

    def __repr__(self) -> str:
        return f"CoveredSkip({self.request.url()})"


@dataclass
class CallAccount:
    """What a sequence of remainder calls cost and went through.

    The one fold over call outcomes (:class:`FetchResult`,
    :class:`FailedFetch`, :class:`CoveredSkip`).  ``QueryStats`` is this
    account with the query's other counts added, so a span set from
    :meth:`attrs` and the query's stats agree by construction.
    """

    #: Billed REST calls (ledger entries) and the records they returned.
    calls: int = 0
    records: int = 0
    #: Everything billed, and the part of it wasted on calls whose data
    #: never arrived; what was *spent* is the difference.
    billed_transactions: int = 0
    billed_price: float = 0.0
    wasted_transactions: int = 0
    wasted_price: float = 0.0
    retries: int = 0
    faults_injected: int = 0
    #: Responses served from the market's idempotency cache for free.
    replays: int = 0
    failed_calls: int = 0
    #: Singleflight coalescing under concurrent serving (see
    #: :mod:`repro.serve`): fetches answered by joining another session's
    #: in-flight call, the bill those avoided, and remainder boxes found
    #: already covered at issue time.  All zero outside a scheduler.
    coalesced_fetches: int = 0
    coalesced_savings_transactions: int = 0
    coalesced_savings_price: float = 0.0
    covered_skips: int = 0

    @classmethod
    def of(cls, outcomes, **fields) -> "CallAccount":
        """The fold of ``outcomes``; ``fields`` set what is not theirs."""
        account = cls(**fields)
        for outcome in outcomes:
            if isinstance(outcome, CoveredSkip):
                account.covered_skips += 1
                continue
            if isinstance(outcome, FailedFetch):
                bill = outcome.error
                account.failed_calls += 1
                account.wasted_transactions += bill.wasted_transactions
                account.wasted_price += bill.wasted_price
            else:
                bill = outcome
                if outcome.coalesced:
                    account.coalesced_fetches += 1
                    account.coalesced_savings_transactions += (
                        outcome.saved_transactions
                    )
                    account.coalesced_savings_price += outcome.saved_price
            account.calls += bill.billed_calls
            account.records += bill.billed_records
            account.billed_transactions += bill.billed_transactions
            account.billed_price += bill.billed_price
            account.retries += bill.retries
            account.faults_injected += bill.faults
            account.replays += bill.replays
        return account

    @property
    def transactions(self) -> int:
        """Transactions spent: billed minus wasted."""
        return self.billed_transactions - self.wasted_transactions

    @property
    def price(self) -> float:
        return self.billed_price - self.wasted_price

    def attrs(self) -> dict:
        """The account as span attributes, spent money included."""
        return {
            **vars(self),
            "transactions": self.transactions,
            "price": self.price,
        }


def _makespan(durations_ms: Sequence[float], workers: int) -> float:
    """List-scheduling makespan of ``durations_ms`` over ``workers`` lanes.

    In-order greedy assignment, as a pool hands out its connections; with
    one lane it degenerates to the serial sum.
    """
    if not durations_ms:
        return 0.0
    lanes = min(workers, len(durations_ms))
    if lanes <= 1:
        return float(sum(durations_ms))
    heap = [0.0] * lanes
    for duration in durations_ms:
        heapq.heapreplace(heap, heap[0] + duration)
    return max(heap)


@dataclass
class _CallBatch:
    """What the call machines of one table access share.

    Both drivers run an access's machines on one thread (the caller's, or
    the event loop's), so nothing here needs a lock.
    """

    table: str
    #: The installation's singleflight group and the table's store it
    #: re-checks coverage in; both None outside concurrent serving.
    coalescer: object
    table_store: object
    #: Singleflights this access led, retired once their rows are recorded.
    lead_flights: list = field(default_factory=list)


@dataclass
class StartedAccess:
    """One table access whose remainder calls are started.

    ``calls`` is a future of ``(results, lead_flights)``: the calls'
    ``(outcome, market_call span or None)`` pairs in request order, and
    the singleflights the access led.
    """

    table: str
    rewrite: object
    calls: Future | _Resolved


class _Resolved:
    """The future of an access driven inline, resolved as it is made,
    without the lock a :class:`Future` takes on every access."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class Purchases:
    """The purchases of one query: the transport scope its calls share,
    the outcomes of every call it settled, and their simulated time."""

    def __init__(self, context, scope):
        self.context = context
        self.scope = scope
        #: The fetch driver, picked by the market's latency model as the
        #: query starts: the event loop when calls really wait, inline
        #: (``None``) when nothing can wait — no thread and no loop hop.
        self.aio = (
            context.async_transport
            if context.market.latency.realtime_scale > 0
            else None
        )
        self.outcomes: list = []
        self.serial_ms = 0.0
        self.critical_path_ms = 0.0

    def start(self, table: str, constraints) -> StartedAccess:
        """Rewrite one access and start its remainder calls."""
        rewrite = self._rewrite(table, constraints)
        dataset = self.context.dataset_of(table)
        coalescer = self.context.coalescer
        batch = _CallBatch(
            table=table,
            coalescer=coalescer,
            table_store=(
                self.context.store.table(table) if coalescer is not None else None
            ),
        )
        machines = [
            self._call_machine(
                batch,
                remainder.box,
                RestRequest(dataset, table, remainder.constraints),
            )
            for remainder in rewrite.remainder
        ]
        if self.aio is None or not machines:
            # Nothing waits (or nothing to buy): run every call now, on
            # this thread, in request order.
            calls = _Resolved(
                ([self._drive(machine) for machine in machines], batch.lead_flights)
            )
        else:
            calls = self.aio.submit(self._drive_all(machines, batch.lead_flights))
        return StartedAccess(table=table, rewrite=rewrite, calls=calls)

    def finish(self, access: StartedAccess, span) -> Relation:
        """Wait for ``access``'s calls, buy what they returned, and return
        the request boxes' rows as the store now holds them."""
        outcomes, lead_flights = self._settle(access.calls.result(), span)
        table, rewrite = access.table, access.rewrite
        store = self.context.store
        # One lock hold: recording, retiring led flights and assembling
        # the rows are one atomic switch-over from any other session's view.
        with store.table(table).lock:
            purchased_rows = self._record(
                table, rewrite.remainder, outcomes, lead_flights
            )
            columns, row_count = store.columns_in_boxes(
                table, rewrite.request_boxes
            )
        if span is not None:
            span.set(
                **CallAccount.of(outcomes).attrs(),
                purchased_rows=purchased_rows,
                cache_served_rows=max(0, row_count - purchased_rows),
                estimated_transactions=rewrite.estimated_transactions,
                fully_covered=rewrite.fully_covered,
                whole_table=rewrite.whole_table is not None,
            )
        failed = [o for o in outcomes if isinstance(o, FailedFetch)]
        if failed and not self.context.transport.config.partial_results:
            raise MarketUnavailableError(
                f"{len(failed)} of {len(outcomes)} market calls for "
                f"{table!r} failed: "
                + "; ".join(str(f.error) for f in failed[:3]),
                failed=tuple(failed),
            )
        return Relation.from_columns(
            RowLayout.for_table(table, self.context.schema_of(table).names),
            columns,
            row_count,
        )

    def drain(self, accesses) -> None:
        """Settle started accesses no walk finished (an earlier access
        failed the query).

        Never cancels after billing: every completed purchase is recorded
        (store, histogram, durability log) and every led singleflight is
        released, so no waiter hangs on a query that died.  What they
        spent is added to ``context.prefetch_wasted_price`` — zero for
        every completed query, which the test suite asserts.
        """
        for access in accesses:
            try:
                outcomes, lead_flights = self._settle(access.calls.result(), None)
            except BaseException:
                # The batch died before producing outcomes (a market
                # rejection or simulated crash escaped a coroutine);
                # nothing completed that could be recorded.
                continue
            with self.context.store.table(access.table).lock:
                self._record(
                    access.table, access.rewrite.remainder, outcomes, lead_flights
                )
            spent = CallAccount.of(outcomes).price
            if spent:
                self.context.add_prefetch_waste(spent)

    # ------------------------------------------------------------- the steps

    def _rewrite(self, table: str, constraints):
        """Decide what one table access buys.

        Rewrites under the table lock: the rewrite decides what money to
        spend, so it must reflect the store *now*, and under concurrent
        serving other sessions record into this table at any moment.
        Holding the lock pins the epoch across rewrite + check, so the
        staleness guard can only trip if a stale-caching bug is
        reintroduced somewhere upstream (the rewriter memo keys on the
        epoch).
        """
        table_store = self.context.store.table(table)
        with table_store.lock:
            rewrite = self.context.rewriter.rewrite(
                table, list(constraints), self.context.pricing(table)
            )
            if rewrite.store_epoch != table_store.epoch:
                raise ExecutionError(
                    f"stale rewrite for {table!r}: computed at store "
                    f"epoch {rewrite.store_epoch}, executing at "
                    f"{table_store.epoch}"
                )
        return rewrite

    def _drive(self, machine):
        """Run one call machine to completion on this thread, the way
        :meth:`MarketTransport._drive` answers the fetch machine.  (A
        follower's ``wait`` can only block under concurrent serving, on a
        leader another thread is driving.)"""
        transport = self.context.transport
        try:
            effect = machine.send(None)
            while True:
                kind, subject = effect
                try:
                    if kind == "fetch":
                        answer = transport.fetch(subject, self.scope)
                    else:
                        answer = subject.wait()
                except BaseException as error:
                    effect = machine.throw(error)
                else:
                    effect = machine.send(answer)
        except StopIteration as stop:
            return stop.value

    async def _drive_all(self, machines, lead_flights):
        """Run one access's call machines as coroutines on the event loop.

        A ``fetch`` awaits the shared fetch machine against the per-seller
        connection pool (the pool's semaphore is the only in-flight cap); a
        follower's ``wait`` parks on the default executor so the loop keeps
        running.
        """
        aio, scope = self.aio, self.scope
        loop = asyncio.get_running_loop()

        async def drive(machine):
            try:
                effect = machine.send(None)
                while True:
                    kind, subject = effect
                    try:
                        if kind == "fetch":
                            answer = await aio.fetch(subject, scope)
                        else:
                            answer = await loop.run_in_executor(None, subject.wait)
                    except BaseException as error:
                        effect = machine.throw(error)
                    else:
                        effect = machine.send(answer)
            except StopIteration as stop:
                return stop.value

        return list(await asyncio.gather(*map(drive, machines))), lead_flights

    def _settle(self, drained, parent_span) -> tuple[list, list]:
        """Account for one access's drained calls, whichever driver ran
        them: the outcomes join the query's, call spans are adopted into
        the access's ``table_fetch`` span in request order (a call machine
        only ever touches its own private span, so the trace is the same
        however the calls interleaved), and the calls' simulated durations
        are charged: their sum to the serial total, their makespan over the
        seller pool's lanes to the critical path."""
        results, lead_flights = drained
        outcomes = [outcome for outcome, _ in results]
        self.outcomes.extend(outcomes)
        if parent_span is not None:
            for _, call_span in results:
                if call_span is not None:
                    parent_span.adopt(call_span)
        durations = [
            outcome.error.elapsed_ms
            if isinstance(outcome, FailedFetch)
            else 0.0
            if isinstance(outcome, CoveredSkip)
            else outcome.elapsed_ms
            for outcome in outcomes
        ]
        self.serial_ms += sum(durations)
        self.critical_path_ms += _makespan(durations, DEFAULT_POOL_SIZE)
        return outcomes, lead_flights

    def _record(self, table: str, remainders, outcomes, lead_flights) -> int:
        """Record one access's completed purchases, then retire the
        singleflights it led; returns the purchased row count.  The caller
        holds the table lock.

        Only *completed* fetches are recorded.  Coalesced results record
        too (store dedup and the identical histogram observation make it
        idempotent against the leader's own record) — a waiter must never
        read the store before its shared rows are in it.
        """
        store = self.context.store
        histogram = self.context.catalog.statistics(table).histogram
        durability = self.context.durability
        bill = self.context.transport.bill
        purchased_rows = 0
        purchases_logged = False
        for remainder, outcome in zip(remainders, outcomes):
            if isinstance(outcome, (FailedFetch, CoveredSkip)):
                continue
            response = outcome.response
            purchased_rows += response.record_count
            store.record(
                table, remainder.box, response.rows, outcome.billed_price
            )
            histogram.observe(remainder.box, response.record_count)
            with bill.lock:
                if outcome.coalesced:
                    bill.coalesce(outcome.saved_transactions, outcome.saved_price)
                else:
                    bill.spend(
                        outcome.billed_calls,
                        outcome.billed_transactions,
                        outcome.billed_price,
                    )
                if durability is not None:
                    durability.log_purchase(
                        table=table,
                        box=remainder.box,
                        rows=response.rows,
                        count=response.record_count,
                        stored_at=store.clock,
                        url=response.request.url(),
                        key=outcome.idempotency_key,
                        transactions=outcome.billed_transactions,
                        price=outcome.billed_price,
                        coalesced=outcome.coalesced,
                        saved_transactions=outcome.saved_transactions,
                        saved_price=outcome.saved_price,
                    )
                    purchases_logged = True
        if purchases_logged:
            # Group commit inside the record→release window: once any
            # other session can see these rows (or a waiter is
            # released), the purchases that produced them are durable.
            # Fully-covered accesses skip it — they appended nothing,
            # and bookkeeping records ride the next money commit.
            durability.commit()
        coalescer = self.context.coalescer
        if coalescer is not None:
            for flight in lead_flights:
                coalescer.release(flight)
        return purchased_rows

    # ------------------------------------------------------ one remainder call

    def _call_machine(self, batch: _CallBatch, box, request: RestRequest):
        """One remainder call as a sans-IO generator; the drivers only wait.

        Yields ``("fetch", request)`` — the driver performs the transport
        fetch and sends back its :class:`FetchResult`, or throws in what it
        raised — and ``("wait", flight)`` — the driver blocks until the
        flight's leader completed or aborted, then sends anything.  Returns
        ``(outcome, market_call span or None)``; the span is the call's
        own, attached to no stack.  No lock is held at a ``yield``.
        """
        tracer = self.context.tracer
        call_span = (
            Span("market_call", tracer.clock(), {"url": request.url()})
            if tracer.enabled
            else None
        )
        try:
            if batch.coalescer is None:
                outcome = yield ("fetch", request)
            else:
                outcome = yield from self._shared_fetch(batch, box, request)
        except TransportError as error:
            outcome = FailedFetch(table=batch.table, request=request, error=error)
        if call_span is not None:
            call_span.set(**CallAccount.of((outcome,)).attrs())
            if isinstance(outcome, FailedFetch):
                error = outcome.error
                call_span.set(
                    failed=True,
                    error=str(error),
                    attempts=error.attempts,
                    replayed=False,
                    rows=0,
                    elapsed_ms=error.elapsed_ms,
                )
            elif isinstance(outcome, CoveredSkip):
                call_span.set(
                    failed=False, attempts=0, replayed=False, rows=0, elapsed_ms=0.0
                )
            else:
                call_span.set(
                    failed=False,
                    attempts=outcome.attempts,
                    replayed=outcome.replayed,
                    rows=outcome.response.record_count,
                    elapsed_ms=outcome.elapsed_ms,
                )
            call_span.finish(tracer.clock())
        return outcome, call_span

    def _shared_fetch(self, batch: _CallBatch, box, request: RestRequest):
        """The call machine's fetch through the singleflight layer.

        The loop re-establishes, on every iteration, the serving
        invariant: under the table lock, either the box is covered (free),
        or a flight exists to join (free), or we lead a new flight (we
        pay).  A failed leader's waiters come back through here — the
        flight was deregistered before they woke, so one of them leads a
        fresh attempt with its own transport retry budget; each query
        fails at most once as leader per key, so the loop terminates.
        """
        coalescer = batch.coalescer
        table_store = batch.table_store
        ledger = self.context.market.ledger
        store = self.context.store
        key = request.url()
        while True:
            with table_store.lock:
                if table_store.is_covered(box, store.policy, store.clock):
                    return CoveredSkip(request=request)
                flight, leader = coalescer.begin(key)
            if leader:
                try:
                    result = yield ("fetch", request)
                except BaseException as error:
                    # Deregister BEFORE waiters wake: no waiter may ever be
                    # served rows from a fetch the market did not bill.
                    coalescer.abort(flight, error)
                    raise
                coalescer.complete(flight, result)
                batch.lead_flights.append(flight)
                return result
            yield ("wait", flight)
            if flight.failed:
                continue
            shared = flight.result
            response = shared.response
            ledger.credit_coalesced_savings(response.transactions, response.price)
            return FetchResult(
                response=response,
                attempts=1,
                elapsed_ms=shared.elapsed_ms,
                coalesced=True,
                saved_transactions=response.transactions,
                saved_price=response.price,
            )
