"""The money-safe market transport: retries that never double-bill.

Every REST call against the market costs real money, so the transport
between the executor and :class:`~repro.market.server.DataMarket` treats
failure handling as a *billing* problem first and a latency problem second:

* **idempotency keys** — each logical call gets a unique key, reused across
  its retries.  The market bills a key at most once and replays the stored
  response for free afterwards, so a retry after a lost response costs
  nothing (at-most-once billing).  A naive client without keys
  (``idempotency=False``) pays again on every retry — kept as an opt-in
  mode precisely so the chaos suite can demonstrate the difference.
* **exponential backoff with deterministic jitter** — transient faults
  (timeouts, 5xx, 429) are retried with capped exponential waits; a 429's
  ``Retry-After`` is honoured as a floor.  All waits are simulated
  wall-clock, accumulated into the per-call elapsed time the executor
  feeds its makespan accounting — nothing actually sleeps.
* **a per-query retry budget** — one query may not burn unbounded retries;
  exhaustion raises :class:`~repro.errors.MarketUnavailableError`.
* **a per-dataset circuit breaker** — after ``breaker_failure_threshold``
  consecutive failures a dataset's circuit opens and calls fail fast
  (costing nothing) until ``breaker_cooldown_ms`` of simulated time
  passes; then a single half-open probe decides between closing the
  circuit and re-opening it.
* **waste accounting** — when the transport abandons a call whose charge
  went through (a dropped response that never got replayed), it moves the
  charge to the ledger's ``wasted_on_failures`` bucket so the spend series
  the evaluation plots stays honest, and folds it into the installation's
  :class:`~repro.market.billing.BuyerBill` as wasted.

Fault injection itself lives in :mod:`repro.market.faults`; with no fault
policy attached the transport is a single ``market.get`` per call with no
key attached — measurably free (``benchmarks/bench_fault_overhead.py``)
and bit-compatible with code that monkeypatches ``market.get``.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass

from repro.durable.wal import SimulatedCrash
from repro.errors import (
    MarketError,
    MarketUnavailableError,
    RetryExhaustedError,
)
from repro.market.billing import BuyerBill
from repro.market.faults import FaultKind, FaultPolicy, InjectedFault
from repro.market.rest import RestRequest, RestResponse
from repro.market.server import DataMarket

#: Distinguishes idempotency keys of transports sharing one market.
_TRANSPORT_IDS = itertools.count()

#: The retry schedule: attempt ``a`` waits ``BACKOFF_BASE_MS ·
#: BACKOFF_MULTIPLIER^(a-1)`` ms, capped at ``BACKOFF_MAX_MS``, then
#: scaled by ``1 + BACKOFF_JITTER · d`` for the fault policy's
#: deterministic draw ``d`` in ``[-1, 1]``.
BACKOFF_BASE_MS = 50.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_MAX_MS = 5000.0
BACKOFF_JITTER = 0.1


@dataclass(frozen=True)
class TransportConfig:
    """Every knob of the money-safe transport, in one place.

    Accepted by :class:`~repro.core.payless.PayLess` and
    :class:`~repro.core.context.PlanningContext` instead of a growing pile
    of positional keyword arguments.
    """

    #: Fault injection policy; ``None`` runs fault-free.
    faults: FaultPolicy | None = None
    #: Retries allowed per call beyond the first attempt.
    max_retries: int = 4
    #: Total retries one query may spend across all its calls
    #: (``None`` = unlimited).
    retry_budget: int | None = 64
    #: Consecutive failures that open a dataset's circuit.
    breaker_failure_threshold: int = 5
    #: Simulated time an open circuit waits before a half-open probe.
    breaker_cooldown_ms: float = 30_000.0
    #: Executor degradation mode: return the rows that did arrive instead
    #: of raising when some regions could not be bought.
    partial_results: bool = False
    #: Attach idempotency keys (at-most-once billing).  Disabling this
    #: reproduces a naive client whose retries double-bill.
    idempotency: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MarketError("max_retries cannot be negative")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise MarketError("retry_budget cannot be negative")
        if self.breaker_failure_threshold < 1:
            raise MarketError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_ms < 0:
            raise MarketError("breaker_cooldown_ms cannot be negative")


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-dataset fail-fast guard (classic closed/open/half-open).

    Thread-safe; driven entirely by the transport's *simulated* clock, so
    tests can walk it through its transitions deterministically.
    """

    def __init__(self, failure_threshold: int, cooldown_ms: float):
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms = 0.0
        self._probe_in_flight = False
        self._lock = threading.Lock()
        #: State changes so far, and how many of them went into OPEN.
        self.transitions = 0
        self.opens = 0

    @property
    def state(self) -> BreakerState:
        return self._state

    def _set_state(self, new_state: BreakerState) -> None:
        """Move to ``new_state``; the caller holds ``_lock``."""
        if self._state is new_state:
            return
        self._state = new_state
        self.transitions += 1
        if new_state is BreakerState.OPEN:
            self.opens += 1

    def allow(self, now_ms: float) -> bool:
        """Whether a call may proceed at simulated time ``now_ms``."""
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if now_ms - self._opened_at_ms < self.cooldown_ms:
                    return False
                self._set_state(BreakerState.HALF_OPEN)
                self._probe_in_flight = True
                return True
            # HALF_OPEN: exactly one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def on_success(self) -> None:
        with self._lock:
            self._set_state(BreakerState.CLOSED)
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def on_failure(self, now_ms: float) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state is BreakerState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            ):
                self._set_state(BreakerState.OPEN)
                self._opened_at_ms = now_ms
                self._probe_in_flight = False


class QueryScope:
    """One query's retry budget, shared by all of its calls.

    The executor opens one scope per query and passes it to every fetch;
    what each call cost and went through comes back on its own outcome
    (:class:`FetchResult`, or the raised error).  Thread-safe, so a scope
    may be shared by whichever threads issue a query's calls.
    """

    def __init__(self, retry_budget: int | None):
        self.retry_budget = retry_budget
        #: Retries claimed so far by the query's calls.
        self.retries = 0
        self._lock = threading.Lock()

    def consume_retry(self) -> bool:
        """Claim one retry from the query's budget; False when exhausted."""
        with self._lock:
            if (
                self.retry_budget is not None
                and self.retries >= self.retry_budget
            ):
                return False
            self.retries += 1
            return True


@dataclass(slots=True)
class FetchResult:
    """One logical call's outcome: the response plus what getting it took.

    The ``billed_*`` / ``faults`` / ``replays`` / ``retries`` fields are the
    call's whole account; a call that fails carries the same fields on the
    raised :class:`~repro.errors.TransportError`.  Read-only by contract
    (a singleflight shares one result among its waiters), but not frozen:
    one is built per market call, and a frozen dataclass of this width
    costs several times as much to construct.
    """

    response: RestResponse
    #: Attempts made (1 = first try succeeded).
    attempts: int
    #: Client-side simulated wall-clock: latencies of every attempt plus
    #: all backoff waits.  The executor's makespan accounting uses this,
    #: not the server-side ``response.elapsed_ms``.
    elapsed_ms: float
    #: Whether the delivered response came from an idempotency replay
    #: (i.e. an earlier attempt was billed and this retry was free).
    replayed: bool = False
    #: Everything this logical call caused the market to bill, across all
    #: its attempts and duplicate deliveries: ledger entries, their
    #: records, transactions and price.  With idempotency keys this is the
    #: response's own billing; a naive client's retries can bill more.
    billed_calls: int = 0
    billed_records: int = 0
    billed_transactions: int = 0
    billed_price: float = 0.0
    #: Injected faults survived, responses the market replayed for free
    #: (retries after a lost response and duplicate deliveries alike), and
    #: retries claimed from the query's budget.
    faults: int = 0
    replays: int = 0
    retries: int = 0
    #: True when this result was shared from another session's in-flight
    #: fetch of the same key (singleflight): nothing was billed to this
    #: caller, and ``saved_*`` record the avoided bill.
    coalesced: bool = False
    saved_transactions: int = 0
    saved_price: float = 0.0
    #: The idempotency key this call billed under (``None`` without keys).
    #: With a durability backend attached, this is the WAL intent key the
    #: executor's purchase record resolves.
    idempotency_key: str | None = None

    @classmethod
    def first_attempt(
        cls, response: RestResponse, connect_ms: float, key: str | None = None
    ) -> "FetchResult":
        """A call answered and billed by its first attempt."""
        return cls(
            response=response,
            attempts=1,
            elapsed_ms=response.elapsed_ms + connect_ms,
            billed_calls=1,
            billed_records=response.record_count,
            billed_transactions=response.transactions,
            billed_price=response.price,
            idempotency_key=key,
        )


class MarketTransport:
    """Issues market calls with retries, at-most-once billing, breakers.

    One transport lives on the :class:`~repro.core.context.PlanningContext`
    for the installation's lifetime (circuit breakers must remember
    failures across queries); per-query budgets live in the
    :class:`QueryScope` the executor opens per query.

    ``faults`` is deliberately a plain mutable attribute: chaos tests (and
    operators of long-lived simulations) flip injection on and off without
    rebuilding the installation.
    """

    def __init__(
        self,
        market: DataMarket,
        config: TransportConfig | None = None,
    ):
        self.market = market
        self.config = config or TransportConfig()
        self.faults: FaultPolicy | None = self.config.faults
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        #: Simulated monotonic clock (ms) advanced by call latencies and
        #: backoff waits; drives circuit-breaker cooldowns.  Fail-fast
        #: refusals add nothing, so tests walking a breaker through
        #: half-open advance the clock explicitly via :meth:`advance_clock`.
        self._clock_ms = 0.0
        self._clock_lock = threading.Lock()
        #: Per-URL logical-call sequence numbers, shared by every session
        #: of the installation.  Keys derived from them are deterministic
        #: per logical call however one access's calls interleave
        #: (remainder URLs within one access are distinct), which is what
        #: makes chaos runs replayable.
        self._url_sequence: dict[str, int] = {}
        self._sequence_lock = threading.Lock()
        self._transport_id = next(_TRANSPORT_IDS)
        #: Optional :class:`~repro.durable.backend.DurableStateBackend`.
        #: When set, every billable call journals a durable intent first
        #: and uses the intent's idempotency key, so a crash between
        #: billing and acknowledgment is recoverable (wired by PayLess).
        self.durability = None
        #: The installation's one running bill (see
        #: :class:`~repro.market.billing.BuyerBill`): ``fail()`` below folds
        #: the wasted calls, the purchase step the delivered ones.
        self.bill = BuyerBill()

    # -- clock & breakers ------------------------------------------------------

    def now_ms(self) -> float:
        with self._clock_lock:
            return self._clock_ms

    def advance_clock(self, ms: float) -> None:
        """Advance simulated time (negative advances are rejected)."""
        if ms < 0:
            raise MarketError("the transport clock only moves forward")
        with self._clock_lock:
            self._clock_ms += ms

    def breaker_for(self, dataset: str) -> CircuitBreaker:
        key = dataset.lower()
        with self._breaker_lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    self.config.breaker_failure_threshold,
                    self.config.breaker_cooldown_ms,
                )
                self._breakers[key] = breaker
            return breaker

    def breakers(self) -> list[CircuitBreaker]:
        """Every per-dataset breaker made so far."""
        with self._breaker_lock:
            return list(self._breakers.values())

    def new_scope(self) -> QueryScope:
        return QueryScope(self.config.retry_budget)

    # -- the call path ---------------------------------------------------------

    def _call_key(self, request: RestRequest) -> str:
        url = request.url()
        with self._sequence_lock:
            sequence = self._url_sequence.get(url, 0)
            self._url_sequence[url] = sequence + 1
        return f"{url}#{sequence}"

    def _backoff_ms(
        self, call_key: str, attempt: int, fault: InjectedFault
    ) -> float:
        wait = min(
            BACKOFF_BASE_MS * BACKOFF_MULTIPLIER ** (attempt - 1),
            BACKOFF_MAX_MS,
        )
        if self.faults is not None:
            wait *= 1.0 + BACKOFF_JITTER * self.faults.jitter(call_key, attempt)
        if fault.retry_after_ms:
            wait = max(wait, fault.retry_after_ms)
        return wait

    def fetch(
        self, request: RestRequest, scope: QueryScope | None = None
    ) -> FetchResult:
        """Issue one logical call, retrying transient faults money-safely.

        Raises :class:`~repro.errors.RetryExhaustedError` when the call
        kept failing, :class:`~repro.errors.MarketUnavailableError` when
        the dataset's circuit is open or the query's retry budget ran out.
        Real :class:`~repro.errors.MarketError` rejections (bad binding,
        unknown table) propagate immediately — retrying them wastes money.
        """
        if scope is None:
            scope = self.new_scope()
        if self.faults is None and self.durability is None:
            # Fast path: no injection, one attempt, no key.  Keeps the
            # fault-free overhead at one attribute check and stays
            # compatible with tests that monkeypatch ``market.get``.
            # The simulated clock is not advanced: it exists only to time
            # breaker cooldowns, and breakers never trip without faults.
            return FetchResult.first_attempt(
                self.market.get(request), self.market.latency.connection_setup_ms
            )
        return self._drive(request, self._fetch_machine(request, scope))

    def _drive(self, request: RestRequest, machine) -> FetchResult:
        """Drive the sans-IO fetch machine inline, one call after another.

        The executor's driver on an instant market: every physical call is
        charged a fresh connection's ``connection_setup_ms`` (simulated;
        nothing sleeps here).  On a market whose calls wait, the executor
        takes :mod:`repro.market.aio` instead, which replays the exact same
        machine against pooled connections and cooperative sleeps.
        """
        setup_ms = self.market.latency.connection_setup_ms
        try:
            effect = machine.send(None)
            while True:
                __, key, __expect_replay = effect
                try:
                    if key is not None:
                        response = self.market.get(
                            request, idempotency_key=key
                        )
                    else:
                        response = self.market.get(request)
                except BaseException as error:
                    effect = machine.throw(error)
                else:
                    effect = machine.send((response, setup_ms))
        except StopIteration as stop:
            return stop.value

    def _fetch_machine(self, request: RestRequest, scope: QueryScope):
        """The transport's entire billing/retry logic as a sans-IO generator.

        Yields ``("call", idempotency_key_or_None, expect_replay)`` each
        time a physical ``market.get`` must happen; the driver performs it
        and replies ``machine.send((response, connect_ms))`` — where
        ``connect_ms`` is the connection-setup latency this particular
        physical call paid (a fresh handshake, or ``0.0`` when a pooled
        connection was reused) — or ``machine.throw(error)`` with whatever
        the call raised.  The :class:`FetchResult` comes back as the
        generator's return value (``StopIteration.value``).

        ``expect_replay`` tells the driver, *before* the call, whether the
        server will answer from its idempotency cache (an earlier attempt
        already billed this key): replays are instant, so a realtime
        driver must not sleep for them.  Because both drivers replay
        this one machine, retries, idempotency keys, fault draws, waste
        accounting, and durable-intent resolution cannot diverge between
        them.

        The machine counts, per logical call, what the call billed, the
        faults it survived, the replays it was served and the retries it
        claimed from ``scope``; they go on the result, or on the raised
        :class:`~repro.errors.TransportError` when the call fails.
        """
        faults = self.faults
        durability = self.durability
        if faults is None:
            if durability is None:
                response, connect_ms = yield ("call", None, False)
                return FetchResult.first_attempt(response, connect_ms)
            key = durability.begin_intent(request)
            try:
                response, connect_ms = yield ("call", key, False)
            except SimulatedCrash:
                raise
            except BaseException:
                # The market rejected the call without billing (bad
                # binding, unknown table): resolve the intent so recovery
                # does not buy what this run never did.
                durability.log_abort(key)
                raise
            return FetchResult.first_attempt(response, connect_ms, key)
        config, bill = self.config, self.bill
        breaker = self.breaker_for(request.dataset)
        call_key = self._call_key(request)
        if durability is not None:
            # The durable intent key replaces the transport-local key: it
            # must be the same key recovery re-issues under after a crash.
            # Fault outcomes stay keyed by ``call_key``, so chaos runs are
            # deterministic regardless of the key scheme.
            key = durability.begin_intent(request)
        elif config.idempotency:
            key = f"t{self._transport_id}:{call_key}"
        else:
            key = None
        latency = self.market.latency
        attempts = 0
        elapsed_ms = 0.0
        billed: RestResponse | None = None
        #: The call's account so far (the fields of :class:`FetchResult`):
        #: what it caused the market to bill over all attempts and
        #: duplicate deliveries, and what it went through.
        account = {
            "billed_calls": 0,
            "billed_records": 0,
            "billed_transactions": 0,
            "billed_price": 0.0,
            "faults": 0,
            "replays": 0,
            "retries": 0,
        }

        def charge(response: RestResponse) -> None:
            account["billed_calls"] += 1
            account["billed_records"] += response.record_count
            account["billed_transactions"] += response.transactions
            account["billed_price"] += response.price

        def fail(error: Exception) -> Exception:
            wasted_transactions = 0
            wasted_price = 0.0
            with bill.lock:
                if billed is not None:  # kept only when the call has a key
                    # Money left the account but the data never arrived.
                    self.market.ledger.mark_wasted(key)
                    wasted_transactions = billed.transactions
                    wasted_price = billed.price
                    bill.waste(wasted_transactions, wasted_price)
                    if durability is not None:
                        durability.log_wasted(key, wasted_transactions, wasted_price)
                elif durability is not None:
                    # Never billed: resolve the intent so recovery does
                    # not spend money this run never spent.
                    durability.log_abort(key)
                elif account["billed_calls"]:
                    # A naive client's paid retries of a call that still
                    # failed: without a key the ledger counts them spent.
                    bill.spend(
                        account["billed_calls"],
                        account["billed_transactions"],
                        account["billed_price"],
                    )
            # The failed call's account, what of its bill is waste, and the
            # simulated wall-clock burned before giving up (the executor's
            # makespan accounting charges failed calls honestly too).
            vars(error).update(
                account,
                attempts=attempts,
                elapsed_ms=elapsed_ms,
                wasted_transactions=wasted_transactions,
                wasted_price=wasted_price,
            )
            return error

        try:
            while True:
                if not breaker.allow(self.now_ms()):
                    raise fail(
                        MarketUnavailableError(
                            f"circuit open for dataset {request.dataset!r}; "
                            f"{request!r} refused without contacting the "
                            f"market"
                        )
                    )
                attempts += 1
                kind = faults.outcome(call_key, attempts)
                try:
                    if kind in (FaultKind.OK, FaultKind.DROPPED_RESPONSE):
                        # The request reaches the server: it executes and
                        # bills (or replays a previously billed key for
                        # free).
                        replayed = key is not None and billed is not None
                        response, connect_ms = yield ("call", key, replayed)
                        if replayed:
                            account["replays"] += 1
                        else:
                            charge(response)
                        attempt_ms = (
                            latency.call_ms(0)
                            if replayed
                            else response.elapsed_ms
                        ) + connect_ms
                        if kind is FaultKind.DROPPED_RESPONSE:
                            if key is not None:
                                billed = billed if replayed else response
                            # The handshake succeeded (the request reached
                            # the server) but the answer never came back:
                            # the client burned setup + its timeout.
                            wait = faults.timeout_ms + connect_ms
                            elapsed_ms += wait
                            self.advance_clock(wait)
                            raise faults.fault_for(kind, call_key)
                        elapsed_ms += attempt_ms
                        self.advance_clock(attempt_ms)
                        if faults.duplicated(call_key, attempts):
                            # The network delivered the request twice.
                            # With a key the second execution replays for
                            # free; the naive client pays all over again.
                            if key is not None:
                                __, dup_connect = yield ("call", key, True)
                                account["replays"] += 1
                            else:
                                duplicate, dup_connect = yield (
                                    "call", None, False
                                )
                                charge(duplicate)
                            dup_ms = latency.call_ms(0) + dup_connect
                            elapsed_ms += dup_ms
                            self.advance_clock(dup_ms)
                        breaker.on_success()
                        return FetchResult(
                            response=response,
                            attempts=attempts,
                            elapsed_ms=elapsed_ms,
                            replayed=replayed,
                            idempotency_key=key,
                            **account,
                        )
                    # Pure transport failures: the server never billed.
                    if kind is FaultKind.TIMEOUT:
                        wait = faults.timeout_ms
                    else:  # SERVER_ERROR / THROTTLE answer after one trip
                        wait = latency.call_ms(0)
                    elapsed_ms += wait
                    self.advance_clock(wait)
                    raise faults.fault_for(kind, call_key)
                except InjectedFault as fault:
                    account["faults"] += 1
                    breaker.on_failure(self.now_ms())
                    if attempts > config.max_retries:
                        raise fail(
                            RetryExhaustedError(
                                f"{request!r} failed {attempts} attempts "
                                f"(last: {fault})",
                                attempts=attempts,
                                last_fault=fault,
                            )
                        ) from fault
                    if not scope.consume_retry():
                        raise fail(
                            MarketUnavailableError(
                                f"per-query retry budget "
                                f"({scope.retry_budget}) exhausted at "
                                f"{request!r}"
                            )
                        ) from fault
                    account["retries"] += 1
                    backoff = self._backoff_ms(call_key, attempts, fault)
                    elapsed_ms += backoff
                    self.advance_clock(backoff)
        except SimulatedCrash:
            # A simulated kill never resolves intents — that is the point.
            raise
        except BaseException:
            # Anything ``fail()`` did not already resolve (market
            # rejections escape the loop directly); a no-op when the
            # intent was resolved on the way out.
            if durability is not None and key is not None:
                durability.log_abort(key)
            raise

    def __repr__(self) -> str:
        mode = "faulty" if self.faults is not None else "clean"
        return (
            f"MarketTransport({mode}, max_retries={self.config.max_retries}, "
            f"clock={self.now_ms():g}ms)"
        )
