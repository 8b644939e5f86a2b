"""The concurrent serving front-end: many sessions, one installation.

The paper's deployment unit is one PayLess installation per buyer
organization, shared by all of its end users (Section 3); the conclusion
explicitly plans for "many end users using PayLess simultaneously".  This
module is that serving layer: a :class:`QueryScheduler` runs queries from
many :class:`ServeSession` handles on a thread pool against one shared
:class:`~repro.core.payless.PayLess`, with

* **singleflight coalescing** — overlapping in-flight fetches of one
  remainder box bill exactly one market call
  (:mod:`repro.serve.singleflight`), wired onto the installation's
  planning context when :attr:`ServeConfig.coalesce` is on;
* **fairness / admission control** — per-session ``max_inflight`` (one
  chatty tenant cannot occupy every worker), FIFO dispatch within a
  session, and a bounded pending queue whose overflow blocks submitters
  (backpressure) until :attr:`ServeConfig.admission_timeout_s` runs out,
  then raises :class:`~repro.errors.AdmissionError`;
* **per-session attribution** — spend, coalesced savings, and query
  counts per tenant, summing exactly to the installation's totals (each
  query's stats are the fold of its own calls' outcomes, so concurrent
  sessions never steal each other's dollars);
* **per-session budgets** — ``session(name, budget=BudgetPolicy(...))``
  holds every query's plan estimate against what the session has left,
  between planning and execution (:meth:`QueryScheduler._reserve`);
* **deferred batches** — "if users are willing to defer theirs to become
  a batch": :meth:`QueryScheduler.flush` runs what ``session.defer(...)``
  queued broadest region first, so a narrow query rides free.

On a market whose calls really wait (``LatencyModel.realtime_scale >
0``), every session's market calls share the installation's single event
loop (:mod:`repro.market.aio`): worker threads then bound only local
planning/evaluation, not in-flight market calls — one worker can keep a
connection pool's worth of calls
(:data:`~repro.market.aio.DEFAULT_POOL_SIZE`) in flight per seller.  On
an instant market each worker drives its own calls inline.  Coalescing
works whichever driver a query took, because both consult the same
singleflight group under the same table locks.

Usage::

    with QueryScheduler(payless, ServeConfig(workers=8)) as scheduler:
        alice = scheduler.session("alice")
        ticket = alice.submit(sql, params)   # async
        result = ticket.result()             # or alice.query(...) sync
        later = alice.defer(sql, params)     # runs at scheduler.flush()
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.budget import BudgetExceededError, BudgetMode, BudgetPolicy
from repro.core.objectives import ServiceTier
from repro.core.optimizer import PlanningResult
from repro.core.payless import PayLess, QueryResult
from repro.errors import AdmissionError, MarketError
from repro.relational.query import LogicalQuery
from repro.semstore.boxes import Box, covers_fully
from repro.serve.singleflight import SingleflightGroup

_TICKET_IDS = itertools.count()


@dataclass(frozen=True)
class ServeConfig:
    """Every knob of the serving front-end."""

    #: Worker threads executing queries.
    workers: int = 4
    #: Pending bound: submitted-but-unfinished tickets across all
    #: sessions.  Submitters past it block (backpressure) and then fail.
    max_queue: int = 256
    #: Queries of one session allowed to execute concurrently; further
    #: submissions of that session queue in FIFO order behind them.
    session_max_inflight: int = 2
    #: How long a submitter may block on a full queue before
    #: :class:`~repro.errors.AdmissionError` (``None`` = wait forever).
    admission_timeout_s: float | None = 30.0
    #: Coalesce overlapping in-flight market fetches (singleflight).
    coalesce: bool = True
    #: Service tier of sessions that do not pick one explicitly
    #: (``None`` = plan under the installation's default objective).
    default_tier: ServiceTier | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise MarketError("workers must be >= 1")
        if self.max_queue < 1:
            raise MarketError("max_queue must be >= 1")
        if self.session_max_inflight < 1:
            raise MarketError("session_max_inflight must be >= 1")
        if (
            self.admission_timeout_s is not None
            and self.admission_timeout_s < 0
        ):
            raise MarketError("admission_timeout_s cannot be negative")
        if self.default_tier is not None and not isinstance(
            self.default_tier, ServiceTier
        ):
            raise MarketError(
                f"default_tier must be a ServiceTier, got {self.default_tier!r}"
            )


class QueryTicket:
    """A submitted query's future: block on :meth:`result`."""

    __slots__ = (
        "ticket_id",
        "session",
        "sql",
        "params",
        "_reserved",
        "_event",
        "_result",
        "_error",
    )

    def __init__(self, session: "ServeSession", sql: str, params: tuple):
        self.ticket_id = next(_TICKET_IDS)
        self.session = session
        self.sql = sql
        self.params = params
        #: Plan estimate held against the session's budget while it runs.
        self._reserved = 0.0
        self._event = threading.Event()
        self._result: QueryResult | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResult:
        """Wait for the query; re-raises whatever the query raised."""
        if not self._event.wait(timeout):
            raise AdmissionError(
                f"ticket #{self.ticket_id} ({self.session.name}) not done "
                f"after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def __repr__(self) -> str:
        state = "done" if self.done else "pending"
        return (
            f"QueryTicket(#{self.ticket_id}, {self.session.name!r}, {state})"
        )


class ServeSession:
    """One tenant's handle onto the scheduler: submit + attribution.

    ``tier`` (a :class:`~repro.core.objectives.ServiceTier`) makes every
    query of this session plan under the tier's objective — one shared
    installation serves cost-sensitive and latency-sensitive tenants side
    by side, and the plan cache keeps their plans apart (the objective is
    part of every cache key).  ``budget`` caps the session's spend in
    dollars; ``rejected`` / ``advisory_breaches`` / ``remaining``
    are its account.
    """

    def __init__(
        self,
        scheduler: "QueryScheduler",
        name: str,
        tier: ServiceTier | None = None,
        budget: BudgetPolicy | None = None,
    ):
        self.scheduler = scheduler
        self.name = name
        self.tier = tier
        self.budget = budget
        #: FIFO of admitted-but-not-dispatched tickets of this session.
        self._waiting: deque[QueryTicket] = deque()
        #: Queries of this session currently on a worker.
        self._inflight = 0
        #: Attribution (guarded by the scheduler's lock).
        self.queries = 0
        self.failures = 0
        self.transactions = 0
        self.price = 0.0
        self.coalesced_fetches = 0
        self.coalesced_savings_price = 0.0
        #: Budget account: hard-mode refusals, advisory overruns, and the
        #: estimates of the session's queries now executing.
        self.rejected = 0
        self.advisory_breaches = 0
        self._reserved = 0.0

    @property
    def remaining(self) -> float | None:
        """Budget left after what was billed and what running queries
        hold reserved (``None`` without a budget)."""
        if self.budget is None:
            return None
        held = self.price + self._reserved
        return max(self.budget.limit_dollars - held, 0)

    def submit(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryTicket:
        """Enqueue a query; returns immediately with its ticket."""
        return self.scheduler.submit(self, sql, params)

    def query(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryResult:
        """Submit and wait — the synchronous convenience."""
        return self.submit(sql, params).result()

    def defer(
        self, sql: str, params: Sequence[Any] = ()
    ) -> QueryTicket:
        """Queue a query for the next :meth:`QueryScheduler.flush`."""
        return self.scheduler.defer(self, sql, params)

    def __repr__(self) -> str:
        return (
            f"ServeSession({self.name!r}, {self.queries} queries, "
            f"{self.transactions} trans., "
            f"{self.coalesced_fetches} coalesced)"
        )


class QueryScheduler:
    """Thread-pool serving of one shared installation (see module doc)."""

    def __init__(
        self, payless: PayLess, config: ServeConfig | None = None
    ):
        self.payless = payless
        self.config = config or ServeConfig()
        #: Wire (or unwire) the singleflight layer onto the shared
        #: planning context; the executor picks it up per table access.
        self.coalescer = SingleflightGroup() if self.config.coalesce else None
        payless.context.coalescer = self.coalescer
        self._sessions: dict[str, ServeSession] = {}
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: Tickets ready to run, in dispatch (FIFO) order.
        self._ready: deque[QueryTicket] = deque()
        #: Deferred tickets, with their compiled queries, awaiting flush.
        self._deferred: list[tuple[QueryTicket, LogicalQuery]] = []
        #: Submitted-but-unfinished tickets (waiting + ready + running).
        self._outstanding = 0
        self._closed = False
        self.completed = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"payless-serve-{i}", daemon=True
            )
            for i in range(self.config.workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- sessions -------------------------------------------------------------

    def session(
        self,
        name: str,
        tier: ServiceTier | str | None = None,
        budget: BudgetPolicy | None = None,
    ) -> ServeSession:
        """Get or create the serving session for ``name``.

        ``tier`` — a :class:`ServiceTier` or a built-in tier name
        (``"economy"``, ``"interactive"``, ``"realtime"``) — pins the
        session's planning objective; omitted, a new session inherits
        :attr:`ServeConfig.default_tier`.  Re-fetching an existing
        session with a *different* tier raises: a tenant's tier is part
        of its identity, not a per-call flag — and so is its ``budget``.
        """
        if isinstance(tier, str):
            tier = ServiceTier.named(tier)
        key = name.lower()
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                session = self._sessions[key] = ServeSession(
                    self,
                    name,
                    tier if tier is not None else self.config.default_tier,
                    budget,
                )
            elif tier is not None and session.tier != tier:
                raise MarketError(
                    f"session {name!r} already exists with tier "
                    f"{session.tier and session.tier.name!r}; "
                    f"requested {tier.name!r}"
                )
            elif budget is not None and session.budget != budget:
                raise MarketError(
                    f"session {name!r} already exists with budget "
                    f"{session.budget!r}; requested {budget!r}"
                )
            return session

    @property
    def sessions(self) -> list[ServeSession]:
        with self._lock:
            return list(self._sessions.values())

    # -- submission / dispatch ------------------------------------------------

    def submit(
        self,
        session: ServeSession,
        sql: str,
        params: Sequence[Any] = (),
    ) -> QueryTicket:
        ticket = QueryTicket(session, sql, tuple(params))
        timeout = self.config.admission_timeout_s
        with self._work:
            # One deadline per submit: a wake-up that loses the freed slot
            # to another submitter resumes the same wait, not a fresh one.
            if not self._work.wait_for(
                lambda: self._closed
                or self._outstanding < self.config.max_queue,
                timeout,
            ):
                raise AdmissionError(
                    f"queue full ({self.config.max_queue} outstanding) "
                    f"for {timeout}s; query of {session.name!r} refused"
                )
            if self._closed:
                raise AdmissionError("scheduler is closed")
            self._outstanding += 1
            session._waiting.append(ticket)
            self._dispatch_locked(session)
        return ticket

    def _dispatch_locked(self, session: ServeSession) -> None:
        """Move this session's waiting tickets to the ready queue while it
        is under its in-flight cap.  Caller holds the lock."""
        moved = False
        while (
            session._waiting
            and session._inflight < self.config.session_max_inflight
        ):
            self._ready.append(session._waiting.popleft())
            session._inflight += 1
            moved = True
        if moved:
            self._work.notify_all()

    # -- deferred batches -----------------------------------------------------

    def defer(
        self, session: ServeSession, sql: str, params: Sequence[Any] = ()
    ) -> QueryTicket:
        """Queue a query for the next :meth:`flush`; one that does not
        compile is refused here, to the user who wrote it."""
        ticket = QueryTicket(session, sql, tuple(params))
        logical = self.payless.compile(sql, ticket.params)
        with self._lock:
            if self._closed:
                raise AdmissionError("scheduler is closed")
            self._deferred.append((ticket, logical))
        return ticket

    def flush(self) -> list[QueryTicket]:
        """Run every deferred ticket, broadest request region first.

        One after another on the calling thread, in
        :func:`plan_batch_order`'s containment order,
        through the body the workers run (tier, budget, attribution) — a
        narrow query is answered from what the broad one bought, its owner
        billed nothing.  Returns the tickets in execution order, all done.
        """
        with self._lock:
            deferred, self._deferred = self._deferred, []
        order = plan_batch_order(
            self.payless, [logical for __, logical in deferred]
        )
        tickets = [deferred[index][0] for index in order]
        for ticket in tickets:
            with self._lock:  # counted like a dispatched ticket
                self._outstanding += 1
                ticket.session._inflight += 1
            self._serve(ticket)
        return tickets

    # -- the worker loop ------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._work:
                while not self._ready and not self._closed:
                    self._work.wait()
                if self._closed and not self._ready:
                    return
                ticket = self._ready.popleft()
            self._serve(ticket)

    def _serve(self, ticket: QueryTicket) -> None:
        """Run one in-flight ticket and attribute it to its session — the
        one body behind a worker's dispatch and a flushed deferral."""
        session = ticket.session
        admit = None
        if session.budget is not None:
            admit = functools.partial(self._reserve, ticket)
        try:
            result = self.payless.query(
                ticket.sql, ticket.params, objective=session.tier, admit=admit
            )
        except BaseException as error:  # noqa: BLE001 - relayed to waiter
            ticket._error = error
            result = None
        else:
            ticket._result = result
        with self._work:
            session._inflight -= 1
            self._outstanding -= 1
            self.completed += 1
            # The reservation is swapped for the billed amount in one step.
            session._reserved -= ticket._reserved
            if result is not None:
                stats = result.stats
                session.queries += 1
                session.transactions += stats.transactions
                session.price += stats.price
                session.coalesced_fetches += stats.coalesced_fetches
                session.coalesced_savings_price += (
                    stats.coalesced_savings_price
                )
            else:
                session.failures += 1
            self._dispatch_locked(session)
            self._work.notify_all()
        ticket._event.set()

    def _reserve(self, ticket: QueryTicket, planning: PlanningResult) -> None:
        """The budget gate: :meth:`PayLess.query` calls it with the plan it
        is about to execute, before any money moves.  The estimate is
        checked against what is left *after reservations*, and reserved,
        under one lock hold: two in-flight queries of a session cannot
        both pass a check their sum fails.  Hard mode refuses; advisory
        mode counts the breach and lets the query run.
        """
        session, estimate = ticket.session, planning.cost
        with self._lock:
            remaining = session.remaining
            if estimate > remaining:
                if session.budget.mode is BudgetMode.HARD:
                    session.rejected += 1
                    raise BudgetExceededError(
                        f"estimated ${estimate:g} exceeds the remaining "
                        f"budget of ${remaining:g} (session {session.name!r})"
                    )
                session.advisory_breaches += 1
            ticket._reserved = estimate
            session._reserved += estimate

    # -- lifecycle ------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted ticket has finished."""
        with self._work:
            if not self._work.wait_for(
                lambda: self._outstanding == 0, timeout
            ):
                raise AdmissionError(
                    f"{self._outstanding} tickets still outstanding "
                    f"after {timeout}s"
                )

    def close(self) -> None:
        """Finish the ready queue, stop the workers, unwire the coalescer."""
        with self._work:
            self._closed = True
            self._work.notify_all()
            deferred, self._deferred = self._deferred, []
        for ticket, __ in deferred:
            ticket._error = AdmissionError("scheduler closed before a flush")
            ticket._event.set()
        for thread in self._threads:
            thread.join()
        if self.payless.context.coalescer is self.coalescer:
            self.payless.context.coalescer = None
        if getattr(self.payless, "durability", None) is not None:
            # Workers are joined: nothing appends anymore, so this commit
            # makes every served query durable (the snapshot itself is the
            # installation's job — payless.close()).
            self.payless.durability.commit()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.drain()
        self.close()

    # -- reporting ------------------------------------------------------------

    def spend_report(self) -> str:
        """Per-tenant attribution, plus what coalescing saved."""
        lines = [f"serving: {self.payless.bill()}"]
        sessions = sorted(self.sessions, key=lambda s: s.name)
        for session in sessions:
            line = (
                f"  {session.name}: {session.queries} queries, "
                f"{session.transactions} transactions, "
                f"${session.price:g}"
            )
            if session.coalesced_fetches:
                line += (
                    f" (+{session.coalesced_fetches} coalesced fetches, "
                    f"${session.coalesced_savings_price:g} saved)"
                )
            lines.append(line)
        # Queries run on the installation directly belong to no session.
        unattributed = self.payless.total_transactions - sum(
            session.transactions for session in sessions
        )
        if unattributed:
            lines.append(f"  (unattributed: {unattributed} transactions)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"QueryScheduler({self.config.workers} workers, "
                f"{self._outstanding} outstanding, "
                f"{self.completed} completed, "
                f"coalesce={'on' if self.coalescer else 'off'})"
            )


# -- deferred batch order ------------------------------------------------------


def _request_regions(
    payless: PayLess, query: LogicalQuery
) -> dict[str, list[Box]]:
    """The per-market-table region each query asks for (pre-binding)."""
    regions: dict[str, list[Box]] = {}
    for table in query.tables:
        if not payless.context.is_market(table):
            continue
        statistics = payless.catalog.statistics(table)
        boxes = statistics.space.boxes_for_constraints(
            query.constraints_for(table)
        )
        regions[table.lower()] = boxes
    return regions


def _region_size(payless: PayLess, regions: dict[str, list[Box]]) -> float:
    total = 0.0
    for table, boxes in regions.items():
        statistics = payless.catalog.statistics(table)
        total += sum(statistics.histogram.estimate(box) for box in boxes)
    return total


def _contains(outer: dict[str, list[Box]], inner: dict[str, list[Box]]) -> bool:
    """Whether ``outer``'s regions cover ``inner``'s on every shared table."""
    shared = set(outer) & set(inner)
    if not shared:
        return False
    for table in shared:
        for box in inner[table]:
            if not covers_fully(box, outer[table]):
                return False
    return True


def plan_batch_order(
    payless: PayLess, queries: Sequence[LogicalQuery]
) -> list[int]:
    """Execution order of a deferred batch: containing queries first,
    then by region size.

    The paper's future-work sketch of multi-query optimization ("if users
    are willing to defer theirs to become a batch"): the order a batch
    runs in changes the bill.  A broad query run first makes narrower
    overlapping ones free; run narrow-first, the same region is bought in
    fragments, each paying its own ``ceil(rows/t)`` rounding.  The
    heuristic is deliberately simple: estimate each query's request region
    per market table, put queries whose regions contain others first, and
    break ties toward the larger estimated region.
    """
    regions = [_request_regions(payless, query) for query in queries]
    sizes = [_region_size(payless, region) for region in regions]
    # Count how many other queries each one (at least partially) dominates.
    dominated = [0] * len(queries)
    for i, outer in enumerate(regions):
        for j, inner in enumerate(regions):
            if i != j and _contains(outer, inner):
                dominated[i] += 1
    return sorted(
        range(len(queries)),
        key=lambda index: (dominated[index], sizes[index]),
        reverse=True,
    )
