"""Exception hierarchy for the PayLess reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while the
subclasses keep the failure domains (SQL frontend, market access, planning,
execution) distinguishable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared attribute type."""


class SqlError(ReproError):
    """Base class for SQL frontend errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class SqlAnalysisError(SqlError):
    """The SQL parsed but references unknown tables/columns or is unsupported."""


class BindingError(ReproError):
    """A REST call violates the table's binding pattern."""


class MarketError(ReproError):
    """A data-market request is invalid (unknown dataset/table, bad constraint)."""


class TransportError(MarketError):
    """A market call failed in transit (timeout, 5xx, throttle, lost response).

    Transport errors are *transient*: the request itself was well-formed and
    the money-safe transport (:mod:`repro.market.transport`) may retry it.
    Contrast with plain :class:`MarketError`, which marks a request the
    market would reject every time and must never be retried.
    """

    #: The failed call's account, stamped by the transport when it gives
    #: up on a call — the fields of a successful call's
    #: :class:`~repro.market.transport.FetchResult`, plus how much of the
    #: bill was reclassified as wasted and the simulated wall-clock burned
    #: before the call failed terminally.
    attempts: int = 0
    elapsed_ms: float = 0.0
    billed_calls: int = 0
    billed_records: int = 0
    billed_transactions: int = 0
    billed_price: float = 0.0
    faults: int = 0
    replays: int = 0
    retries: int = 0
    wasted_transactions: int = 0
    wasted_price: float = 0.0


class RetryExhaustedError(TransportError):
    """A market call kept failing after every allowed retry.

    ``attempts`` is how many times the call was tried; ``last_fault`` is the
    final transient failure.  Any charge billed for an attempt whose
    response never arrived has been moved to the ledger's
    ``wasted_on_failures`` bucket by the time this is raised.
    """

    def __init__(
        self,
        message: str,
        attempts: int = 0,
        last_fault: Exception | None = None,
    ):
        super().__init__(message)
        self.attempts = attempts
        self.last_fault = last_fault


class MarketUnavailableError(TransportError):
    """The market cannot be (or should not be) reached right now.

    Raised when a dataset's circuit breaker is open, when the per-query
    retry budget is exhausted, or by the executor when a plan could not buy
    every region it needed and ``partial_results`` is off.  ``failed``
    carries the per-call failures when the executor aggregates several.
    """

    def __init__(self, message: str, failed: tuple = ()):
        super().__init__(message)
        self.failed = failed


class AdmissionError(ReproError):
    """The serving front-end refused a query (queue full, scheduler closed).

    Raised by :class:`~repro.serve.scheduler.QueryScheduler` when the
    bounded pending queue stayed full past the admission timeout, or when
    a query is submitted to a closed scheduler.  Backpressure, not a bug:
    the caller should slow down or retry later.
    """


class PlanningError(ReproError):
    """The optimizer could not produce a feasible plan for a query."""


class InfeasibleObjectiveError(PlanningError):
    """No plan on the money-latency Pareto frontier satisfies the objective.

    Raised when a bounded objective (``dollars_under_latency_ms`` /
    ``latency_under_dollars``) is stricter than every enumerated complete
    plan — there is deliberately no silent fallback to the unbounded
    optimum.  ``frontier`` carries the enumerated ``(dollars, latency_ms)``
    Pareto points so callers can report how far off the bound was, and
    ``objective`` the :class:`~repro.core.objectives.PlanObjective` that
    could not be met.
    """

    def __init__(
        self,
        message: str,
        objective=None,
        frontier: tuple = (),
    ):
        super().__init__(message)
        self.objective = objective
        self.frontier = tuple(frontier)


class ExecutionError(ReproError):
    """A plan failed during execution."""


class StatisticsError(ReproError):
    """A statistics structure was fed inconsistent or out-of-domain feedback."""
