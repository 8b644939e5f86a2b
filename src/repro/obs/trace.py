"""Structured query tracing: typed spans over the whole query pipeline.

One :class:`QueryTrace` is recorded per executed query (when tracing is
enabled) and holds a tree of :class:`Span` objects:

===================  ==========================================================
span kind            what it covers / key attributes
===================  ==========================================================
``query``            the root; label = SQL text or a caller-supplied tag
``parse``            SQL → :class:`~repro.relational.query.LogicalQuery`
``plan``             the optimizer run; ``evaluated_plans``, ``cost``
``plan_candidate``   zero-width event per candidate considered by the DP;
                     ``tables``, ``cost``, ``accepted`` (False = rejected)
``rewrite``          one uncached semantic rewrite; ``table``, ``remainder``,
                     ``estimated_transactions``, ``fully_covered``
``memo``             zero-width event per memoized rewrite probe; ``hit``
``table_fetch``      one executed market-table access; ``table``, ``source``
                     (``access`` | ``bound`` | ``covered``), ``purchased_rows``,
                     ``cache_served_rows``, and the account of its calls
``market_call``      one logical REST call within a table fetch; ``url``,
                     ``attempts``, ``replayed``, ``rows``, ``failed``,
                     ``elapsed_ms`` (simulated), and the account of the call
``stage``            staging one table into the local DBMS; ``table``, ``rows``
``local_eval``       the final local evaluation; ``output_rows``
===================  ==========================================================

An *account* is the :class:`~repro.core.purchase.CallAccount` of the
calls under the span: ``calls``, ``records``, ``transactions`` /
``price`` (spent), ``billed_*``, ``wasted_*``, ``retries``,
``faults_injected``, ``replays``, ``failed_calls``, ``coalesced_fetches``,
``coalesced_savings_*`` and ``covered_skips`` — so the call spans of a
fetch sum to it, and a query's fetch spans to its ``QueryStats``.

Thread-safety contract: spans are opened and closed on the querying
thread through :meth:`Tracer.span`/:meth:`Tracer.event`, which maintain a
*thread-local* span stack.  A remainder call, which may run on the event
loop, never touches that stack: it times itself into a :class:`Span` of
its own, and the querying thread adopts the finished call spans in
request order (:meth:`Span.adopt`).  Nothing concurrent ever mutates a
shared span list.

Overhead contract: a disabled tracer must cost one attribute check on the
hot paths.  What runs per candidate or per row guards with the idiom::

    tracer = context.tracer
    if tracer.enabled:
        tracer.event("plan_candidate", tables=..., cost=...)

so no argument is packed for a span nobody records; what runs once per
query or per table access (``query_scope``, ``plan``, ``table_fetch``,
``local_eval``, ``replan``) calls :meth:`Tracer.span` unconditionally and
gets its shared no-op context, the body reading ``span is not None``.
``benchmarks/bench_trace_overhead.py`` measures both the guard cost and
the enabled-tracing overhead.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


def _now_ms() -> float:
    return time.perf_counter() * 1000.0


class Span:
    """One timed, attributed step of a query.  Not thread-safe by itself —
    see the module docstring for the single-writer/adopt discipline."""

    __slots__ = ("kind", "start_ms", "end_ms", "attrs", "children")

    def __init__(
        self,
        kind: str,
        start_ms: float,
        attrs: dict[str, Any] | None = None,
    ):
        self.kind = kind
        self.start_ms = start_ms
        self.end_ms: float | None = None
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list["Span"] = []

    # -- recording -----------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, end_ms: float | None = None) -> "Span":
        self.end_ms = end_ms if end_ms is not None else _now_ms()
        return self

    def adopt(self, child: "Span") -> "Span":
        """Attach a detached child span (caller must be the single writer)."""
        self.children.append(child)
        return child

    # -- reading -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        return (self.end_ms if self.end_ms is not None else self.start_ms) - self.start_ms

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
        }
        if self.attrs:
            data["attrs"] = {
                key: _jsonable(value) for key, value in self.attrs.items()
            }
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def __repr__(self) -> str:
        return (
            f"Span({self.kind}, {self.duration_ms:.3f}ms, "
            f"{len(self.children)} children, {self.attrs!r})"
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(item) for item in value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class QueryTrace:
    """The span tree of one executed (or explained) query."""

    __slots__ = ("label", "root")

    def __init__(self, label: str, root: Span):
        self.label = label
        self.root = root

    def spans(self, kind: str | None = None) -> list[Span]:
        """All spans (depth-first), optionally filtered by kind."""
        found = list(self.root.walk())
        if kind is None:
            return found
        return [span for span in found if span.kind == kind]

    def find(self, kind: str) -> Span | None:
        for span in self.root.walk():
            if span.kind == kind:
                return span
        return None

    def to_dict(self) -> dict[str, Any]:
        return {"label": self.label, "root": self.root.to_dict()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def __repr__(self) -> str:
        return f"QueryTrace({self.label!r}, {len(self.spans())} spans)"


class _NullContext:
    """A reusable no-op context manager for the disabled-tracer path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Records :class:`QueryTrace` objects for the queries of one installation.

    ``enabled`` is a plain attribute so callers can keep the disabled-path
    overhead to a single check (see the module docstring), and so EXPLAIN
    ANALYZE can flip tracing on for exactly one query.  ``clock`` is
    injectable for deterministic tests.
    """

    def __init__(
        self,
        enabled: bool = False,
        clock: Callable[[], float] = _now_ms,
        keep: int = 64,
    ):
        self.enabled = enabled
        self.clock = clock
        #: Completed traces, most recent last (bounded ring).
        self.traces: list[QueryTrace] = []
        #: How many completed traces to retain.
        self.keep = keep
        self._local = threading.local()
        #: Guards the shared ``traces`` ring only — per-thread span stacks
        #: need no lock, but concurrent sessions all archive here.
        self._traces_lock = threading.Lock()

    # -- trace lifecycle -------------------------------------------------------

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> QueryTrace | None:
        return getattr(self._local, "trace", None)

    def begin_query(self, label: str) -> QueryTrace | None:
        """Open a trace (and its root ``query`` span) for one query."""
        if not self.enabled:
            return None
        root = Span("query", self.clock(), {"label": label})
        trace = QueryTrace(label, root)
        self._local.trace = trace
        self._stack.append(root)
        return trace

    def end_query(self) -> QueryTrace | None:
        """Close the active trace and archive it."""
        trace = self.active
        if trace is None:
            return None
        stack = self._stack
        # Close anything an exception left open, root included.
        while stack:
            span = stack.pop()
            if not span.finished:
                span.finish(self.clock())
        self._local.trace = None
        with self._traces_lock:
            self.traces.append(trace)
            if len(self.traces) > self.keep:
                del self.traces[: len(self.traces) - self.keep]
        return trace

    def query_scope(self, label: str):
        """Context manager owning one query's trace, begin to end.

        Re-entrant: the outermost scope of a call opens the trace and —
        however the call ends — closes and archives it; a scope entered
        while a trace is already active (or with tracing off) is a no-op.
        Nothing can therefore raise between a begin and its end.
        """
        if not self.enabled or self.active is not None:
            return _NULL_CONTEXT
        return self._query_context(label)

    @contextmanager
    def _query_context(self, label: str):
        self.begin_query(label)
        try:
            yield
        finally:
            self.end_query()

    @property
    def last(self) -> QueryTrace | None:
        return self.traces[-1] if self.traces else None

    # -- span recording --------------------------------------------------------

    def span(self, kind: str, **attrs: Any):
        """Context manager opening a child span of the current span.

        Returns a no-op context when disabled or when no trace is active,
        so call sites never need a second guard — though hot paths should
        still check ``tracer.enabled`` first to skip argument packing.
        """
        if not self.enabled or self.active is None:
            return _NULL_CONTEXT
        return self._span_context(kind, attrs)

    @contextmanager
    def _span_context(self, kind: str, attrs: dict[str, Any]):
        stack = self._stack
        span = Span(kind, self.clock(), attrs)
        if stack:
            stack[-1].adopt(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.finish(self.clock())
            if stack and stack[-1] is span:
                stack.pop()

    def event(self, kind: str, **attrs: Any) -> Span | None:
        """Record a zero-width span on the current span (memo hit, candidate)."""
        if not self.enabled or self.active is None:
            return None
        stack = self._stack
        now = self.clock()
        span = Span(kind, now, attrs).finish(now)
        if stack:
            stack[-1].adopt(span)
        return span

    def current_span(self) -> Span | None:
        stack = self._stack
        return stack[-1] if stack else None

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.traces)} traces kept)"
