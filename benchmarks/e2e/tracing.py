"""Spans recorded from outside the program.

The traced run wraps the public entry point of each layer — an instance
attribute (``payless.rewriter.rewrite``), a class attribute
(``Optimizer.optimize``) or the imported name at the call site
(``repro.core.executor.evaluate``) — and puts the originals back when the
repetition ends.  Nothing under ``src/`` is edited and neither
``repro.obs.trace`` nor the metrics registry is read: both are slated for
rework, and the benchmark has to judge that rework.

A span is ``(id, name, start, end, parent, op)``.  Spans of one operation
share ``op``; the root span of an operation is the facade call
(``payless.query`` / ``payless.explain``).  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover
(children may run in parallel on the transport's pool threads, so the
cover is an interval union, not a sum).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    """Wraps callables in span recorders and restores them afterwards."""

    def __init__(self) -> None:
        #: Finished spans, appended at span end (``list.append`` is atomic).
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count()
        self._local = threading.local()
        #: ``id(QueryScope)`` -> (scope, op, parent span).  The scope object
        #: is kept so its id cannot be reused while the entry is live.
        self._scopes: dict[int, tuple] = {}
        self._undo: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original back (instance patches are deleted so the
        class attribute shows through again)."""
        while self._undo:
            owner, attr, had_own, original = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._scopes.clear()

    def wrap(self, owner, attr: str, name: str, root: bool = False,
             adopt=None, note=None) -> None:
        """Record a span named ``name`` around ``owner.attr``.

        ``root`` marks the facade calls that open an operation.  ``adopt``
        (same signature as the callable) supplies ``(op, parent)`` when the
        call arrives on a thread with no open span — the transport's pool
        threads.  ``note`` receives the return value (to read counts off a
        public result object at the boundary where the work happened).
        """
        original = getattr(owner, attr)
        spans, ids, ops = self.spans, self._ids, self._ops
        local, clock = self._local, time.perf_counter

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.op = None
            if stack:
                parent = stack[-1]
            elif root:
                local.op, parent = next(ops), None
            elif adopt is not None:
                local.op, parent = adopt(*args, **kwargs)
            else:
                local.op, parent = None, None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, local.op))
            if note is not None:
                note(result)
            return result

        self._patch(owner, attr, wrapper)

    def tie_scopes(self, transport) -> None:
        """Remember which operation opened each per-query ``QueryScope``.

        The executor passes that scope to ``MarketTransport.fetch`` from
        its pool threads; :meth:`scope_owner` turns it back into the
        operation and the span the fetch belongs under.
        """
        original = transport.new_scope
        local, scopes = self._local, self._scopes

        def new_scope():
            scope = original()
            stack = getattr(local, "stack", None)
            if stack:
                scopes[id(scope)] = (scope, local.op, stack[-1])
            return scope

        self._patch(transport, "new_scope", new_scope)

    def scope_owner(self, request, scope=None):
        entry = self._scopes.get(id(scope))
        return (entry[1], entry[2]) if entry is not None else (None, None)

    # -- reading --------------------------------------------------------------

    def drain(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans[:] = list(self.spans), []
        self._scopes.clear()
        return spans


def _covered(start: float, end: float, intervals: list[tuple]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    children: dict[int, list[tuple]] = defaultdict(list)
    for __, __name, start, end, parent, __op in spans:
        if parent is not None:
            children[parent].append((start, end))
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span_id, name, start, end, __, __op in spans:
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += (end - start) - _covered(
            start, end, children.get(span_id, ())
        )
    return layers


def write_jsonl(path, repetitions: list[list[tuple]]) -> None:
    """One span per line: name, start, end, parent, op (and repetition)."""
    with open(path, "w") as handle:
        for rep, spans in enumerate(repetitions):
            for span_id, name, start, end, parent, op in spans:
                handle.write(
                    json.dumps(
                        {
                            "rep": rep,
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "op": op,
                        }
                    )
                )
                handle.write("\n")


# -- where the layer boundaries of this program are ---------------------------


def attach_process(tracer: Tracer, planned: list) -> None:
    """Wrap the boundaries that are names in a module or on a class: they
    are shared by every installation of the process, so wrap them once.

    ``planned`` collects each ``PlanningResult`` the optimizer returns, so
    plan and box counts are those of planning work actually done (a plan
    served from the cache reports the counts of the run that made it).
    """
    import repro.core.executor as executor_module
    import repro.core.payless as payless_module
    import repro.core.plancache as plancache_module
    from repro.core.executor import Executor
    from repro.core.optimizer import Optimizer

    tracer.wrap(plancache_module, "parse", "sqlparser.parse")
    tracer.wrap(payless_module, "analyze", "sqlparser.analyze")
    tracer.wrap(Optimizer, "optimize", "optimizer.optimize", note=planned.append)
    tracer.wrap(Executor, "execute", "executor.execute")
    tracer.wrap(executor_module, "evaluate", "relational.evaluate")


def attach_installation(tracer: Tracer, payless) -> None:
    """Wrap the boundaries that are attributes of one installation."""
    wrap = tracer.wrap
    wrap(payless, "query", "payless.query", root=True)
    wrap(payless, "explain", "payless.explain", root=True)
    wrap(payless.plan_cache, "lookup", "plancache.lookup")
    wrap(payless.rewriter, "rewrite", "rewriter.rewrite")
    wrap(payless.store, "record", "semstore.record")
    wrap(payless.store, "remainder", "semstore.remainder")
    wrap(payless.store, "columns_in_boxes", "semstore.assemble")
    for dataset in payless.market:
        for market_table in dataset:
            if payless.catalog.has_table(market_table.name):
                histogram = payless.catalog.statistics(market_table.name).histogram
                wrap(histogram, "observe", "stats.observe")
    transport = payless.context.transport
    tracer.tie_scopes(transport)
    wrap(transport, "fetch", "transport.fetch", adopt=tracer.scope_owner)
    wrap(payless.market, "get", "market.get")
    durability = payless.durability
    if durability is not None:
        wrap(durability, "begin_intent", "durable.intent")
        for attr in ("log_purchase", "log_wasted", "log_abort", "log_query", "log_clock"):
            wrap(durability, attr, "durable.append")
        wrap(durability, "commit", "durable.commit")
        wrap(durability, "snapshot", "durable.snapshot")
