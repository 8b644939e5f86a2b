"""Cost-attributed observability: tracing and EXPLAIN.

PayLess's value proposition is *explaining where the money goes*, so this
package makes cost attribution a first-class optimizer output rather than
a log afterthought:

* :mod:`repro.obs.trace` — a :class:`Tracer` of typed spans threaded
  through the planner → rewriter → executor → transport pipeline.  Every
  dollar billed during a query is attributable to exactly one
  ``market_call`` span; memo hits, plan candidates, and local evaluation
  get spans too.  Disabled by default at near-zero overhead.
* :mod:`repro.obs.explain` — renderers for ``EXPLAIN`` (the chosen plan
  with estimated transactions and the rewriter's coverage/remainder
  boxes) and ``EXPLAIN ANALYZE`` (the same tree annotated with actuals:
  est-vs-actual transactions, cache-served vs purchased rows, wasted
  dollars), plus the ``--trace-json`` machine rendering.

Counts (queries, memo and plan-cache hit rates, coverage ratio, breaker
transitions) are not kept here: :meth:`~repro.core.payless.PayLess.metrics`
reads them off the installation's own components.
"""

from repro.obs.explain import (
    render_explain,
    render_explain_analyze,
    trace_to_dict,
    trace_to_json,
)
from repro.obs.trace import QueryTrace, Span, Tracer

__all__ = [
    "QueryTrace",
    "Span",
    "Tracer",
    "render_explain",
    "render_explain_analyze",
    "trace_to_dict",
    "trace_to_json",
]
