"""EXPLAIN / EXPLAIN ANALYZE renderers and the trace JSON encoding.

``EXPLAIN`` renders the plan the optimizer chose — per-node estimated
dollars and rows, plus, for every market access, the semantic
rewriter's verdict: how much of the request region the store already
covers and exactly which remainder boxes would be bought (or, for an
access bought whole, the rent-or-buy comparison that decided it).  It
never contacts the market.

``EXPLAIN ANALYZE`` renders the same tree after actually executing the
query with tracing on, annotating each market access with actuals:
est-vs-actual dollars, purchased vs cache-served rows, retries,
billing replays, and dollars wasted on failed calls.  The annotations are
read from the query's :class:`~repro.obs.trace.QueryTrace`, pairing each
``MarketAccessNode`` with its ``table_fetch`` span in plan order.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    MarketAccessNode,
    PlanNode,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.optimizer import PlanningResult
    from repro.obs.trace import QueryTrace, Span


def _fmt(value: float) -> str:
    """Stable, golden-friendly number rendering (no float noise)."""
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _constraint_str(constraint) -> str:
    if constraint.is_point:
        return f"{constraint.attribute}={constraint.value!r}"
    if constraint.is_set:
        values = ",".join(repr(v) for v in sorted(constraint.values, key=repr))
        return f"{constraint.attribute} in {{{values}}}"
    low = constraint.low if constraint.low is not None else ""
    high = constraint.high if constraint.high is not None else ""
    return f"{constraint.attribute}=[{low},{high})"


def _remainder_str(query) -> str:
    rendered = " & ".join(_constraint_str(c) for c in query.constraints)
    return (
        f"buy {rendered or '<whole table>'} "
        f"≈ {query.estimated_transactions} trans / "
        f"{_fmt(query.estimated_rows)} rows"
    )


#: Remainder boxes listed per access before eliding the rest.
MAX_REMAINDER_LINES = 6


def _coverage_lines(node: MarketAccessNode, pad: str) -> list[str]:
    rewrite = node.rewrite
    if rewrite is None:
        return []
    lines = []
    if rewrite.fully_covered:
        lines.append(
            f"{pad}coverage: store fully covers "
            f"{len(rewrite.request_boxes)} request box(es) — free"
        )
        return lines
    whole = rewrite.whole_table
    lines.append(
        f"{pad}coverage: {len(rewrite.request_boxes)} request box(es), "
        f"{len(rewrite.remainder)} remainder call(s) "
        f"≈ {rewrite.estimated_transactions} trans"
        + (
            " [whole table]"
            if whole
            else " [rewritten]" if rewrite.used_rewriting else " [direct]"
        )
    )
    for query in rewrite.remainder[:MAX_REMAINDER_LINES]:
        lines.append(f"{pad}  {_remainder_str(query)}")
    hidden = len(rewrite.remainder) - MAX_REMAINDER_LINES
    if hidden > 0:
        lines.append(f"{pad}  … {hidden} more remainder call(s)")
    if whole:
        lines.append(
            f"{pad}whole table: spent ${whole.spent:g} + this access "
            f"${whole.access:g} > ${whole.bar:g}"
        )
    return lines


class _FetchSpans:
    """Pairs plan market accesses with their ``table_fetch`` spans in order."""

    def __init__(self, trace: "QueryTrace | None"):
        spans = trace.spans("table_fetch") if trace is not None else []
        self._accesses = [
            s for s in spans if s.attrs.get("source") in ("access", "bound")
        ]
        self._covered = [s for s in spans if s.attrs.get("source") == "covered"]
        self._next_access = 0

    def for_access(self, table: str) -> "Span | None":
        while self._next_access < len(self._accesses):
            span = self._accesses[self._next_access]
            self._next_access += 1
            if span.attrs.get("table", "").lower() == table.lower():
                return span
        return None

    def for_covered(self, table: str) -> "Span | None":
        for span in self._covered:
            if span.attrs.get("table", "").lower() == table.lower():
                return span
        return None


def _divergence(estimated: float, actual: float) -> str:
    """actual/estimated as a misestimation factor, e.g. ``×2.50``.

    ``inf`` when something materialized out of a zero estimate; ``1.00``
    when both sides are zero (a correctly-predicted free access).
    """
    if estimated <= 0:
        return "inf" if actual > 0 else "1.00"
    return f"{actual / estimated:.2f}"


def _actuals_lines(span: "Span | None", estimated: float, pad: str) -> list[str]:
    if span is None:
        return [f"{pad}actual: not executed (empty bindings or skipped)"]
    attrs = span.attrs
    calls = attrs.get("calls", 0)
    transactions = attrs.get("transactions", 0)
    price = attrs.get("price", 0.0)
    lines = [
        f"{pad}actual: ${_fmt(estimated)} est → "
        f"{transactions} trans (${price:g}) in {calls} call(s), "
        f"divergence ×{_divergence(estimated, price)}"
    ]
    lines.append(
        f"{pad}rows: {attrs.get('purchased_rows', 0)} purchased, "
        f"{attrs.get('cache_served_rows', 0)} cache-served"
    )
    retries = attrs.get("retries", 0)
    replays = attrs.get("replays", 0)
    failed = attrs.get("failed_calls", 0)
    wasted = attrs.get("wasted_price", 0.0)
    if retries or replays or failed or wasted:
        lines.append(
            f"{pad}faults: {retries} retries, {replays} billing replays, "
            f"{failed} failed call(s), ${wasted:g} wasted"
        )
    return lines


def _render_node(
    node: PlanNode,
    indent: int,
    lines: list[str],
    fetches: _FetchSpans | None,
) -> None:
    pad = " " * indent
    detail_pad = " " * (indent + 4)
    if isinstance(node, JoinNode):
        lines.append(
            f"{pad}{node.symbol} est ${_fmt(node.cost)}, "
            f"rows≈{_fmt(node.estimated_rows)}"
        )
        _render_node(node.left, indent + 2, lines, fetches)
        _render_node(node.right, indent + 2, lines, fetches)
        return
    if isinstance(node, LocalBlockNode):
        covered = (
            f" (covered market: {', '.join(node.covered_market_tables)})"
            if node.covered_market_tables
            else ""
        )
        lines.append(
            f"{pad}LocalBlock({', '.join(node.tables)}){covered} "
            f"rows≈{_fmt(node.estimated_rows)}"
        )
        if fetches is not None:
            for table in node.covered_market_tables:
                span = fetches.for_covered(table)
                if span is not None:
                    lines.append(
                        f"{detail_pad}{table}: "
                        f"{span.attrs.get('cache_served_rows', 0)} rows served "
                        f"from store, {span.attrs.get('transactions', 0)} trans"
                    )
        return
    if isinstance(node, MarketAccessNode):
        bind = (
            f" bind({', '.join(node.bind_attributes)})"
            f"×{_fmt(node.estimated_bindings)}"
            if node.bind_attributes
            else ""
        )
        lines.append(
            f"{pad}MarketAccess({node.table}){bind} "
            f"est ${_fmt(node.cost)}, rows≈{_fmt(node.estimated_rows)}"
        )
        lines.extend(_coverage_lines(node, detail_pad))
        if fetches is not None:
            lines.extend(
                _actuals_lines(
                    fetches.for_access(node.table), node.cost, detail_pad
                )
            )
        return
    lines.append(f"{pad}{type(node).__name__} est ${_fmt(node.cost)}")


def _planner_line(planning: "PlanningResult") -> str:
    return (
        f"planner: {planning.kept_plans} candidate(s) kept, "
        f"{planning.pruned_plans} pruned; "
        f"plan cache {planning.cache_status}"
    )


#: Pareto points listed in EXPLAIN before eliding the rest.
MAX_FRONTIER_POINTS = 6


def _objective_lines(planning: "PlanningResult") -> list[str]:
    """The objective / frontier / chosen-point block.

    Empty under the default min-dollars objective, so historical EXPLAIN
    output (and its goldens) stay byte-identical.
    """
    objective = getattr(planning, "objective", None)
    if objective is None or objective.is_default:
        return []
    points = list(planning.frontier)
    rendered = ", ".join(
        f"(${_fmt(cost)}, {_fmt(latency)} ms)"
        for cost, latency in points[:MAX_FRONTIER_POINTS]
    )
    hidden = len(points) - MAX_FRONTIER_POINTS
    if hidden > 0:
        rendered += f", … {hidden} more"
    chosen = (
        f"chosen: (${_fmt(planning.cost)}, "
        f"{_fmt(planning.latency_ms)} ms)"
    )
    if planning.objective_note:
        chosen += f" — {planning.objective_note}"
    return [
        f"objective: {objective.describe()}",
        f"pareto frontier: {len(points)} point(s): {rendered}",
        chosen,
    ]


def render_explain(planning: "PlanningResult", label: str | None = None) -> str:
    """The EXPLAIN rendering: estimated plan + coverage, market untouched."""
    lines = [f"EXPLAIN {label}" if label else "EXPLAIN"]
    _render_node(planning.plan, 0, lines, None)
    lines.append(_planner_line(planning))
    lines.extend(_objective_lines(planning))
    lines.append(
        f"estimated: ${_fmt(planning.cost)}; "
        f"{planning.evaluated_plans} candidate plan(s) evaluated; "
        f"{planning.kept_boxes}/{planning.enumerated_boxes} "
        f"bounding boxes kept"
    )
    return "\n".join(lines)


def render_explain_analyze(
    planning: "PlanningResult",
    stats,
    trace: "QueryTrace | None",
    label: str | None = None,
) -> str:
    """The EXPLAIN ANALYZE rendering: the plan annotated with actuals."""
    lines = [f"EXPLAIN ANALYZE {label}" if label else "EXPLAIN ANALYZE"]
    _render_node(planning.plan, 0, lines, _FetchSpans(trace))
    eval_span = trace.find("local_eval") if trace is not None else None
    if eval_span is not None:
        attrs = eval_span.attrs
        rate = attrs.get("rows_per_sec", 0.0)
        lines.append(
            f"local eval: {attrs.get('input_rows', 0)} rows in → "
            f"{attrs.get('output_rows', 0)} rows out, "
            f"{attrs.get('eval_ms', 0.0):.2f} ms "
            f"({rate:,.0f} rows/sec)"
        )
    lines.append(_planner_line(planning))
    lines.extend(_objective_lines(planning))
    lines.append(
        f"estimated: ${_fmt(planning.cost)}; "
        f"actual: {stats.transactions} transactions, "
        f"{stats.calls} call(s), ${stats.price:g}"
    )
    lines.append(
        f"latency: est {_fmt(planning.latency_ms)} ms → "
        f"actual {stats.market_time_ms:.1f} ms market "
        f"(critical path {stats.market_time_critical_path_ms:.1f} ms)"
    )
    if stats.retries or stats.replays or stats.wasted_transactions:
        lines.append(
            f"transport: {stats.retries} retries, {stats.replays} replays, "
            f"{stats.wasted_transactions} transactions wasted "
            f"(${stats.wasted_price:g})"
        )
    if stats.failed_fetches:
        lines.append(
            f"partial: {len(stats.failed_fetches)} region(s) not bought"
        )
    if getattr(stats, "replans", 0):
        lines.append(
            f"adaptive: {stats.replans} mid-query re-plan(s), "
            f"est ${stats.replan_dollars_saved_est:g} suffix saved"
        )
    return "\n".join(lines)


def trace_to_dict(trace: "QueryTrace") -> dict[str, Any]:
    return trace.to_dict()


def trace_to_json(trace: "QueryTrace", indent: int | None = 2) -> str:
    return json.dumps(trace.to_dict(), indent=indent)
