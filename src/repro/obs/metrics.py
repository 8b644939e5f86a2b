"""Process-wide metrics: counters, gauges, histograms in one registry.

Zero-dependency, thread-safe, and deliberately small: the registry exists
so long-running installations (and the bench harness) can answer "what has
this process been doing?" without replaying traces.  The default
process-wide registry is :data:`REGISTRY`; a :class:`~repro.core.payless.
PayLess` installation can be handed a private one for isolation (tests do).

Metric names used by the pipeline:

=================================  ==========================================
``queries``                        counter — queries executed
``transactions_spent``             counter — market transactions spent
``cents_spent``                    counter — money spent, in cents
``cents_wasted``                   counter — money wasted on failures
``memo_hits`` / ``memo_misses``    counters — rewrite-memo outcomes
``rewrites`` / ``rewrites_covered``  counters — rewrites, and those the
                                   store fully covered (coverage ratio)
``fetch_pool_high_water``          gauge — max concurrently in-flight
                                   market calls observed in one batch
``breaker_transitions``            counter — circuit state changes
``breaker_opens``                  counter — transitions into OPEN
``fetch_batch_size``               histogram — remainder calls per access
``query_transactions``             histogram — transactions per query
``plan_candidates``                counter — candidate (sub)plans evaluated
``plan_candidates_pruned``         counter — candidates rejected because
                                   an incumbent over the same table set is
                                   at least as good on every axis
``plan_cache_hits`` / ``..misses``  counters — plan-cache outcomes
``plan_cache_invalidations``       counter — entries dropped on epoch or
                                   clock change
``plan_cache_evictions``           counter — entries dropped by LRU
``planning_us``                    histogram — planning wall-clock, µs
``fetch_coalesced``                counter — market fetches answered by
                                   joining another session's in-flight call
``fetch_coalesce_wait_us``         histogram — waiter wall-clock until the
                                   leader's response arrived, µs
``dollars_saved_coalescing``       counter — market dollars the coalesced
                                   fetches would have cost
=================================  ==========================================

Derived ratios (memo hit rate, store coverage ratio, plan-cache hit
rate) are computed at snapshot time and appear in
:meth:`MetricsRegistry.snapshot` under ``memo_hit_rate``,
``store_coverage_ratio``, and ``plan_cache_hit_rate``.
"""

from __future__ import annotations

import threading
from typing import Any


class Counter:
    """A monotonically increasing float counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value with a remembered maximum (high-water mark)."""

    __slots__ = ("name", "_value", "_max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value

    def set_max(self, value: float) -> None:
        """Raise the high-water mark without disturbing the current value."""
        with self._lock:
            if value > self._max:
                self._max = value
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max


class Histogram:
    """Count/sum/min/max summary of observed values (no buckets needed)."""

    __slots__ = ("name", "count", "total", "_min", "_max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0


class MetricsRegistry:
    """A named collection of metrics with a flat snapshot view."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, factory):
        metric = self._metrics.get(name)
        if metric is not None:
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = factory(name)
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def reset(self) -> None:
        """Drop every metric (tests and fresh bench runs)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> dict[str, float]:
        """A flat, JSON-ready view of every metric, plus derived ratios.

        Counters appear under their name; gauges add ``<name>_max``;
        histograms expand to ``_count`` / ``_sum`` / ``_mean`` / ``_max``.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, float] = {}
        for metric in metrics:
            if isinstance(metric, Counter):
                out[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                out[metric.name] = metric.value
                out[f"{metric.name}_max"] = metric.max
            elif isinstance(metric, Histogram):
                out[f"{metric.name}_count"] = float(metric.count)
                out[f"{metric.name}_sum"] = metric.total
                out[f"{metric.name}_mean"] = metric.mean
                out[f"{metric.name}_max"] = metric.max
        hits = out.get("memo_hits", 0.0)
        misses = out.get("memo_misses", 0.0)
        if hits + misses:
            out["memo_hit_rate"] = hits / (hits + misses)
        rewrites = out.get("rewrites", 0.0)
        if rewrites:
            out["store_coverage_ratio"] = (
                out.get("rewrites_covered", 0.0) / rewrites
            )
        plan_hits = out.get("plan_cache_hits", 0.0)
        plan_misses = out.get("plan_cache_misses", 0.0)
        if plan_hits + plan_misses:
            out["plan_cache_hit_rate"] = plan_hits / (plan_hits + plan_misses)
        return out


#: The process-wide default registry (installations may use private ones).
REGISTRY = MetricsRegistry()
