"""The end-to-end benchmark's traced pass still finds every layer boundary.

``benchmarks/e2e/tracing.py`` records spans by patching names it looks up
by string — ``Executor.execute``, the module global
``repro.core.executor.evaluate``, ``transport.fetch``, ``store.record``,
``rewriter.rewrite``, ``market.get`` and more.  A renamed or bypassed name
crashes the traced pass or silently records nothing, so one join query and
one ``explain`` on a tiny installation must leave a span at each of them.
"""

from __future__ import annotations

import importlib.util
import pathlib

from repro.testing import registered_payless, tiny_weather_market

TRACING = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "e2e"
    / "tracing.py"
)

JOIN_SQL = (
    "SELECT s.City, w.Temperature FROM Station s, Weather w "
    "WHERE s.Country = w.Country AND s.StationID = w.StationID "
    "AND w.Date >= 1 AND w.Date <= 5"
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_records_a_span():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    payless = registered_payless(tiny_weather_market())
    planned: list = []
    try:
        # attach_process patches Executor and Optimizer for the whole
        # process: restore() below must run whatever happens here.
        tracing.attach_process(tracer, planned)
        tracing.attach_installation(tracer, payless)
        result = payless.query(JOIN_SQL)
        payless.explain(JOIN_SQL)
    finally:
        tracer.restore()
        payless.close()
    assert result.rows and result.stats.calls > 0
    recorded = {name for __, name, *__ in tracer.drain()}
    for name in (
        "payless.query",
        "payless.explain",
        "executor.execute",
        "relational.evaluate",
        "transport.fetch",
        "semstore.record",
        "rewriter.rewrite",
        "market.get",
    ):
        assert name in recorded, name
    assert planned
