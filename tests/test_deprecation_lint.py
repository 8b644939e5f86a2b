"""The retired compatibility layer stays retired.

``PayLess(transport=/engine=/max_concurrent_calls=/prune_bounding_boxes=)``,
``options=OptimizerOptions(...)``, the flat ``QueryResult`` stat
attributes and the ``save_state``/``load_state`` JSON blob were removed,
not deprecated: there is one way to configure an installation
(``options=QueryOptions(...)``), one way to read a bill
(``result.stats``) and one way to persist buyer state
(``QueryOptions(durability=...)`` + ``recover()``).  CI runs this file
as the removed-surface step.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib

import pytest

import repro.core
from repro.core.objectives import QueryOptions
from repro.core.payless import PayLess, QueryResult
from repro.semstore.store import TableStore

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The stats that used to be readable directly off ``QueryResult``.
FORMER_FLAT_STATS = (
    "transactions",
    "price",
    "calls",
    "fetched_records",
    "evaluated_plans",
    "enumerated_boxes",
    "kept_boxes",
    "market_time_ms",
    "market_time_critical_path_ms",
    "retries",
    "faults_injected",
    "replays",
    "wasted_transactions",
    "wasted_price",
    "failed_fetches",
    "complete",
)


def test_payless_init_takes_exactly_the_documented_parameters():
    assert list(inspect.signature(PayLess.__init__).parameters) == [
        "self",
        "market",
        "local_db",
        "consistency",
        "options",
        "statistic",
        "tracing",
        "metrics",
    ]


@pytest.mark.parametrize("name", FORMER_FLAT_STATS)
def test_query_result_has_no_flat_stat_attribute(name):
    assert not hasattr(QueryResult, name)


def test_json_persistence_path_is_gone():
    assert not hasattr(repro.core, "save_state")
    assert not hasattr(repro.core, "load_state")
    assert importlib.util.find_spec("repro.core.persistence") is None
    for name in ("restore_row", "restore_cover", "bulk_restore"):
        assert not hasattr(TableStore, name)


def test_option_coercion_helpers_are_gone():
    assert not hasattr(QueryOptions, "from_optimizer_options")
    assert not hasattr(PayLess, "_coerce_options")


def test_library_emits_no_deprecation_warnings():
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if "DeprecationWarning" in (text := path.read_text())
        or "warnings.warn" in text
    ]
    assert not offenders, offenders
