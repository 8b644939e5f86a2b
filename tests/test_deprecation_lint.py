"""The retired compatibility layer stays retired.

``PayLess(transport=/engine=/max_concurrent_calls=/prune_bounding_boxes=)``,
``options=OptimizerOptions(...)``, the flat ``QueryResult`` stat
attributes and the ``save_state``/``load_state`` JSON blob were removed,
not deprecated: there is one way to configure an installation
(``options=QueryOptions(...)``), one way to read a bill
(``result.stats``) and one way to persist buyer state
(``QueryOptions(durability=...)`` + ``recover()``).  Branch-and-bound
planner pruning (``prune=``, ``--no-prune``, ``plan_bnb_fallbacks``) and
the async copy of the singleflight protocol went the same way: the DP
has no bounding device, one call machine serves both fetch drivers.  The
second copies of the configuration and of the per-query account went
too: ``OptimizerOptions`` / ``QueryOptions.optimizer_options()`` /
``PayLess.options`` (every layer reads ``context.options``),
``ExecutionResult`` (``Executor.execute`` returns the ``QueryStats``),
the static twin of the plan walk, and the knob nothing read
(``QueryOptions.coalesce``).  And the second multi-user front end:
``Organization`` / ``UserSession`` (``core/organization.py``),
``BudgetedPayLess`` / ``BudgetReport``, ``execute_batch`` /
``BatchResult`` and ``PayLess.query_batch`` — sessions, deferred batches
and budgets live on the scheduler (``repro.serve``).  And the second and
third copies of what a query's calls cost: the ledger's attribution
tokens (``attribute``, ``fetch_token``, ``checkpoint``,
``entries_since``, ``entries_for_token``), the ``QueryScope`` tallies
and their ``note_*`` methods, and the registry copy
``QueryStats.metrics`` — each call's outcome carries its account, and
spans and stats are folds over the outcomes.  ``async_pool_size`` went
with them (only its default was ever set).  And the buyer's copies of
Equation (1): ``bounding_boxes._price``, ``Optimizer._objective_cost``,
``PlanningContext.tuples_per_transaction``,
``stats.transactions_for_estimate`` and ``QueryOptions.cost_metric`` —
the planner prices through the dataset's ``PricingPolicy``, and the
Minimizing-Calls competitor is the same planner under its own schedule.
And the process-wide ``MetricsRegistry`` / ``REGISTRY``
(``repro.obs.metrics``), the ``metrics=`` parameter that threaded it
through the installation, and the ``perf_counter`` timers beside the
tracer: ``PayLess.metrics()`` reads the counters the components keep.
And the second switch for "PayLess w/o SQR": ``QueryOptions.use_sqr``,
``SemanticRewriter(enabled=)`` and the optimizer's per-call
``options=`` that flipped it on the shared rewriter — the no-SQR arms
are strong consistency (Section 4.3).  With them went the overlays of
``TransportConfig`` (``partial_results``, ``max_retries``), the
``prune_bounding_boxes`` arm nothing ran and the ``prefetch`` knob.
And the second fetch driver: the executor's thread pool
(``Executor._call_pool`` / ``close``), ``QueryOptions.transport_mode`` /
``max_concurrent_calls``, ``session --transport`` and
``QueryStats.transport_mode`` — the market's latency model picks the
driver.  And the second way to buy an access: the executor's prefetch
entries and their own record loop, and ``QueryStats``' copy of its
call account (``QueryStats`` *is* a ``CallAccount``, and
``fetched_records`` is ``records``) — one table access is bought by
``repro.core.purchase``, started early or when the walk reaches it.
And the second execution path of the Download-All arm:
``DownloadAllStrategy`` / ``DownloadAllResult``, ``DataMarket.download_table``,
``PayLess.download_all_strategy`` and the harness's per-arm branch —
Download All is rent or buy with a buy threshold of 0
(``PayLess.download_all``), planned, bought, traced and made durable like
every other arm.  And the installation options with one value in use,
now module constants: ``QueryOptions.engine`` with ``session --engine``
/ ``explain --engine``, ``PlanningContext.execution`` and the executor's
operator-set thread (PayLess runs the vectorized engine; the reference
engine is the oracle ``repro.testing`` evaluates with), the retry
schedule ``TransportConfig.backoff_base_ms`` / ``backoff_multiplier`` /
``backoff_max_ms`` / ``jitter`` (``repro.market.transport.BACKOFF_*``),
and ``DurabilityConfig.compact_after`` / ``snapshot_on_close`` /
``resolve_intents`` with ``close(snapshot=)`` (``COMPACT_AFTER``; a
clean close always snapshots, ``recover()`` always rolls intents
forward).  ``core/batch.py`` folded into the scheduler, its one caller.
And the second copy of the buyer's bill: ``PayLess``'s own ``total_*``
counters with their WAL ``q`` payload and snapshot ``"totals"`` block,
and ``DurableBill`` with ``_apply_totals`` / ``_apply_bill_purchase`` —
the installation keeps one ``BuyerBill``, folded per call, and the
running totals are read-only views of it.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import inspect
import pathlib
import re

import pytest

import repro
import repro.core
import repro.core.baselines
import repro.core.bounding_boxes
import repro.core.budget
import repro.core.context
import repro.core.executor
import repro.core.optimizer
import repro.durable
import repro.durable.backend
import repro.obs
import repro.serve.scheduler
import repro.stats
import repro.stats.estimator
from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import SYSTEMS, build_system, run_session
from repro.cli import main
from repro.core.budget import BudgetPolicy
from repro.core.context import PlanningContext
from repro.core.executor import Executor, QueryStats
from repro.core.objectives import QueryOptions
from repro.core.optimizer import Optimizer
from repro.core.payless import PayLess, QueryResult
from repro.core.plancache import PlanCache
from repro.core.rewriter import SemanticRewriter
from repro.durable.backend import DurabilityConfig, DurableStateBackend
from repro.market.aio import AsyncMarketTransport
from repro.market.billing import BillingLedger, LedgerEntry
from repro.market.server import DataMarket
from repro.market.transport import MarketTransport, QueryScope, TransportConfig
from repro.semstore.store import TableStore
from repro.serve import QueryScheduler, ServeConfig, SingleflightGroup
from repro.testing import tiny_weather_market

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


@pytest.mark.parametrize("options", [QueryOptions])
def test_prune_is_not_an_option(options):
    with pytest.raises(TypeError):
        options(prune=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["explain", "--no-prune", "--workload", "real", "SELECT * FROM Station"],
        ["session", "--no-prune", "--workload", "real", "--instances", "1"],
    ],
    ids=["explain", "session"],
)
def test_no_prune_flag_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "--no-prune" in capsys.readouterr().err


def test_a_session_registers_no_fallback_counter():
    data = make_workload("real")
    session = run_session("payless", data, make_instances("real", data, 2))
    assert all(count > 0 for count in session.evaluated_plans)
    assert "plan_bnb_fallbacks" not in session.metrics


#: Everything that used to take the registry as ``metrics=``.
FORMER_METRICS_TAKERS = (
    PayLess,
    PlanningContext,
    PlanCache,
    SingleflightGroup,
    MarketTransport,
    AsyncMarketTransport,
    build_system,
)


def test_the_metrics_registry_is_gone():
    assert importlib.util.find_spec("repro.obs.metrics") is None
    for module in (repro, repro.obs):
        for name in ("MetricsRegistry", "REGISTRY"):
            assert not hasattr(module, name), module.__name__
            assert name not in module.__all__
    for taker in FORMER_METRICS_TAKERS:
        assert "metrics" not in inspect.signature(taker).parameters, taker
    for module in ("optimizer.py", "executor.py", "purchase.py"):
        assert "perf_counter" not in (SRC / "core" / module).read_text()


def test_singleflight_protocol_has_no_async_copy():
    assert not hasattr(Executor, "_coalesced_fetch_async")
    assert not hasattr(Executor, "_coalesced_fetch")


@pytest.mark.parametrize("name", ["OptimizerOptions", "ExecutionResult"])
def test_second_copies_of_the_records_are_gone(name):
    for module in (repro, repro.core, repro.core.executor, repro.core.optimizer):
        assert not hasattr(module, name), module.__name__
        assert name not in getattr(module, "__all__", ())


def mentions(name):
    """The library, example, benchmark and doc files that mention ``name``."""
    root = SRC.parent.parent
    texts = [
        *SRC.rglob("*.py"),
        *(root / "examples").glob("*.py"),
        *(root / "benchmarks").rglob("*.py"),
        *(root / "docs").glob("*.md"),
        root / "README.md",
        root / "DESIGN.md",
    ]
    return [
        str(path.relative_to(root))
        for path in texts
        if name in path.read_text()
    ]


#: The names of the second multi-user front end.
SECOND_FRONT_END = (
    "Organization",
    "UserSession",
    "BudgetedPayLess",
    "BudgetReport",
    "execute_batch",
    "BatchResult",
    "query_batch",
)


@pytest.mark.parametrize("name", SECOND_FRONT_END)
def test_second_multi_user_front_end_is_gone(name):
    for module in (repro, repro.core, repro.serve.scheduler, repro.core.budget):
        assert not hasattr(module, name), module.__name__
        assert name not in getattr(module, "__all__", ())
    assert not hasattr(PayLess, name)
    # Not in the library, and not taught by an example, benchmark or doc.
    assert not mentions(name)


#: The names of the Download-All arm's second execution path.
DOWNLOAD_ALL_PATH = (
    "DownloadAllStrategy",
    "DownloadAllResult",
    "download_table",
    "download_all_strategy",
)


@pytest.mark.parametrize("name", DOWNLOAD_ALL_PATH)
def test_download_all_has_one_path(name):
    for owner in (repro, repro.core, repro.core.baselines, PayLess, DataMarket):
        assert not hasattr(owner, name), owner
        assert name not in getattr(owner, "__all__", ())
    assert not mentions(name)


def test_every_arm_runs_the_one_session_loop():
    """``build_system`` returns the installation, Download All's
    included, and ``run_session`` has no branch for any arm."""
    payless = build_system("download_all", make_workload("real"))
    assert isinstance(payless, PayLess)
    assert payless.rewriter.buy_threshold == 0
    assert "strategy" not in inspect.getsource(run_session)


def test_the_scheduler_is_the_one_multi_user_front_end():
    assert importlib.util.find_spec("repro.core.organization") is None
    assert list(inspect.signature(QueryScheduler.session).parameters) == [
        "self",
        "name",
        "tier",
        "budget",
    ]
    assert len(dataclasses.fields(ServeConfig)) == 6
    assert len(dataclasses.fields(BudgetPolicy)) == 2
    assert len(dataclasses.fields(QueryOptions)) == 9


def test_one_options_record_one_walk():
    payless = PayLess(tiny_weather_market())
    assert not hasattr(payless, "options")
    assert payless.context.options is payless.query_options
    assert not hasattr(QueryOptions, "optimizer_options")
    assert "coalesce" not in {f.name for f in dataclasses.fields(QueryOptions)}
    assert not hasattr(Executor, "_adaptive_fetch")
    assert list(inspect.signature(Executor.__init__).parameters) == [
        "self",
        "context",
        "objective",
    ]


#: Names that kept the second and third copies of a query's account.
ACCOUNT_COPIES = re.compile(
    r"entries_for_token|fetch_token|entries_since|ledger\.attribute|"
    r"_QUERY_SEQ|access_token|"
    r"note_(fault|replay|failed_call|backoff|waste|coalesced|covered_skip)|"
    r"async_pool_size"
)


def test_one_account_of_a_querys_calls():
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if ACCOUNT_COPIES.search(path.read_text())
    ]
    assert not offenders, offenders
    for name in ("attribute", "checkpoint", "entries_since", "entries_for_token"):
        assert not hasattr(BillingLedger, name)
    assert "fetch_token" not in {f.name for f in dataclasses.fields(LedgerEntry)}
    assert set(vars(QueryScope(None))) == {"retry_budget", "retries", "_lock"}
    assert "metrics" not in {f.name for f in dataclasses.fields(QueryStats)}
    assert "pool_size" not in inspect.signature(AsyncMarketTransport).parameters


#: The buyer-side copies of Equation (1), as ``(owner, name)``.
PRICING_COPIES = (
    (repro.core.bounding_boxes, "_price"),
    (repro.core.optimizer.Optimizer, "_objective_cost"),
    (repro.core.context.PlanningContext, "tuples_per_transaction"),
    (repro.stats, "transactions_for_estimate"),
    (repro.stats.estimator, "transactions_for_estimate"),
)


@pytest.mark.parametrize(
    "owner, name", PRICING_COPIES, ids=[name for __, name in PRICING_COPIES]
)
def test_equation_one_has_no_buyer_side_copy(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_rows_become_pages_only_in_the_pricing_policy():
    offenders = [
        str(path.relative_to(SRC.parent))
        for package in ("core", "stats")
        for path in sorted((SRC / package).rglob("*.py"))
        if "math.ceil(" in path.read_text()
    ]
    assert not offenders, offenders


def test_cost_metric_is_gone():
    with pytest.raises(TypeError):
        QueryOptions(cost_metric="calls")
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if "cost_metric" in path.read_text()
    ]
    assert not offenders, offenders


#: The ``QueryOptions`` fields an installation does not choose: a second
#: switch, ``TransportConfig`` overlays, and values nothing set.
NOT_INSTALLATION_CHOICES = (
    "use_sqr",
    "prune_bounding_boxes",
    "prefetch",
    "partial_results",
    "max_retries",
    "transport_mode",
    "max_concurrent_calls",
    "engine",
)


@pytest.mark.parametrize("name", NOT_INSTALLATION_CHOICES)
def test_option_is_not_a_field(name):
    with pytest.raises(TypeError):
        QueryOptions(**{name: False})


def test_no_sqr_has_one_switch():
    """Strong consistency is the only "w/o SQR" switch: the rewriter and
    the optimizer take none, and no arm prunes differently."""
    assert list(inspect.signature(SemanticRewriter.__init__).parameters) == [
        "self",
        "store",
        "catalog",
    ]
    assert list(inspect.signature(Optimizer.__init__).parameters) == [
        "self",
        "context",
        "objective",
    ]
    assert "payless_noprune" not in SYSTEMS
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"rewriter\.enabled\s*=", path.read_text())
    ]
    assert not offenders, offenders


def test_the_latency_model_is_the_one_driver_switch(capsys):
    assert not hasattr(Executor, "close")
    assert "transport_mode" not in {f.name for f in dataclasses.fields(QueryStats)}
    assert "_call_pool" not in (SRC / "core" / "executor.py").read_text()
    assert "ThreadPoolExecutor" not in (SRC / "core" / "executor.py").read_text()
    with pytest.raises(SystemExit) as exit_info:
        main(["session", "--transport", "async", "--instances", "1"])
    assert exit_info.value.code == 2
    assert "--transport" in capsys.readouterr().err


def test_buying_an_access_lives_in_the_purchase_module():
    moved = ("CallAccount", "FailedFetch", "CoveredSkip", "_makespan")
    for name in (*moved, "_PrefetchEntry"):
        assert not hasattr(repro.core.executor, name), name
    assert not hasattr(QueryStats, "fetched_records")


#: The installation's configuration records and their field counts.
CONFIG_RECORDS = ((QueryOptions, 9), (TransportConfig, 7), (DurabilityConfig, 2))


def test_config_records_keep_their_field_counts():
    """A new field is a new knob: it needs a caller that sets it."""
    for record, count in CONFIG_RECORDS:
        assert len(dataclasses.fields(record)) == count, record.__name__


def test_every_option_is_read_somewhere():
    """No orphan knob: each ``QueryOptions`` field is read as an attribute
    by some module other than the one that declares it, and each
    ``TransportConfig`` / ``DurabilityConfig`` field somewhere outside
    its own class body (its module is where it is used)."""
    for record, __ in CONFIG_RECORDS:
        declaring = pathlib.Path(inspect.getsourcefile(record)).resolve()
        own = inspect.getsource(record)
        readers = "\n".join(
            path.read_text().replace(own, "")
            for path in sorted(SRC.rglob("*.py"))
            if not (record is QueryOptions and path == declaring)
        )
        orphans = [
            f.name
            for f in dataclasses.fields(record)
            if not re.search(rf"\.{f.name}\b", readers)
        ]
        assert not orphans, (record.__name__, orphans)


#: Knobs that became constants; nothing may teach them again.
RETIRED_KNOBS = (
    "--engine",
    "QueryOptions(engine=",
    "compact_after",
    "snapshot_on_close",
    "resolve_intents",
    "backoff_base_ms",
)


@pytest.mark.parametrize("name", RETIRED_KNOBS)
def test_retired_knob_is_not_taught(name):
    assert not mentions(name)


def test_one_local_engine_fixed_backoff_fixed_compaction(capsys):
    assert "ExecutionConfig" not in repro.__all__
    context = PayLess(tiny_weather_market()).context
    assert not hasattr(context, "execution")
    executor = Executor(context)
    assert not hasattr(executor, "execution") and not hasattr(executor, "_ops")
    assert list(inspect.signature(DurableStateBackend.close).parameters) == [
        "self"
    ]
    for argv in (
        ["session", "--engine", "reference", "--instances", "1"],
        ["explain", "--engine", "reference", "SELECT * FROM Station"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err


#: The buyer-bill copies that went, as ``(owner, name)``.
BILL_COPIES = (
    (repro.durable, "DurableBill"),
    (repro.durable.backend, "DurableBill"),
    (DurableStateBackend, "_apply_totals"),
    (DurableStateBackend, "_apply_bill_purchase"),
)

#: The running totals, each a read-only view of the bill.
RUNNING_TOTALS = (
    "total_transactions",
    "total_price",
    "total_calls",
    "total_wasted_transactions",
    "total_wasted_price",
    "total_coalesced_fetches",
    "total_coalesced_transactions",
    "total_coalesced_price",
)


@pytest.mark.parametrize(
    "owner, name", BILL_COPIES, ids=[name for __, name in BILL_COPIES]
)
def test_the_buyer_bill_has_no_second_copy(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())


def test_the_running_totals_are_views_of_the_one_bill(tmp_path):
    payless = PayLess(tiny_weather_market())
    for name in RUNNING_TOTALS:
        with pytest.raises(AttributeError):
            setattr(payless, name, 0)
    durable = PayLess(
        tiny_weather_market(), options=QueryOptions(durability=tmp_path)
    )
    assert durable.durability.bill is durable.context.transport.bill
    durable.close()


def test_readme_option_table_lists_the_fields_in_order():
    readme = (SRC.parent.parent / "README.md").read_text()
    fields = [f.name for f in dataclasses.fields(QueryOptions)]
    rows = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert [name for name in rows if name in fields] == fields
    assert f"{len(fields)} fields" in readme


def test_library_emits_no_deprecation_warnings():
    offenders = [
        str(path.relative_to(SRC.parent))
        for path in sorted(SRC.rglob("*.py"))
        if "DeprecationWarning" in (text := path.read_text())
        or "warnings.warn" in text
    ]
    assert not offenders, offenders
