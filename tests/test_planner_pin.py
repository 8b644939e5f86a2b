"""Cross-commit planner pin: what the DP chose, and how much work it did.

The parity suites compare two runs of the *same* code, so a refactor
that shifts both together passes them.  This pin compares against
``tests/goldens/planner_pin.json``, generated at the commit before the
scalar and Pareto DP programs were merged: per join graph / session
instance, for ``min_dollars`` and ``min_latency``, the chosen plan, its
cost vector, the frontier, and the counters Figures 14-15 read.  For
``min_dollars`` on the smaller graphs it also pins a digest of the
``plan_candidate`` trace events (attributes and order).  The
``*-d32-range`` entries — the end-to-end benchmark's larger graphs, a
range on ``T1`` — were added at the commit before candidates became
vectors whose plan trees are built on demand.  When branch-and-bound was
deleted each entry kept its exhaustive arm's record; only
``pruned_plans`` (the dominated count, where that arm wrote 0) and the
event digest (events lost their ``bounded`` key) took new values.  The
``clique-7-edges-*`` entries (random predicate subsets of a clique-7
dataset, connected and not) and the ``*-bought`` entries (a chain-6 and a
star-6 whose middle table the store holds, so the zero-price block joins
components through itself) were added, event digests included, at the
commit before relation sets became bitmasks.

Regenerate with ``pytest tests/test_planner_pin.py --update-goldens``;
the JSON diff is the review artifact.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.bench.figures import make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import MIN_DOLLARS, PlanObjective, QueryOptions
from repro.core.optimizer import Optimizer
from repro.workloads.synthetic import make_join_graph

from .conftest import GOLDENS_DIR

PIN_PATH = GOLDENS_DIR / "planner_pin.json"

OBJECTIVES = {
    "min_dollars": MIN_DOLLARS,
    "min_latency": PlanObjective.min_latency(),
}
#: (shape, n, domain_high or None for the generator's default).
GRAPHS = [
    (shape, n, domain_high)
    for shape in ("chain", "star", "clique")
    for n in range(2, 9)
    for domain_high in (None, 32)
]
#: Tracing every candidate of a clique-8 run is slow; the event stream
#: is pinned where it is cheap.
TRACE_PIN_MAX_N = 6
#: The graphs ``joingraph_quote`` of the end-to-end benchmark adds beyond
#: n = 8, with its ``domain_high`` and a range on ``T1`` as it quotes them.
BENCHMARK_GRAPHS = [("chain", 10), ("star", 9), ("star", 10)]
SESSIONS = [("real", 2), ("tpch", 1)]
#: Seeds of random edge subsets of a clique-7's predicates, each edge kept
#: with probability ``EDGE_KEEP``: seeds 1, 3, 4 draw connected query
#: graphs, the other five disconnected ones, where Theorem 3 also applies
#: to the whole query.
EDGE_SUBSET_SEEDS = range(8)
EDGE_KEEP = 0.3
#: (shape, the table bought outright before planning): the store then
#: covers it, Theorem 2 folds it into the zero-price block, and the
#: tables joined to it are connected *through* the block.
BOUGHT_FIRST = [("chain", "T3"), ("star", "T1")]


def _record(planning) -> dict:
    return {
        "plan": planning.plan.describe(),
        "cost": planning.cost,
        "latency_ms": planning.latency_ms,
        "frontier": [list(point) for point in planning.frontier],
        "evaluated_plans": planning.evaluated_plans,
        "pruned_plans": planning.pruned_plans,
        "enumerated_boxes": planning.enumerated_boxes,
        "kept_boxes": planning.kept_boxes,
    }


def _plan(payless, logical, objective: str):
    return Optimizer(payless.context, OBJECTIVES[objective]).optimize(logical)


def _candidate_digest(payless, logical) -> str:
    """sha256 over the min_dollars run's plan_candidate events."""
    tracer = payless.tracer
    tracer.enabled = True
    tracer.begin_query("pin")
    try:
        _plan(payless, logical, "min_dollars")
    finally:
        trace = tracer.end_query()
        tracer.enabled = False
    events = [span.attrs for span in trace.spans("plan_candidate")]
    assert events
    return hashlib.sha256(json.dumps(events).encode()).hexdigest()


@pytest.fixture(scope="module")
def pin(request):
    """The committed pin; under ``--update-goldens`` an empty dict the
    tests fill and the teardown writes."""
    if not request.config.getoption("--update-goldens"):
        assert PIN_PATH.exists(), (
            f"{PIN_PATH} is missing; run `pytest tests/test_planner_pin.py "
            f"--update-goldens` at the reference commit and commit it"
        )
        yield json.loads(PIN_PATH.read_text())
        return
    collected: dict = {}
    yield collected
    PIN_PATH.write_text(json.dumps(collected, indent=1, sort_keys=True) + "\n")


def _check(request, pin: dict, name: str, actual: dict) -> None:
    actual = json.loads(json.dumps(actual))
    if request.config.getoption("--update-goldens"):
        pin[name] = actual
        return
    assert name in pin, f"{name} is not in {PIN_PATH.name}"
    expected = pin[name]
    assert actual.keys() == expected.keys(), name
    for objective in expected:
        assert actual[objective] == expected[objective], (
            f"{name} [{objective}] diverges from the cross-commit pin; if the "
            f"planner change is intended, re-run with --update-goldens and "
            f"review the JSON diff"
        )


def _installation(data):
    payless = build_system(
        "payless", data, options=QueryOptions(plan_cache_size=0)
    )
    return payless


def _pin_graph(
    request, pin, name: str, data, sql: str, trace: bool, payless=None
) -> dict:
    payless = payless or _installation(data)
    logical = payless.compile(sql)
    actual = {}
    for objective in OBJECTIVES:
        record = _record(_plan(payless, logical, objective))
        if trace and objective == "min_dollars":
            record["candidate_events_sha256"] = _candidate_digest(
                payless, logical
            )
        actual[objective] = record
    _check(request, pin, name, actual)
    return actual


@pytest.mark.parametrize("shape,n,domain_high", GRAPHS)
def test_synthetic_graph_pin(request, pin, shape, n, domain_high):
    data = (
        make_join_graph(shape, n)
        if domain_high is None
        else make_join_graph(shape, n, domain_high=domain_high)
    )
    _pin_graph(
        request, pin, f"{shape}-{n}-d{domain_high or 'default'}",
        data, data.sql, trace=n <= TRACE_PIN_MAX_N,
    )


@pytest.mark.parametrize("shape", ["chain", "star", "clique"])
def test_two_point_frontier_pin(request, pin, shape):
    """The graphs above all end in one-point frontiers.  Two-tuple pages
    and a range on ``T1`` make direct fetches transaction-heavy while
    bind joins stay call-dominated, so money and latency disagree."""
    data = make_join_graph(shape, 4, tuples_per_transaction=2, domain_high=32)
    column = data.dataset.table("T1").schema.names[0]
    sql = f"{data.sql} AND T1.{column} >= 3 AND T1.{column} <= 11"
    actual = _pin_graph(
        request, pin, f"{shape}-4-two-point", data, sql, trace=True
    )
    assert len(actual["min_latency"]["frontier"]) == 2
    assert len(actual["min_dollars"]["frontier"]) == 1


@pytest.mark.parametrize("shape,n", BENCHMARK_GRAPHS)
def test_benchmark_shape_pin(request, pin, shape, n):
    data = make_join_graph(shape, n, domain_high=32)
    column = data.dataset.table("T1").schema.names[0]
    sql = f"{data.sql} AND T1.{column} >= 5 AND T1.{column} <= 21"
    _pin_graph(request, pin, f"{shape}-{n}-d32-range", data, sql, trace=False)


def _edge_subset(seed: int, n: int = 7) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < EDGE_KEEP
    ]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    reached = {1}
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if (i in reached) != (j in reached):
                reached |= {i, j}
                grew = True
    return len(reached) == n


@pytest.mark.parametrize("seed", EDGE_SUBSET_SEEDS)
def test_edge_subset_pin(request, pin, seed):
    """A clique-7 dataset queried over a random subset of its predicates:
    tables left without a predicate, and whole components, join by
    Cartesian product."""
    data = make_join_graph("clique", 7)
    edges = _edge_subset(seed)
    sql = f"SELECT * FROM {', '.join(data.tables)} WHERE " + " AND ".join(
        f"T{i}.K{i}_{j} = T{j}.K{i}_{j}" for i, j in edges
    )
    kind = "connected" if _connected(7, edges) else "disconnected"
    _pin_graph(
        request, pin, f"clique-7-edges-s{seed}-{kind}", data, sql, trace=True
    )


def test_edge_subsets_cover_both_kinds():
    kinds = {_connected(7, _edge_subset(seed)) for seed in EDGE_SUBSET_SEEDS}
    assert kinds == {True, False}


@pytest.mark.parametrize("shape,bought", BOUGHT_FIRST)
def test_bought_first_pin(request, pin, shape, bought):
    data = make_join_graph(shape, 6)
    payless = _installation(data)
    payless.query(f"SELECT * FROM {bought}")
    actual = _pin_graph(
        request, pin, f"{shape}-6-{bought.lower()}-bought", data, data.sql,
        trace=True, payless=payless,
    )
    for record in actual.values():
        assert f"LocalBlock({bought})" in record["plan"]


@pytest.mark.parametrize("workload,q", SESSIONS)
def test_session_pin(request, pin, workload, q):
    """One executed session per objective: the store fills as the session
    runs, so later instances plan over zero-price blocks and partial
    coverage."""
    data = make_workload(workload)
    instances = make_instances(workload, data, q)
    assert instances
    actual = {}
    for objective in OBJECTIVES:
        payless = build_system(
            "payless", data,
            options=QueryOptions(
                plan_cache_size=0, objective=OBJECTIVES[objective]
            ),
        )
        records = []
        for instance in instances:
            records.append(
                _record(payless.explain(instance.sql, instance.params).planning)
            )
            payless.query(instance.sql, instance.params)
        actual[objective] = records
    _check(request, pin, f"session-{workload}-q{q}", actual)
