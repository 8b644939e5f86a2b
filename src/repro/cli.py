"""Command-line interface: ``python -m repro <command>``.

Four subcommands drive the library without writing any code:

* ``demo`` — the Figure 1 walkthrough (plan choice, billing, free repeat);
* ``session`` — replay a workload session through a chosen system and
  print the cumulative-transaction series (the Figure 10 protocol);
* ``explain`` — compile + optimize a SQL query against a generated
  workload and print the plan without buying anything;
* ``figures`` — regenerate one of the paper's figures and print its table.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.bench.figures import (
    WORKLOADS,
    figure10,
    figure14,
    figure15,
    make_instances,
    make_workload,
)
from repro.bench.harness import SYSTEMS, download_all_bound, run_session
from repro.bench.reporting import series_table, summary_table
from repro.core.objectives import (
    SERVICE_TIERS,
    AdaptivePolicy,
    PlanObjective,
    QueryOptions,
    ServiceTier,
)
from repro.errors import ReproError
from repro.market.transport import TransportConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PayLess: query optimization over cloud data markets "
        "(EDBT 2015 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("demo", help="run the paper's Figure 1 walkthrough")

    session = commands.add_parser(
        "session", help="replay a workload session and print the spend curve"
    )
    session.add_argument("--workload", choices=WORKLOADS, default="real")
    session.add_argument(
        "--system", choices=SYSTEMS, default="payless",
        help="buyer-side configuration to run",
    )
    session.add_argument(
        "--instances", type=int, default=5,
        help="query instances per template (the paper's q)",
    )
    session.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="inject transient market faults with this total probability "
        "per call (0 disables injection)",
    )
    session.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed for deterministic fault injection (same seed, same faults)",
    )
    session.add_argument(
        "--max-retries", type=int, default=4, metavar="N",
        help="retries per market call before the query fails",
    )
    session.add_argument(
        "--partial-results", action="store_true",
        help="on retry exhaustion, keep the rows that arrived instead of "
        "failing the query",
    )
    session.add_argument(
        "--metrics", action="store_true",
        help="print the installation's metrics view (memo hit rate, store "
        "coverage, plan-cache hit rate)",
    )
    session.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the parameterized plan cache (every query re-plans "
        "from scratch)",
    )
    session.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="serve the session through the concurrent scheduler with N "
        "worker threads (1 = the classic serial replay)",
    )
    session.add_argument(
        "--sessions", type=int, default=4, metavar="N",
        help="tenant sessions to spread the queries over round-robin "
        "(only meaningful with --workers > 1)",
    )
    session.add_argument(
        "--coalesce", action=argparse.BooleanOptionalAction, default=True,
        help="coalesce overlapping in-flight market fetches across "
        "sessions (singleflight); --no-coalesce lets concurrent "
        "sessions pay separately for the same box",
    )
    session.add_argument(
        "--objective", default=None, metavar="SPEC",
        help="planning objective: min_dollars (default), min_latency, "
        "dollars_under_latency_ms:BOUND, latency_under_dollars:BOUND, "
        "or weighted[:LATENCY_WEIGHT_PER_MS]",
    )
    session.add_argument(
        "--tier", default=None, choices=sorted(SERVICE_TIERS),
        help="service tier preset for every serving session "
        "(only meaningful with --workers > 1; overrides --objective)",
    )
    session.add_argument(
        "--adaptive", default=None, metavar="SPEC",
        help="adaptive mid-query re-optimization: "
        "THRESHOLD[:MIN_ROWS[:MAX_REPLANS]] — re-plan the remaining "
        "joins whenever an intermediate's actual cardinality diverges "
        "from the estimate by more than THRESHOLD× (off by default)",
    )
    session.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable WAL-backed buyer state: purchases, statistics, and "
        "the bill survive crashes and restarts; rerunning with the same "
        "DIR resumes (and re-buys nothing already covered)",
    )

    explain = commands.add_parser(
        "explain", help="optimize a SQL query and print the plan"
    )
    explain.add_argument("--workload", choices=WORKLOADS, default="real")
    explain.add_argument(
        "--analyze", action="store_true",
        help="actually execute the query and annotate the plan with "
        "actuals (est-vs-actual transactions, purchased vs cache-served "
        "rows, wasted dollars)",
    )
    explain.add_argument(
        "--trace-json", action="store_true",
        help="also dump the query's span tree as JSON (implies --analyze)",
    )
    explain.add_argument(
        "--objective", default=None, metavar="SPEC",
        help="planning objective (see 'session --objective'); non-default "
        "objectives add the Pareto frontier and chosen point to the output",
    )
    explain.add_argument(
        "sql",
        help="SQL text (no ? parameters); an 'EXPLAIN' or "
        "'EXPLAIN ANALYZE' prefix is accepted and stripped",
    )

    figures = commands.add_parser(
        "figures", help="regenerate one of the paper's figures"
    )
    figures.add_argument(
        "figure", choices=["fig10", "fig14", "fig15"],
        help="which figure to regenerate",
    )
    figures.add_argument("--workload", choices=WORKLOADS, default="real")
    return parser


def _cmd_demo() -> int:
    from examples.quickstart import main as quickstart_main

    try:
        quickstart_main()
    except ImportError:  # examples/ not importable when installed from wheel
        print("examples/quickstart.py not available", file=sys.stderr)
        return 1
    return 0


def _objective_of(args: argparse.Namespace) -> PlanObjective | None:
    """The --objective flag, parsed (None = installation default)."""
    if getattr(args, "objective", None) is None:
        return None
    return PlanObjective.parse(args.objective)


def _session_options(args: argparse.Namespace) -> QueryOptions:
    """The one :class:`QueryOptions` the session flags describe."""
    overrides = {}
    if args.no_plan_cache:
        overrides["plan_cache_size"] = 0
    objective = _objective_of(args)
    if objective is not None:
        overrides["objective"] = objective
    if args.adaptive is not None:
        overrides["adaptive"] = AdaptivePolicy.parse(args.adaptive)
    return QueryOptions(
        durability=args.state_dir,
        transport=TransportConfig(
            max_retries=args.max_retries,
            partial_results=args.partial_results,
        ),
        fault_rate=args.fault_rate,
        fault_seed=args.fault_seed,
        **overrides,
    )


def _cmd_session_concurrent(args: argparse.Namespace, data, instances) -> int:
    """The --workers > 1 path: replay through the serving scheduler."""
    from repro.bench.harness import build_system
    from repro.serve import QueryScheduler, ServeConfig

    payless = build_system(
        args.system, data, options=_session_options(args)
    )
    tier = ServiceTier.named(args.tier) if args.tier else None
    config = ServeConfig(
        workers=args.workers, coalesce=args.coalesce, default_tier=tier
    )
    with QueryScheduler(payless, config) as scheduler:
        tickets = [
            scheduler.session(f"user{i % max(1, args.sessions)}").submit(
                instance.sql, instance.params
            )
            for i, instance in enumerate(instances)
        ]
        failures = 0
        for ticket in tickets:
            try:
                ticket.result()
            except Exception as error:  # noqa: BLE001 - reported, not fatal
                failures += 1
                print(f"  query failed: {error}", file=sys.stderr)
    payless.close()
    print()
    print(scheduler.spend_report())
    coalesced = payless.market.ledger.coalesced_savings
    if coalesced:
        print(
            f"coalescing: {coalesced.calls} shared fetches avoided "
            f"{coalesced.transactions} transactions (${coalesced.price:g})"
        )
    if failures:
        print(f"{failures} queries failed", file=sys.stderr)
        return 1
    return 0


def _cmd_session(args: argparse.Namespace) -> int:
    data = make_workload(args.workload)
    instances = make_instances(args.workload, data, args.instances)
    print(
        f"{args.system} on {args.workload}: {len(instances)} queries over "
        f"{data.total_market_rows()} market rows "
        f"(download-all bound: {download_all_bound(data)} transactions)"
    )
    if args.workers > 1:
        return _cmd_session_concurrent(args, data, instances)
    try:
        session = run_session(
            args.system, data, instances, options=_session_options(args)
        )
    except ReproError as error:
        print(f"query failed: {error}", file=sys.stderr)
        return 1
    print()
    print(
        series_table(
            "Cumulative transactions",
            {args.system: session.cumulative_transactions},
        )
    )
    print(
        f"\ntotal: {session.total_transactions} transactions, "
        f"{session.total_calls} calls, ${session.total_price:g}"
    )
    if session.total_replans:
        print(
            f"adaptive: {session.total_replans} mid-query re-plan(s), "
            f"est ${session.replan_dollars_saved_est:g} suffix saved"
        )
    if session.total_faults or session.total_retries:
        print(
            f"faults: {session.total_faults} injected, "
            f"{session.total_retries} retries, "
            f"{session.total_replays} billing replays, "
            f"{session.wasted_transactions} transactions wasted "
            f"(${session.wasted_price:g})"
        )
    if args.metrics and session.metrics:
        print("\nmetrics:")
        for name in sorted(session.metrics):
            value = session.metrics[name]
            rendered = f"{value:g}" if isinstance(value, float) else value
            print(f"  {name} = {rendered}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.bench.harness import build_system

    sql = args.sql.strip()
    analyze = args.analyze or args.trace_json
    upper = sql.upper()
    if upper.startswith("EXPLAIN ANALYZE "):
        analyze = True
        sql = sql[len("EXPLAIN ANALYZE "):].strip()
    elif upper.startswith("EXPLAIN "):
        sql = sql[len("EXPLAIN "):].strip()
    data = make_workload(args.workload)
    payless = build_system("payless", data)
    objective = _objective_of(args)
    explanation = (
        payless.explain_analyze(sql, objective=objective)
        if analyze
        else payless.explain(sql, objective=objective)
    )
    print(explanation.render())
    if args.trace_json:
        print()
        print(explanation.trace.to_json())
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure == "fig10":
        sessions = figure10(args.workload)
        print(
            series_table(
                f"Figure 10 ({args.workload}): cumulative transactions",
                {
                    name: session.cumulative_transactions
                    for name, session in sessions.items()
                },
            )
        )
        return 0
    q_values = (2, 4) if args.workload == "real" else (1, 2)
    if args.figure == "fig14":
        results = figure14(args.workload, q_values)
        rows = [
            [q] + [round(results[arm][q], 1) for arm in results]
            for q in q_values
        ]
        print(
            summary_table(
                f"Figure 14 ({args.workload}): avg evaluated plans",
                rows,
                ["q"] + list(results),
            )
        )
        return 0
    results = figure15(args.workload, q_values)
    rows = [
        [q, round(results["PayLess"][q], 1), round(results["No Pruning"][q], 1)]
        for q in q_values
    ]
    print(
        summary_table(
            f"Figure 15 ({args.workload}): avg bounding boxes",
            rows,
            ["q", "PayLess", "No Pruning"],
        )
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "session":
        return _cmd_session(args)
    if args.command == "explain":
        return _cmd_explain(args)
    return _cmd_figures(args)


if __name__ == "__main__":
    raise SystemExit(main())
