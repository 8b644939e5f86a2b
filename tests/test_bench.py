"""Harness tests: the evaluation's orderings hold at miniature scale."""

import pytest

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system, download_all_bound, run_session
from repro.bench.reporting import checkpoints, series_table, summary_table
from repro.cli import main
from repro.core.objectives import QueryOptions
from repro.errors import ReproError
from repro.workloads.weather import WeatherConfig

# Default weather sizes (≈29k market rows): big enough that the paper's
# ordering PayLess < w/o-SQR < Minimizing-Calls < Download-All shows up;
# small enough to run in seconds.
SMALL = BenchProfile(weather_q=3, tpch_q=1, tpch_scale=0.2)


@pytest.fixture(scope="module")
def real_sessions():
    data = make_workload("real", SMALL)
    instances = make_instances("real", data, 4, SMALL)
    systems = ("payless", "payless_nosqr", "min_calls", "download_all")
    return (
        data,
        {system: run_session(system, data, instances) for system in systems},
    )


class TestFigure10Orderings:
    def test_cumulative_series_monotone(self, real_sessions):
        __, sessions = real_sessions
        for session in sessions.values():
            series = session.cumulative_transactions
            assert all(a <= b for a, b in zip(series, series[1:]))

    def test_payless_beats_nosqr(self, real_sessions):
        __, sessions = real_sessions
        assert (
            sessions["payless"].total_transactions
            <= sessions["payless_nosqr"].total_transactions
        )

    def test_payless_beats_min_calls(self, real_sessions):
        __, sessions = real_sessions
        assert (
            sessions["payless"].total_transactions
            < sessions["min_calls"].total_transactions
        )

    def test_payless_beats_download_all_on_real_data(self, real_sessions):
        __, sessions = real_sessions
        assert (
            sessions["payless"].total_transactions
            < sessions["download_all"].total_transactions
        )

    def test_download_all_flatlines_at_bound(self, real_sessions):
        data, sessions = real_sessions
        assert (
            sessions["download_all"].total_transactions
            == download_all_bound(data)
        )

    def test_payless_never_exceeds_download_bound_plus_rounding(
        self, real_sessions
    ):
        """Once the store holds everything, PayLess stops paying."""
        data, sessions = real_sessions
        series = sessions["payless"].cumulative_transactions
        # Generous envelope: per-region ceil rounding can add overhead but
        # the curve must flatten far below repeated refetching.
        assert series[-1] < 3 * download_all_bound(data)


class TestDownloadAllArm:
    """Download All is an installation like every other arm, so the
    settings a session is given reach it: the serving scheduler, fault
    injection through the money-safe transport, and the durable store."""

    @pytest.fixture(scope="class")
    def workload(self):
        data = make_workload("real", SMALL)
        return data, make_instances("real", data, 2, SMALL)

    def test_served_session_bills_the_bound(self, capsys):
        code = main(
            ["session", "--workload", "real", "--instances", "2",
             "--system", "download_all", "--workers", "2"]
        )
        assert code == 0
        bound = download_all_bound(make_workload("real"))
        assert f"{bound} transactions, ${bound}" in capsys.readouterr().out

    def test_faults_are_injected_and_retried_at_the_same_bill(self, workload):
        data, instances = workload
        session = run_session(
            "download_all",
            data,
            instances,
            options=QueryOptions(fault_rate=0.3, fault_seed=7),
        )
        assert session.total_faults > 0 and session.total_retries > 0
        assert session.total_transactions == download_all_bound(data)

    def test_a_restart_on_the_same_state_dir_buys_nothing(
        self, workload, tmp_path
    ):
        data, instances = workload
        options = QueryOptions(durability=tmp_path)
        first = run_session("download_all", data, instances, options=options)
        assert first.total_transactions == download_all_bound(data)
        second = run_session("download_all", data, instances, options=options)
        assert second.total_transactions == 0


class TestHarness:
    def test_unknown_system(self):
        data = make_workload("real", SMALL)
        with pytest.raises(ReproError):
            build_system("mystery", data)

    def test_unknown_workload(self):
        with pytest.raises(ReproError):
            make_workload("mystery", SMALL)

    def test_noprune_instrumentation(self):
        data = make_workload("real", SMALL)
        instances = make_instances("real", data, 2, SMALL)
        session = run_session("payless", data, instances)
        assert session.average_boxes(pruned=True) <= session.average_boxes(
            pruned=False
        )

    def test_disable_all_counts_more_plans(self):
        data = make_workload("real", SMALL)
        instances = make_instances("real", data, 2, SMALL)
        payless = run_session("payless_nosqr", data, instances)
        bushy = run_session("payless_disable_all", data, instances)
        assert (
            bushy.average_evaluated_plans >= payless.average_evaluated_plans
        )


class TestCommittedFigureTables:
    """The default planner reproduces the first rows of the tables this
    repo commits (``benchmarks/results/fig14_*.txt``, ``fig15_tpch.txt``,
    EXPERIMENTS.md): nothing but Theorems 1-3 stands between a query and
    the candidate counts Figure 14 reports."""

    @pytest.mark.parametrize(
        "workload,q,evaluated", [("tpch", 1, 3.2), ("real", 2, 7.8)]
    )
    def test_fig14_first_row(self, workload, q, evaluated):
        data = make_workload(workload)
        session = run_session(
            "payless", data, make_instances(workload, data, q)
        )
        assert session.average_evaluated_plans == evaluated

    def test_fig15_tpch_first_row(self):
        data = make_workload("tpch")
        session = run_session("payless", data, make_instances("tpch", data, 1))
        assert round(session.average_boxes(pruned=True), 1) == 1.9
        assert round(session.average_boxes(pruned=False), 1) == 4.1


class TestReporting:
    def test_checkpoints(self):
        marks = checkpoints(100, 10)
        assert marks[-1] == 100
        assert len(marks) == 10

    def test_checkpoints_short_series(self):
        assert checkpoints(3, 10) == [1, 2, 3]

    def test_series_table_renders(self):
        text = series_table(
            "Fig X", {"a": [1, 2, 3], "b": [4, 5, 6]}, points=2
        )
        assert "Fig X" in text and "a" in text and "6" in text

    def test_series_table_length_mismatch(self):
        with pytest.raises(ValueError):
            series_table("x", {"a": [1], "b": [1, 2]})

    def test_summary_table(self):
        text = summary_table(
            "Fig Y", [["real", 1.5, 10]], ["workload", "avg", "n"]
        )
        assert "workload" in text and "1.5" in text
