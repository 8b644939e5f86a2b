"""CLI tests: argument parsing and command output."""

import pytest

from repro.cli import main
from repro.core.payless import PayLess


class TestSession:
    def test_session_runs(self, capsys):
        code = main(
            ["session", "--workload", "real", "--instances", "1",
             "--system", "payless"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Cumulative transactions" in out
        assert "total:" in out

    def test_download_all_session(self, capsys):
        code = main(
            ["session", "--workload", "real", "--instances", "1",
             "--system", "download_all"]
        )
        assert code == 0
        assert "download-all bound" in capsys.readouterr().out

    def test_concurrent_session_with_workers(self, capsys):
        code = main(
            ["session", "--workload", "real", "--instances", "1",
             "--workers", "4", "--sessions", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving:" in out
        assert "user0" in out and "user1" in out

    #: A serial session that loses a market call at seed 7.
    LOSSY = [
        "session", "--workload", "real", "--instances", "1",
        "--fault-rate", "0.6", "--fault-seed", "7", "--max-retries", "0",
    ]

    def test_lost_call_fails_on_one_line_and_closes(self, capsys, monkeypatch):
        closed = []
        original = PayLess.close
        monkeypatch.setattr(
            PayLess, "close", lambda self: (closed.append(self), original(self))
        )
        assert main(self.LOSSY) == 1
        err = capsys.readouterr().err
        assert err.startswith("query failed: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert len(closed) == 1

    def test_partial_results_keep_the_session_alive(self, capsys):
        assert main(self.LOSSY + ["--partial-results"]) == 0
        out = capsys.readouterr().out
        assert "total:" in out and "faults:" in out

    def test_concurrent_session_no_coalesce(self, capsys):
        code = main(
            ["session", "--workload", "real", "--instances", "1",
             "--workers", "2", "--no-coalesce"]
        )
        assert code == 0
        assert "serving:" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_plan(self, capsys):
        code = main(
            [
                "explain",
                "--workload",
                "real",
                "SELECT * FROM Weather WHERE Weather.Date <= 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MarketAccess(Weather)" in out
        assert "estimated:" in out
        assert "coverage:" in out

    def test_explain_prefix_is_stripped(self, capsys):
        code = main(
            [
                "explain",
                "--workload",
                "real",
                "EXPLAIN SELECT * FROM Weather WHERE Weather.Date <= 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN EXPLAIN" not in out
        assert "MarketAccess(Weather)" in out

    def test_explain_analyze_prints_actuals(self, capsys):
        code = main(
            [
                "explain",
                "--workload",
                "real",
                "--analyze",
                "SELECT * FROM Weather WHERE Weather.Date <= 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE" in out
        assert "actual:" in out
        assert "purchased" in out

    def test_trace_json_dumps_span_tree(self, capsys):
        code = main(
            [
                "explain",
                "--workload",
                "real",
                "--trace-json",
                "EXPLAIN ANALYZE SELECT * FROM Weather WHERE Weather.Date <= 10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"kind": "query"' in out
        assert '"kind": "table_fetch"' in out


class TestSessionMetrics:
    def test_session_metrics_flag_prints_snapshot(self, capsys):
        code = main(
            [
                "session",
                "--workload",
                "real",
                "--instances",
                "1",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "queries = " in out
        assert "transactions_spent = " in out


class TestFigures:
    def test_fig15(self, capsys):
        code = main(["figures", "fig15", "--workload", "real"])
        assert code == 0
        assert "Figure 15" in capsys.readouterr().out


class TestParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["session", "--workload", "mystery"])
