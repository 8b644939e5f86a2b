"""Unit tests for the per-figure experiment drivers (tiny profiles)."""

import pytest

from repro.bench.figures import (
    BenchProfile,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)
from repro.workloads.weather import WeatherConfig

TINY = BenchProfile(
    weather_q=1,
    tpch_q=1,
    weather=WeatherConfig(
        countries=2, stations_per_country=6, cities_per_country=4, days=20
    ),
    tpch_scale=0.1,
)


class TestFigure10:
    def test_returns_all_systems(self):
        sessions = figure10("real", TINY)
        assert set(sessions) == {
            "payless",
            "payless_nosqr",
            "min_calls",
            "download_all",
        }
        lengths = {len(s.cumulative_transactions) for s in sessions.values()}
        assert lengths == {5}  # 5 templates x q=1

    def test_subset_of_systems(self):
        sessions = figure10("real", TINY, systems=("payless",))
        assert list(sessions) == ["payless"]


class TestFigure11:
    def test_sweeps_t(self):
        results = figure11("real", t_values=(50, 100), profile=TINY)
        assert set(results) == {
            "payless_t50",
            "download_all_t50",
            "payless_t100",
            "download_all_t100",
        }
        # Smaller pages -> more transactions to download everything.
        assert results["download_all_t50"] > results["download_all_t100"]
        # Not so for PayLess on a 5-query session: at t=100 the whole
        # Weather table is 3 pages, so the last query's page on top of
        # the 3 already rented buys it whole (3 more), where at t=50 it
        # is 5 pages and renting goes on.  Rent or buy only promises that
        # no table costs more than twice its whole-table price.
        assert (
            results["payless_t50"].total_transactions,
            results["payless_t100"].total_transactions,
        ) == (8, 10)
        for t in (50, 100):
            metrics = results[f"payless_t{t}"].metrics
            assert all(
                metrics[key] <= 2
                for key in metrics
                if key.endswith(".spent_over_whole")
            )


class TestFigure12:
    def test_sweeps_q(self):
        results = figure12("real", q_values=(1, 2), profile=TINY)
        assert len(results["payless_q1"].cumulative_transactions) == 5
        assert len(results["payless_q2"].cumulative_transactions) == 10
        assert isinstance(results["download_all"], int)


class TestFigure13:
    def test_sweeps_scale(self):
        results = figure13("tpch", scales=(0.1, 0.2), profile=TINY)
        assert results["download_all_D0.2"] > results["download_all_D0.1"]


class TestFigure14:
    def test_three_arms(self):
        results = figure14("real", q_values=(1,), profile=TINY)
        assert set(results) == {"PayLess", "Disable SQR", "Disable All"}
        assert results["Disable All"][1] >= results["PayLess"][1]


class TestFigure15:
    def test_two_series(self):
        results = figure15("real", q_values=(1,), profile=TINY)
        assert results["PayLess"][1] <= results["No Pruning"][1]
