"""End-to-end coverage of the remaining SQL clauses through the facade."""

import pytest


class TestOrdering:
    def test_order_by_desc(self, mini_payless):
        result = mini_payless.query(
            "SELECT Date, Temperature FROM Weather "
            "WHERE StationID = 3 ORDER BY Temperature DESC"
        )
        temps = [row[1] for row in result.rows]
        assert temps == sorted(temps, reverse=True)

    def test_order_by_multiple_keys(self, mini_payless):
        result = mini_payless.query(
            "SELECT Country, StationID FROM Station "
            "ORDER BY Country DESC, StationID ASC"
        )
        assert result.rows[0][0] == "CountryB"
        station_ids = [r[1] for r in result.rows if r[0] == "CountryB"]
        assert station_ids == sorted(station_ids)

    def test_limit(self, mini_payless):
        result = mini_payless.query(
            "SELECT * FROM Weather ORDER BY Date LIMIT 3"
        )
        assert len(result.rows) == 3

    def test_limit_zero(self, mini_payless):
        result = mini_payless.query("SELECT * FROM Station LIMIT 0")
        assert result.rows == []


class TestDistinct:
    def test_select_distinct(self, mini_payless):
        result = mini_payless.query("SELECT DISTINCT Country FROM Weather")
        assert sorted(r[0] for r in result.rows) == ["CountryA", "CountryB"]

    def test_group_by_without_aggregate(self, mini_payless):
        result = mini_payless.query(
            "SELECT City FROM Station GROUP BY City"
        )
        assert len(result.rows) == 4


class TestResidualPredicates:
    def test_float_filter_applied_locally(self, mini_payless):
        result = mini_payless.query(
            "SELECT * FROM Weather WHERE Temperature >= 60.0"
        )
        assert all(row[3] >= 60.0 for row in result.rows)
        # Station 6 days 1-10 = temps 61..70, station 5 day 10 = 60.
        assert len(result.rows) == 11

    def test_not_equal_filter(self, mini_payless):
        result = mini_payless.query(
            "SELECT DISTINCT City FROM Station WHERE City != 'Alpha'"
        )
        assert sorted(r[0] for r in result.rows) == ["Beta", "Delta", "Gamma"]

    def test_between_on_date(self, mini_payless):
        result = mini_payless.query(
            "SELECT COUNT(*) FROM Weather WHERE Date BETWEEN 2 AND 4"
        )
        assert result.rows == [(18,)]  # 6 stations x 3 days


class TestAliases:
    def test_table_alias(self, mini_payless):
        result = mini_payless.query(
            "SELECT s.City FROM Station s WHERE s.Country = 'CountryB'"
        )
        assert {row[0] for row in result.rows} == {"Delta"}

    def test_column_alias(self, mini_payless):
        result = mini_payless.query(
            "SELECT COUNT(*) AS n FROM Station"
        )
        assert result.columns == ["n"]
        assert result.rows == [(6,)]


class TestOrganizationEdge:
    def test_unattributed_spend_reported(self, mini_payless):
        from repro.serve import QueryScheduler

        with QueryScheduler(mini_payless) as scheduler:
            scheduler.session("alice")
            # Spend outside any session:
            direct = mini_payless.query("SELECT * FROM Station")
            report = scheduler.spend_report()
        assert (
            f"(unattributed: {direct.stats.transactions} transactions)" in report
        )
