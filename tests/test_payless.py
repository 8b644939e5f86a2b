"""Facade tests: registration, querying, billing, variants."""

import pytest

from repro import (
    ConsistencyPolicy,
    Database,
    DataMarket,
    PayLess,
    Table,
)
from repro.core.prepared import PreparedQuery
from repro.errors import PlanningError, SqlAnalysisError


class TestRegistration:
    def test_query_before_registration_fails(self, mini_weather_market):
        payless = PayLess.full(mini_weather_market)
        with pytest.raises(SqlAnalysisError):
            payless.query("SELECT * FROM Station")

    def test_register_unknown_dataset(self, mini_weather_market):
        payless = PayLess.full(mini_weather_market)
        with pytest.raises(Exception):
            payless.register_dataset("Nope")

    def test_add_local_table(self, mini_payless):
        from repro.relational.schema import Attribute, Schema
        from repro.relational.types import AttributeType as T

        table = Table(
            "Notes", Schema([Attribute("City", T.STRING)]), [("Alpha",)]
        )
        mini_payless.add_local_table(table)
        result = mini_payless.query("SELECT * FROM Notes")
        assert result.rows == [("Alpha",)]
        assert result.stats.transactions == 0


class TestQuerying:
    def test_columns_exposed(self, mini_payless):
        result = mini_payless.query(
            "SELECT City, AVG(Temperature) FROM Station, Weather "
            "WHERE Station.StationID = Weather.StationID "
            "AND Station.Country = 'CountryB' GROUP BY City"
        )
        assert result.columns == ["City", "avg_temperature"]
        assert len(result.rows) == 1  # only Delta in CountryB

    def test_bill_accumulates(self, mini_payless):
        mini_payless.query("SELECT * FROM Station")
        mini_payless.query("SELECT * FROM Station")
        assert mini_payless.queries_executed == 2
        assert mini_payless.total_transactions == 1  # second is free
        assert "2 queries" in mini_payless.bill()

    def test_explain_does_not_buy(self, mini_payless):
        planning = mini_payless.explain("SELECT * FROM Weather")
        assert planning.cost > 0
        assert mini_payless.total_transactions == 0
        assert "MarketAccess" in planning.plan.describe()

    def test_price_tracks_policy(self, mini_payless):
        result = mini_payless.query("SELECT * FROM Weather")
        assert result.stats.price == pytest.approx(float(result.stats.transactions))


class TestTraceScope:
    """Whoever opens a query's trace closes it, however the call ends."""

    SQL = "SELECT * FROM Station WHERE Country = ?"

    @pytest.fixture
    def traced(self, mini_weather_market):
        payless = PayLess.full(mini_weather_market, tracing=True)
        payless.register_dataset("WHW")
        return payless

    @pytest.mark.parametrize(
        "failing, error",
        [
            (lambda p, sql: p.query(sql, ("CountryA",), objective=123), PlanningError),
            (lambda p, sql: p.query("SELECT Nope FROM Station"), SqlAnalysisError),
            (lambda p, sql: p.explain_analyze(sql, ("CountryA",), objective=123), PlanningError),
        ],
        ids=["bad-objective", "analysis-error", "explain-analyze"],
    )
    def test_a_call_that_fails_before_planning_closes_its_own_trace(
        self, traced, failing, error
    ):
        tracer = traced.tracer
        with pytest.raises(error):
            failing(traced, self.SQL)
        assert tracer.active is None
        failed = tracer.last
        assert failed is not None and failed.root.finished

        prepared = PreparedQuery(traced, self.SQL)
        result = prepared.execute(("CountryA",))
        assert tracer.active is None
        assert result.trace is tracer.last and result.trace is not failed
        assert result.trace.label == "Station"
        assert result.trace.find("parse") is None
        assert result.trace.find("table_fetch") is not None
        assert result.trace.root.finished

    def test_wrong_parameter_count_opens_no_trace(self, traced):
        prepared = PreparedQuery(traced, self.SQL)
        with pytest.raises(SqlAnalysisError):
            prepared.execute(())
        assert traced.tracer.active is None


class TestVariants:
    def test_without_sqr_repays(self, mini_weather_market):
        payless = PayLess.without_sqr(mini_weather_market)
        payless.register_dataset("WHW")
        first = payless.query("SELECT * FROM Station")
        second = payless.query("SELECT * FROM Station")
        assert first.stats.transactions == second.stats.transactions > 0

    def test_strong_consistency_repays(self, mini_weather_market):
        payless = PayLess.full(
            mini_weather_market, consistency=ConsistencyPolicy.strong()
        )
        payless.register_dataset("WHW")
        first = payless.query("SELECT * FROM Station")
        second = payless.query("SELECT * FROM Station")
        assert first.stats.transactions == second.stats.transactions > 0

    def test_x_week_consistency_expires(self, mini_weather_market):
        payless = PayLess.full(
            mini_weather_market, consistency=ConsistencyPolicy.weeks(1)
        )
        payless.register_dataset("WHW")
        payless.query("SELECT * FROM Station")
        assert payless.query("SELECT * FROM Station").stats.transactions == 0
        payless.store.advance_clock(2)
        assert payless.query("SELECT * FROM Station").stats.transactions > 0


class TestDownloadAll:
    """The Download-All arm: rent or buy with a buy threshold of 0."""

    @staticmethod
    def download_all(market, **kwargs):
        payless = PayLess.download_all(market, **kwargs)
        payless.register_dataset("WHW")
        return payless

    def test_first_touch_downloads_whole_table(self, mini_weather_market):
        payless = self.download_all(mini_weather_market)
        logical = payless.compile("SELECT * FROM Weather WHERE Date = 1")
        first = payless.execute_logical(logical)
        assert first.stats.transactions == 6  # all 60 weather rows at t=10
        assert len(first.rows) == 6
        second = payless.execute_logical(logical)
        assert second.stats.transactions == 0

    def test_upfront_cost(self, mini_weather_market):
        payless = self.download_all(mini_weather_market)
        payless.query("SELECT * FROM Station WHERE Country = 'CountryA'")
        payless.query("SELECT * FROM Weather WHERE Date = 1")
        view = payless.metrics()
        whole = [view[f"{t}.whole_table_dollars"] for t in ("Station", "Weather")]
        assert whole == [1, 6]
        assert payless.total_transactions == sum(whole) == 1 + 6

    def test_local_tables_pass_through(self, mini_payless_with_local):
        payless = self.download_all(
            mini_payless_with_local.market,
            local_db=mini_payless_with_local.local_db,
        )
        outcome = payless.query("SELECT * FROM CityInfo WHERE Zone = 1")
        assert outcome.stats.transactions == 0
        assert len(outcome.rows) == 2
