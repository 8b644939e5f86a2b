"""The paper's worked examples, reproduced end-to-end.

* Figure 1 / Section 1: plan P1 (fetch all US June weather) costs 238
  transactions; plan P2 (bind join on Seattle's station id) costs 2.
  PayLess must choose P2 and be billed exactly 2 transactions.
* The intro's counter-scenario: with only 20 US stations, 15 of them in
  Seattle, P1 (7 transactions) beats P2 (16) and PayLess must switch.
"""

import pytest

from repro import (
    BindingPattern,
    DataMarket,
    Dataset,
    PayLess,
    PricingPolicy,
    Table,
)
from repro.core.plans import JoinNode, market_leaves
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.types import AttributeType as T

JUNE_DAYS = 30
SEATTLE_SQL = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Seattle' AND Station.Country = 'United States' "
    "AND Weather.Country = 'United States' "
    "AND Date >= 1 AND Date <= 30 "
    "AND Station.StationID = Weather.StationID"
)


def build_market(station_cities):
    """A WHW-like market with the given (station id -> city) layout."""
    station_ids = sorted(station_cities)
    cities = sorted(set(station_cities.values()))
    station_schema = Schema(
        [
            Attribute(
                "Country", T.STRING, Domain.categorical(["United States"])
            ),
            Attribute(
                "StationID",
                T.INT,
                Domain.numeric(min(station_ids), max(station_ids)),
            ),
            Attribute("City", T.STRING, Domain.categorical(cities)),
        ]
    )
    weather_schema = Schema(
        [
            Attribute(
                "Country", T.STRING, Domain.categorical(["United States"])
            ),
            Attribute(
                "StationID",
                T.INT,
                Domain.numeric(min(station_ids), max(station_ids)),
            ),
            Attribute("Date", T.DATE, Domain.numeric(1, JUNE_DAYS)),
            Attribute("Temperature", T.FLOAT),
        ]
    )
    station_rows = [
        ("United States", sid, city) for sid, city in station_cities.items()
    ]
    weather_rows = [
        ("United States", sid, day, float(sid + day))
        for sid in station_ids
        for day in range(1, JUNE_DAYS + 1)
    ]
    dataset = Dataset("WHW", PricingPolicy(tuples_per_transaction=100))
    dataset.add_table(
        Table("Station", station_schema, station_rows),
        BindingPattern.parse("Station", "Countryf, StationIDf, Cityf"),
    )
    dataset.add_table(
        Table("Weather", weather_schema, weather_rows),
        BindingPattern.parse("Weather", "Countryf, StationIDf, Datef"),
    )
    market = DataMarket()
    market.publish(dataset)
    payless = PayLess.full(market)
    payless.register_dataset("WHW")
    return market, payless


class TestFigure1SeattleWins:
    """788 US stations, exactly one in Seattle: P2 (bind join) for 2 trans."""

    @pytest.fixture
    def setup(self):
        cities = {3817: "Seattle"}
        for i in range(787):
            cities[10000 + i] = f"City{i:04d}"
        return build_market(cities)

    def test_p1_would_cost_238(self, setup):
        market, __ = setup
        pricing = market.dataset("WHW").pricing
        # C2 fetches 788 stations x 30 days; C1 fetches 1 station record.
        assert pricing.transactions_for(788 * 30) == 237
        assert pricing.transactions_for(1) == 1

    def test_optimizer_picks_bind_join(self, setup):
        __, payless = setup
        planning = payless.explain(SEATTLE_SQL)
        root = planning.plan
        assert isinstance(root, JoinNode) and root.bind
        assert planning.cost == pytest.approx(2.0)

    def test_execution_bills_two_transactions(self, setup):
        __, payless = setup
        result = payless.query(SEATTLE_SQL)
        assert result.stats.transactions == 2
        assert result.stats.calls == 2
        assert len(result.rows) == JUNE_DAYS


class TestIntroCounterScenario:
    """20 US stations, 15 in Seattle: P1 (7 trans) beats P2 (16)."""

    @pytest.fixture
    def setup(self):
        cities = {i: "Seattle" for i in range(1, 16)}
        for i in range(16, 21):
            cities[i] = "Elsewhere"
        return build_market(cities)

    def test_optimizer_picks_direct_fetch(self, setup):
        __, payless = setup
        planning = payless.explain(SEATTLE_SQL)
        root = planning.plan
        assert isinstance(root, JoinNode) and not root.bind

    def test_execution_bills_seven_transactions(self, setup):
        __, payless = setup
        result = payless.query(SEATTLE_SQL)
        # 1 (station call) + ceil(20*30/100) = 7, the paper's arithmetic.
        assert result.stats.transactions == 7
        assert len(result.rows) == 15 * JUNE_DAYS


class TestBindJoinActuallyBinds:
    def test_weather_calls_constrain_station_id(self):
        cities = {3817: "Seattle"}
        for i in range(49):
            cities[10000 + i] = f"City{i:04d}"
        market, payless = build_market(cities)
        payless.query(SEATTLE_SQL)
        weather_calls = [
            entry.request
            for entry in market.ledger
            if entry.request.table == "Weather"
        ]
        assert weather_calls
        for request in weather_calls:
            constrained = {a.lower() for a in request.constrained_attributes}
            assert "stationid" in constrained
