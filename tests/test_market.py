"""Unit tests for the data-market simulator: binding, pricing, server."""

import pytest

from repro.errors import BindingError, MarketError, SchemaError
from repro.market import (
    AccessMode,
    BindingPattern,
    DataMarket,
    Dataset,
    PricingPolicy,
    RestRequest,
    interval,
    point,
)
from repro.relational.query import AttributeConstraint
from repro.relational.schema import Attribute, Domain, Schema
from repro.relational.table import Table
from repro.relational.types import AttributeType as T


class TestBindingPattern:
    def test_parse(self):
        pattern = BindingPattern.parse("R", "Ab, Bf, Co")
        assert pattern.mode_of("A") is AccessMode.BOUND
        assert pattern.mode_of("B") is AccessMode.FREE
        assert pattern.mode_of("C") is AccessMode.OUTPUT

    def test_unlisted_attribute_is_output(self):
        pattern = BindingPattern.parse("R", "Af")
        assert pattern.mode_of("Zzz") is AccessMode.OUTPUT

    def test_parse_bad_suffix(self):
        with pytest.raises(SchemaError):
            BindingPattern.parse("R", "Ax")

    def test_validate_constrained_requires_bound(self):
        pattern = BindingPattern.parse("R", "Ab, Bf")
        pattern.validate_constrained(["A"])  # fine
        pattern.validate_constrained(["A", "B"])  # fine
        with pytest.raises(BindingError):
            pattern.validate_constrained(["B"])  # A missing

    def test_validate_constrained_rejects_output(self):
        pattern = BindingPattern.parse("R", "Af")
        with pytest.raises(BindingError):
            pattern.validate_constrained(["Other"])

    def test_all_free(self):
        pattern = BindingPattern.all_free("R", ["A", "B"])
        assert not pattern.bound_attributes
        assert pattern.free_attributes == ["a", "b"]


class TestPricing:
    def test_equation_one(self):
        pricing = PricingPolicy(tuples_per_transaction=100)
        assert pricing.transactions_for(0) == 0
        assert pricing.transactions_for(1) == 1
        assert pricing.transactions_for(100) == 1
        assert pricing.transactions_for(101) == 2
        assert pricing.transactions_for(4400) == 44  # the paper's example

    def test_price(self):
        pricing = PricingPolicy(
            tuples_per_transaction=100, price_per_transaction=0.12
        )
        assert pricing.price_for(4400) == pytest.approx(5.28)

    def test_invalid_page_size(self):
        with pytest.raises(MarketError):
            PricingPolicy(tuples_per_transaction=0)

    def test_negative_count(self):
        with pytest.raises(MarketError):
            PricingPolicy().transactions_for(-1)

    @pytest.mark.parametrize(
        "published",
        [
            {"price_per_transaction": float("nan")},
            {"price_per_transaction": float("inf")},
            {"price_per_transaction": -float("inf")},
            {"price_per_transaction": -0.5},
            {"price_per_transaction": True},
            {"price_per_transaction": "1"},
            {"tuples_per_transaction": True},
            {"tuples_per_transaction": 2.5},
            {"tuples_per_transaction": 10.0},
            {"tuples_per_transaction": -3},
        ],
        ids=repr,
    )
    def test_rejects_what_no_seller_can_bill(self, published):
        """The planner compares these prices: a NaN would make every
        comparison false, a fractional page would bill fractional pages."""
        with pytest.raises(MarketError):
            PricingPolicy(**published)

    def test_free_and_integral_prices_are_valid(self):
        assert PricingPolicy(price_per_transaction=0.0).price_for(7) == 0.0
        assert PricingPolicy(10, 2).price_for(7) == 2


@pytest.fixture
def market():
    schema = Schema(
        [
            Attribute("Country", T.STRING, Domain.categorical(["US", "CA"])),
            Attribute("Rank", T.INT, Domain.numeric(1, 100)),
            Attribute("Secret", T.FLOAT),
        ]
    )
    rows = [("US", rank, float(rank)) for rank in range(1, 51)] + [
        ("CA", rank, float(rank)) for rank in range(1, 26)
    ]
    dataset = Dataset("D", PricingPolicy(tuples_per_transaction=10))
    dataset.add_table(
        Table("R", schema, rows),
        BindingPattern(table="R", modes={
            "Country": AccessMode.BOUND,
            "Rank": AccessMode.FREE,
        }),
    )
    market = DataMarket()
    market.publish(dataset)
    return market


class TestRestRequest:
    def test_rejects_set_constraint(self):
        with pytest.raises(MarketError):
            RestRequest(
                "D", "R",
                (AttributeConstraint("Country", values=frozenset({"US"})),),
            )

    def test_rejects_duplicate_attribute(self):
        with pytest.raises(MarketError):
            RestRequest(
                "D", "R", (point("Rank", 1), interval("Rank", 2, 5))
            )

    def test_url_rendering(self):
        request = RestRequest(
            "D", "R", (point("Country", "US"), interval("Rank", 1, 10))
        )
        assert "Country='US'" in request.url()
        assert "Rank=[1,10)" in request.url()


class TestServerGet:
    def test_filtering_and_billing(self, market):
        response = market.get(
            RestRequest(
                "D", "R", (point("Country", "US"), interval("Rank", 1, 25))
            )
        )
        assert response.record_count == 24
        assert response.transactions == 3  # ceil(24/10)
        assert market.ledger.total_transactions == 3

    def test_empty_result_free(self, market):
        response = market.get(
            RestRequest(
                "D", "R", (point("Country", "US"), interval("Rank", 99, 100))
            )
        )
        assert response.record_count == 0
        assert response.transactions == 0

    def test_bound_attribute_enforced(self, market):
        with pytest.raises(BindingError):
            market.get(RestRequest("D", "R", (interval("Rank", 1, 5),)))

    def test_output_attribute_rejected(self, market):
        with pytest.raises(BindingError):
            market.get(
                RestRequest(
                    "D", "R", (point("Country", "US"), point("Secret", 1.0))
                )
            )

    def test_range_on_categorical_rejected(self, market):
        # Craft a constraint that is a range on a string attribute.
        constraint = AttributeConstraint("Country", low=1, high=5)
        with pytest.raises(MarketError):
            market.get(RestRequest("D", "R", (constraint, point("Country", "x"))))

    def test_unknown_dataset(self, market):
        with pytest.raises(MarketError):
            market.get(RestRequest("Nope", "R", ()))

    def test_unknown_table(self, market):
        with pytest.raises(MarketError):
            market.get(RestRequest("D", "Nope", ()))

    def test_unknown_attribute(self, market):
        with pytest.raises(MarketError):
            market.get(
                RestRequest(
                    "D", "R", (point("Country", "US"), point("Bogus", 1))
                )
            )

    def test_download_blocked_for_bound_tables(self, market):
        """One unconstrained call for the whole table is refused, and not
        billed, when the table has a bound attribute."""
        with pytest.raises(BindingError):
            market.get(RestRequest("D", "R"))
        assert market.ledger.total_calls == 0

    def test_double_publish_rejected(self, market):
        with pytest.raises(MarketError):
            market.publish(Dataset("D"))

    def test_nan_satisfies_no_range(self):
        """The local engine's ``>=``/``<`` reject a NaN row, so the market
        must neither return nor bill it."""
        table = Table(
            "R",
            Schema([Attribute("X", T.FLOAT)]),
            [(1.0,), (float("nan"),), (12.0,)],
        )
        dataset = Dataset("D", PricingPolicy(tuples_per_transaction=1))
        dataset.add_table(table, BindingPattern.parse("R", "Xf"))
        market = DataMarket()
        market.publish(dataset)
        for constraint, expected in (
            (interval("X", 0, 10), ((1.0,),)),
            (interval("X", low=0), ((1.0,), (12.0,))),
            (interval("X", high=10), ((1.0,),)),
        ):
            response = market.get(RestRequest("D", "R", (constraint,)))
            assert response.rows == expected
            assert response.transactions == len(expected)


class TestBasicStatistics:
    def test_cardinality_and_domains(self, market):
        statistics = market.basic_statistics("R")
        assert statistics.cardinality == 75
        assert statistics.domain_of("rank").low == 1
        assert statistics.domain_of("country").values == frozenset({"US", "CA"})


class TestLedger:
    def test_summary_and_accumulation(self, market):
        market.get(
            RestRequest("D", "R", (point("Country", "US"),))
        )
        market.get(
            RestRequest("D", "R", (point("Country", "CA"),))
        )
        ledger = market.ledger
        assert ledger.total_calls == 2
        assert ledger.total_records == 75
        assert ledger.total_transactions == 5 + 3
        assert ledger.transactions_for_dataset("D") == 8
        assert "TOTAL" in ledger.summary()
