"""Rewrite memoization: epoch-keyed caching and the staleness guard.

The rewriter memoizes ``rewrite()`` on ``(table, constraints, pricing
schedule, switches, clock, store epoch)``.  Repeat queries between store writes must
hit the cache (an acceptance criterion of the perf work); any store
mutation bumps the epoch and must invalidate; and the executor must refuse
to spend money on a rewrite computed at a stale epoch.
"""

import pytest

from repro.errors import ExecutionError
from repro.market.pricing import PricingPolicy
from repro.relational.query import AttributeConstraint
from repro.testing import registered_payless, tiny_weather_market


#: ``tiny_weather_market``'s schedule: ten tuples a page at $1.
PRICING = PricingPolicy(tuples_per_transaction=10)


def fresh_payless(**kwargs):
    return registered_payless(tiny_weather_market(), **kwargs)


class TestMemoization:
    def test_repeat_query_hits_cache_and_is_free(self):
        """Acceptance criterion: a repeated query is a memo hit, not a rebuy."""
        payless = fresh_payless()
        sql = (
            "SELECT Temperature FROM Weather "
            "WHERE Country = 'CountryA' AND StationID = 2"
        )
        first = payless.query(sql)
        assert first.stats.transactions > 0
        hits_before = payless.rewriter.cache_hits
        second = payless.query(sql)
        assert payless.rewriter.cache_hits > hits_before
        assert second.stats.transactions == 0
        assert sorted(second.rows) == sorted(first.rows)
        assert 0.0 < payless.rewriter.cache_hit_rate <= 1.0

    def test_identical_rewrites_share_one_result(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        constraints = [AttributeConstraint("Country", value="CountryA")]
        first = rewriter.rewrite("Weather", constraints, PRICING)
        misses = rewriter.cache_misses
        second = rewriter.rewrite("Weather", constraints, PRICING)
        assert second is first
        assert rewriter.cache_misses == misses
        assert first.store_epoch == payless.store.epoch_of("Weather")

    def test_record_invalidates(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        constraints = [AttributeConstraint("Country", value="CountryA")]
        first = rewriter.rewrite("Weather", constraints, PRICING)
        assert not first.fully_covered
        space = payless.catalog.statistics("Weather").space
        box = space.boxes_for_constraints(constraints)[0]
        payless.store.record("Weather", box, [])
        again = rewriter.rewrite("Weather", constraints, PRICING)
        assert again is not first
        assert again.fully_covered
        assert again.store_epoch == payless.store.epoch_of("Weather")

    def test_clock_advance_invalidates(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        constraints = [AttributeConstraint("Country", value="CountryB")]
        first = rewriter.rewrite("Weather", constraints, PRICING)
        payless.store.advance_clock(1)
        second = rewriter.rewrite("Weather", constraints, PRICING)
        assert second is not first

    def test_different_page_size_is_a_different_entry(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        constraints = [AttributeConstraint("Country", value="CountryA")]
        small = rewriter.rewrite("Weather", constraints, PricingPolicy(5))
        large = rewriter.rewrite("Weather", constraints, PricingPolicy(500))
        assert small is not large

    def test_different_price_is_a_different_entry(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        constraints = [AttributeConstraint("Country", value="CountryA")]
        cheap = rewriter.rewrite("Weather", constraints, PRICING)
        dear = rewriter.rewrite(
            "Weather",
            constraints,
            PricingPolicy(tuples_per_transaction=10, price_per_transaction=20.0),
        )
        assert cheap is not dear
        assert dear.estimated_transactions == cheap.estimated_transactions
        assert dear.estimated_price == 20 * cheap.estimated_price

    def test_unhashable_constraint_computes_uncached(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        # A list-valued point is off-domain (the space only indexes ints),
        # and — being unhashable — must bypass the memo without crashing.
        constraints = [AttributeConstraint("StationID", value=[1, 2])]
        first = rewriter.rewrite("Weather", constraints, PRICING)
        second = rewriter.rewrite("Weather", constraints, PRICING)
        assert first is not second
        assert first.fully_covered  # empty request region: nothing to buy

    def test_memo_cap_bounds_the_table(self):
        payless = fresh_payless()
        rewriter = payless.rewriter
        rewriter.MEMO_CAP = 3
        for station in range(1, 5):
            rewriter.rewrite(
                "Weather",
                [AttributeConstraint("StationID", value=station)],
                PRICING,
            )
        assert len(rewriter._memo) <= 3  # noqa: SLF001


class TestStalenessGuard:
    def test_executor_rejects_stale_rewrite(self):
        """Regression: execution must never spend on a planning-epoch rewrite."""
        payless = fresh_payless()
        payless.query("SELECT * FROM Station")
        pricing = payless.context.pricing("Station")
        stale = payless.rewriter.rewrite("Station", [], pricing)
        space = payless.catalog.statistics("Station").space
        payless.store.record("Station", space.full_box, [])  # bump the epoch

        class StaleRewriter:
            enabled = True
            prune = True

            def rewrite(self, table, constraints, pricing):
                return stale

        payless.context.rewriter = StaleRewriter()
        with pytest.raises(ExecutionError, match="stale rewrite"):
            payless.query("SELECT * FROM Station")

    def test_normal_repeat_execution_is_not_stale(self):
        payless = fresh_payless()
        sql = "SELECT * FROM Station WHERE Country = 'CountryB'"
        payless.query(sql)
        result = payless.query(sql)  # planning + execution at one epoch
        assert result.stats.transactions == 0
