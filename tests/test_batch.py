"""Batch (multi-query) optimization tests."""

import pytest

from repro import PayLess
from repro.core.batch import execute_batch, plan_batch_order

BROAD = ("SELECT * FROM Weather WHERE Country = 'CountryA'", ())
NARROW_1 = (
    "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3",
    (),
)
NARROW_2 = (
    "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date >= 7",
    (),
)


class TestOrdering:
    def test_containing_query_goes_first(self, mini_payless):
        compiled = [
            mini_payless.compile(*NARROW_1),
            mini_payless.compile(*BROAD),
            mini_payless.compile(*NARROW_2),
        ]
        order = plan_batch_order(mini_payless, compiled)
        assert order[0] == 1  # the broad query dominates both narrow ones

    def test_order_is_a_permutation(self, mini_payless):
        compiled = [mini_payless.compile(*q) for q in (NARROW_1, NARROW_2)]
        order = plan_batch_order(mini_payless, compiled)
        assert sorted(order) == [0, 1]


class TestExecution:
    def test_results_in_submission_order(self, mini_payless):
        batch = [NARROW_1, BROAD, NARROW_2]
        outcome = execute_batch(mini_payless, batch)
        assert len(outcome.results) == 3
        # NARROW_1 covers 4 stations x 3 days = 12 rows.
        assert len(outcome.results[0].rows) == 12
        # BROAD covers 4 stations x 10 days.
        assert len(outcome.results[1].rows) == 40

    def test_narrow_queries_ride_free(self, mini_payless):
        outcome = execute_batch(mini_payless, [NARROW_1, BROAD, NARROW_2])
        # The broad query executes first (4 transactions at t=10), the
        # narrow ones are then fully covered.
        broad_cost = outcome.results[1].stats.transactions
        assert outcome.total_transactions == broad_cost
        assert outcome.results[0].stats.transactions == 0
        assert outcome.results[2].stats.transactions == 0

    def test_batch_not_worse_than_submission_order(self, mini_weather_market):
        batch = [NARROW_1, NARROW_2, BROAD]

        batched = PayLess.full(mini_weather_market)
        batched.register_dataset("WHW")
        clever = execute_batch(batched, batch)

        naive = PayLess.full(mini_weather_market)
        naive.register_dataset("WHW")
        naive_total = sum(
            naive.query(sql, params).stats.transactions for sql, params in batch
        )
        assert clever.total_transactions <= naive_total
