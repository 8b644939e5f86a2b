"""Batch (multi-query) optimization tests: the ordering policy, and a
deferred batch flushed through the scheduler in that order."""

import pytest

from repro import PayLess
from repro.serve import QueryScheduler, ServeConfig
from repro.serve.scheduler import plan_batch_order

BROAD = ("SELECT * FROM Weather WHERE Country = 'CountryA'", ())
NARROW_1 = (
    "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3",
    (),
)
NARROW_2 = (
    "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date >= 7",
    (),
)


def flush_batch(payless, batch):
    """Defer ``batch`` as one user and flush it: the results in submission
    order, and the tickets in execution order."""
    with QueryScheduler(payless, ServeConfig(workers=1)) as scheduler:
        session = scheduler.session("batch")
        deferred = [session.defer(sql, params) for sql, params in batch]
        executed = scheduler.flush()
    return [ticket.result() for ticket in deferred], executed


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
        results, executed = flush_batch(mini_payless, [NARROW_1, BROAD, NARROW_2])
        assert len(results) == 3 and len(executed) == 3
        # NARROW_1 covers 4 stations x 3 days = 12 rows.
        assert len(results[0].rows) == 12
        # BROAD covers 4 stations x 10 days.
        assert len(results[1].rows) == 40

    def test_narrow_queries_ride_free(self, mini_payless):
        results, executed = flush_batch(mini_payless, [NARROW_1, BROAD, NARROW_2])
        # The broad query executes first (4 transactions at t=10), the
        # narrow ones are then fully covered.
        assert executed[0].sql == BROAD[0]
        broad_cost = results[1].stats.transactions
        assert mini_payless.total_transactions == broad_cost
        assert results[0].stats.transactions == 0
        assert results[2].stats.transactions == 0

    def test_batch_not_worse_than_submission_order(self, mini_weather_market):
        batch = [NARROW_1, NARROW_2, BROAD]

        batched = PayLess.full(mini_weather_market)
        batched.register_dataset("WHW")
        flush_batch(batched, batch)

        naive = PayLess.full(mini_weather_market)
        naive.register_dataset("WHW")
        naive_total = sum(
            naive.query(sql, params).stats.transactions for sql, params in batch
        )
        assert batched.total_transactions <= naive_total
