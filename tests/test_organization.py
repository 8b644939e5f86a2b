"""Multi-user serving of one installation: shared store, per-user billing,
deferred batch — all on the scheduler, the one multi-user front end."""

import pytest

from repro.errors import AdmissionError, SqlAnalysisError
from repro.serve import QueryScheduler, ServeConfig


@pytest.fixture
def scheduler(mini_payless):
    with QueryScheduler(mini_payless, ServeConfig(workers=2)) as scheduler:
        yield scheduler


class TestSharedStore:
    def test_one_users_purchase_helps_another(self, scheduler):
        alice = scheduler.session("alice")
        bob = scheduler.session("bob")
        first = alice.query("SELECT * FROM Weather WHERE Country = 'CountryA'")
        second = bob.query(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        assert first.stats.transactions > 0
        assert second.stats.transactions == 0  # rides on Alice's purchase

    def test_user_identity_stable(self, scheduler):
        assert scheduler.session("Ann") is scheduler.session("ann")
        assert len(scheduler.sessions) == 1


class TestAttribution:
    def test_spend_attributed_per_user(self, scheduler):
        alice = scheduler.session("alice")
        bob = scheduler.session("bob")
        a = alice.query("SELECT * FROM Station")
        b = bob.query("SELECT * FROM Weather WHERE Country = 'CountryB'")
        assert alice.transactions == a.stats.transactions
        assert bob.transactions == b.stats.transactions
        report = scheduler.spend_report()
        assert "alice" in report and "bob" in report
        assert "unattributed" not in report


class TestDeferredBatch:
    def test_flush_executes_everything(self, scheduler):
        alice = scheduler.session("alice")
        bob = scheduler.session("bob")
        t1 = alice.defer(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        t2 = bob.defer("SELECT * FROM Weather WHERE Country = 'CountryA'")
        assert not t1.done and not t2.done
        tickets = scheduler.flush()
        assert scheduler.flush() == []  # nothing is left queued
        assert set(tickets) == {t1, t2}
        assert all(ticket.done for ticket in tickets)
        assert len(t2.result().rows) == 40

    def test_batch_order_makes_narrow_queries_free(self, scheduler):
        alice = scheduler.session("alice")
        bob = scheduler.session("bob")
        narrow = alice.defer(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        broad = bob.defer("SELECT * FROM Weather WHERE Country = 'CountryA'")
        assert scheduler.flush() == [broad, narrow]
        # The broad query runs first (containment order), so the narrow
        # one is covered and free; Alice pays nothing.
        assert narrow.result().stats.transactions == 0
        assert broad.result().stats.transactions > 0
        assert alice.transactions == 0
        assert bob.transactions == broad.result().stats.transactions
        assert (alice.queries, bob.queries) == (1, 1)

    def test_flush_empty(self, scheduler):
        assert scheduler.flush() == []

    def test_a_query_that_does_not_compile_is_refused_at_defer(self, scheduler):
        with pytest.raises(SqlAnalysisError):
            scheduler.session("alice").defer("SELECT * FROM Nowhere")
        assert scheduler.flush() == []

    def test_close_fails_what_was_never_flushed(self, mini_payless):
        with QueryScheduler(mini_payless, ServeConfig(workers=1)) as scheduler:
            ticket = scheduler.session("alice").defer("SELECT * FROM Station")
        with pytest.raises(AdmissionError):
            ticket.result(timeout=1.0)
        with pytest.raises(AdmissionError):
            scheduler.session("alice").defer("SELECT * FROM Station")
        assert mini_payless.total_transactions == 0
