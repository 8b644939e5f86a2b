"""Multi-user organizations: shared store, per-user billing, deferred batch."""

import pytest

from repro.core.organization import Organization


@pytest.fixture
def organization(mini_payless):
    return Organization(mini_payless, name="acme")


class TestSharedStore:
    def test_one_users_purchase_helps_another(self, organization):
        alice = organization.user("alice")
        bob = organization.user("bob")
        first = alice.query("SELECT * FROM Weather WHERE Country = 'CountryA'")
        second = bob.query(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        assert first.stats.transactions > 0
        assert second.stats.transactions == 0  # rides on Alice's purchase

    def test_user_identity_stable(self, organization):
        assert organization.user("Ann") is organization.user("ann")
        assert len(organization.users) == 1


class TestAttribution:
    def test_spend_attributed_per_user(self, organization):
        alice = organization.user("alice")
        bob = organization.user("bob")
        a = alice.query("SELECT * FROM Station")
        b = bob.query("SELECT * FROM Weather WHERE Country = 'CountryB'")
        assert alice.transactions == a.stats.transactions
        assert bob.transactions == b.stats.transactions
        report = organization.spend_report()
        assert "alice" in report and "bob" in report
        assert "unattributed" not in report


class TestDeferredBatch:
    def test_flush_executes_everything(self, organization):
        alice = organization.user("alice")
        bob = organization.user("bob")
        t1 = alice.defer(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        t2 = bob.defer("SELECT * FROM Weather WHERE Country = 'CountryA'")
        assert organization.pending_count == 2
        results = organization.flush()
        assert organization.pending_count == 0
        assert set(results) == {t1, t2}
        assert len(results[t2].rows) == 40

    def test_batch_order_makes_narrow_queries_free(self, organization):
        alice = organization.user("alice")
        bob = organization.user("bob")
        narrow = alice.defer(
            "SELECT * FROM Weather WHERE Country = 'CountryA' AND Date <= 3"
        )
        broad = bob.defer("SELECT * FROM Weather WHERE Country = 'CountryA'")
        results = organization.flush()
        # The broad query runs first (containment order), so the narrow
        # one is covered and free; Alice pays nothing.
        assert results[narrow].stats.transactions == 0
        assert results[broad].stats.transactions > 0
        assert alice.transactions == 0
        assert bob.transactions == results[broad].stats.transactions

    def test_flush_empty(self, organization):
        assert organization.flush() == {}
