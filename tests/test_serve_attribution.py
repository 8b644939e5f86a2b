"""Attribution reconciles over every way into the one multi-user front end:
``session.query``, ``submit``, ``defer`` + ``flush``, a hard-budget
rejection, an advisory breach and a query run on the installation
directly — and a budget holds against queries of one session in flight
together."""

import random
import threading

import pytest

from repro.core.budget import BudgetExceededError, BudgetMode, BudgetPolicy
from repro.core.optimizer import Optimizer
from repro.serve import QueryScheduler, ServeConfig
from repro.testing import registered_payless, tiny_weather_market

WINDOW = "SELECT * FROM Weather WHERE Country = ? AND Date >= ? AND Date <= ?"
#: Nothing the drawn windows buy covers Station: its estimate is never 0.
STATIONS = "SELECT * FROM Station"


@pytest.mark.parametrize("seed", [7, 23, 101])
def test_attribution_reconciles_over_every_way_in(seed, monkeypatch):
    rng = random.Random(seed)
    payless = registered_payless(tiny_weather_market())
    planned = []
    optimize = Optimizer.optimize

    def counting(self, query):
        planned.append(query)
        return optimize(self, query)

    monkeypatch.setattr(Optimizer, "optimize", counting)

    def window():
        first = rng.randint(1, 9)
        params = (rng.choice(["CountryA", "CountryB"]), first, rng.randint(first, 10))
        return WINDOW, params

    direct, tickets, ways = [], [], set()
    with QueryScheduler(payless, ServeConfig(workers=3)) as scheduler:
        alice = scheduler.session("alice")
        bob = scheduler.session("bob", tier="economy")
        capped = scheduler.session("capped", budget=BudgetPolicy(0))
        advised = scheduler.session(
            "advised", budget=BudgetPolicy(0, BudgetMode.ADVISORY)
        )
        for __ in range(16):
            way = rng.choice(["query", "submit", "defer", "direct"])
            ways.add(way)
            session = rng.choice([alice, bob])
            if way == "query":
                session.query(*window())
            elif way == "submit":
                tickets.append(session.submit(*window()))
            elif way == "defer":
                tickets.append(session.defer(*window()))
            else:
                direct.append(payless.query(*window()))
        scheduler.drain(timeout=30.0)
        assert len(ways) == 4

        # A hard rejection plans once, bills nothing, counts as a failure.
        plans, spent = len(planned), payless.market.ledger.total_transactions
        with pytest.raises(BudgetExceededError):
            capped.query(STATIONS)
        assert len(planned) == plans + 1
        assert payless.market.ledger.total_transactions == spent
        assert (capped.rejected, capped.failures, capped.queries) == (1, 1, 0)
        # Deferred, it is refused the same way; advisory mode runs it.
        tickets.append(capped.defer(STATIONS))
        breach = advised.defer(STATIONS)
        flushed = scheduler.flush()
        assert len(flushed) >= 2 and all(t.done for t in flushed)
        assert breach.result().stats.transactions > 0
        assert (advised.advisory_breaches, advised.rejected) == (1, 0)
        assert capped.rejected == 2 and capped.transactions == 0
        report = scheduler.spend_report()

    failed = [t for t in tickets if t._error is not None]
    assert [type(t._error) for t in failed] == [BudgetExceededError]
    sessions = scheduler.sessions
    for attribute, total, unattributed in [
        ("queries", payless.queries_executed, len(direct)),
        (
            "transactions",
            payless.total_transactions,
            sum(r.stats.transactions for r in direct),
        ),
        ("price", payless.total_price, sum(r.stats.price for r in direct)),
        (
            "coalesced_fetches",
            payless.total_coalesced_fetches,
            sum(r.stats.coalesced_fetches for r in direct),
        ),
        (
            "coalesced_savings_price",
            payless.total_coalesced_price,
            sum(r.stats.coalesced_savings_price for r in direct),
        ),
    ]:
        attributed = sum(getattr(session, attribute) for session in sessions)
        assert attributed + unattributed == pytest.approx(total), attribute
    assert payless.total_transactions == payless.market.ledger.total_transactions
    assert all(session._reserved == 0 for session in sessions)
    outside = sum(r.stats.transactions for r in direct)
    assert (f"(unattributed: {outside} transactions)" in report) == bool(outside)


def test_two_inflight_queries_cannot_jointly_overspend_a_budget():
    """Each half fits the budget alone, their sum does not: the first to
    plan holds its estimate reserved while it waits on the (gated) market,
    so the second is refused — whichever order the workers take them in."""
    payless = registered_payless(tiny_weather_market())
    halves = [("CountryA", 1, 5), ("CountryA", 6, 10)]
    estimates = [payless.explain(WINDOW, half).cost for half in halves]
    limit = int(max(estimates))
    assert min(estimates) > 0 and sum(estimates) > limit

    gate = threading.Event()
    real_get = payless.market.get

    def gated_get(request, **kwargs):
        assert gate.wait(timeout=10.0), "market gate never opened"
        return real_get(request, **kwargs)

    payless.market.get = gated_get
    config = ServeConfig(workers=2, session_max_inflight=2)
    try:
        with QueryScheduler(payless, config) as scheduler:
            session = scheduler.session("alice", budget=BudgetPolicy(limit))
            tickets = [session.submit(WINDOW, half) for half in halves]
            # The market is shut, so the ticket that finishes first is the
            # refused one — while the admitted one is still in flight.
            while not any(ticket.done for ticket in tickets):
                tickets[0]._event.wait(0.005)
            refused = [ticket for ticket in tickets if ticket.done]
            assert len(refused) == 1
            with pytest.raises(BudgetExceededError):
                refused[0].result()
            assert session.remaining == limit - min(estimates)
            gate.set()
    finally:
        gate.set()
        payless.market.get = real_get
    assert (session.queries, session.rejected, session.failures) == (1, 1, 1)
    assert session.transactions == payless.total_transactions > 0
    assert session._reserved == 0
