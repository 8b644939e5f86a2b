"""One remainder call is one sans-IO machine; the two drivers only wait.

``Purchases._call_machine`` holds the whole per-call protocol — coverage
re-check, singleflight leader/follower, failure capture — as a generator
that yields ``("fetch", request)`` and ``("wait", flight)``.  The first
half drives it by hand, with no thread and no event loop, through the
interleavings the realtime concurrency tests can only reach by luck; the
second half runs one scripted multi-call access through both real
drivers — inline on an instant market, pipelined on the event loop once
the same latency model waits — and requires identical outcomes, ledgers
and stats.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.purchase import (
    CallAccount,
    CoveredSkip,
    FailedFetch,
    Purchases,
    _CallBatch,
)
from repro.core.objectives import QueryOptions
from repro.errors import TransportError
from repro.market.faults import FaultPolicy
from repro.market.rest import RestRequest
from repro.market.transport import FetchResult, TransportConfig
from repro.serve.singleflight import SingleflightGroup
from repro.testing import registered_payless, tiny_weather_market

from .fetch_drivers import canonical_ledger, drive


class _SpyLock:
    """A lock stand-in that knows whether it is held."""

    def __init__(self):
        self.depth = 0

    def __enter__(self):
        self.depth += 1

    def __exit__(self, *exc):
        self.depth -= 1


class _FakeTableStore:
    def __init__(self, covered: bool = False):
        self.lock = _SpyLock()
        self.covered = covered

    def is_covered(self, box, policy, now) -> bool:
        assert self.lock.depth == 1, "coverage is re-checked under the lock"
        return self.covered


class _Call:
    """One hand-driven call machine of one (fake) session."""

    def __init__(self, payless, coalescer, table_store, request):
        self.purchases = Purchases(
            payless.context, payless.context.transport.new_scope()
        )
        self.batch = _CallBatch(
            table="Weather", coalescer=coalescer, table_store=table_store
        )
        self.machine = self.purchases._call_machine(self.batch, None, request)
        self.finished = None

    def step(self, send=None, throw=None):
        """Advance to the next effect; ``None`` once the machine returned
        (its ``(outcome, span)`` is then in ``finished``)."""
        try:
            if throw is not None:
                effect = self.machine.throw(throw)
            else:
                effect = self.machine.send(send)
        except StopIteration as stop:
            self.finished = stop.value
            return None
        # No lock may be held while a driver waits on the effect.
        assert self.batch.table_store is None or (
            self.batch.table_store.lock.depth == 0
        )
        return effect


@pytest.fixture
def world():
    payless = registered_payless(tiny_weather_market())
    request = RestRequest("WHW", "Weather", ())
    coalescer = SingleflightGroup()
    table_store = _FakeTableStore()

    def call(shared=True):
        if not shared:
            return _Call(payless, None, None, request)
        return _Call(payless, coalescer, table_store, request)

    def bought():
        return payless.context.transport.fetch(
            request, payless.context.transport.new_scope()
        )

    yield payless, request, coalescer, table_store, call, bought
    payless.close()


class TestByHand:
    def test_covered_box_is_skipped_without_a_fetch(self, world):
        __, request, coalescer, table_store, call, __ = world
        table_store.covered = True
        one = call()
        assert one.step() is None
        outcome, span = one.finished
        assert outcome == CoveredSkip(request=request) and span is None
        assert CallAccount.of([outcome]) == CallAccount(covered_skips=1)
        assert coalescer.flights_led == 0

    def test_failed_leader_aborts_before_finishing_and_a_follower_leads(
        self, world
    ):
        payless, request, coalescer, __, call, bought = world
        leader, follower = call(), call()
        assert leader.step() == ("fetch", request)
        kind, flight = follower.step()
        assert kind == "wait" and not flight.done

        error = TransportError("lost in transit")
        assert leader.step(throw=error) is None
        outcome, __ = leader.finished
        assert isinstance(outcome, FailedFetch) and outcome.error is error
        # Deregistered and failed by the time the leader's machine is done:
        # the woken follower cannot be served the unbilled fetch.
        assert flight.failed and coalescer.in_flight == 0
        assert leader.batch.lead_flights == []

        assert follower.step() == ("fetch", request)
        assert coalescer.flights_led == 2
        result = bought()
        assert follower.step(send=result) is None
        assert follower.finished == (result, None)
        (led,) = follower.batch.lead_flights
        assert led.completed and led.result is result
        # The failed lead and the follower's own purchase, nothing shared.
        account = CallAccount.of([outcome, follower.finished[0]])
        assert (account.failed_calls, account.calls) == (1, 1)
        assert account.coalesced_fetches == 0

    def test_other_errors_abort_the_flight_and_propagate(self, world):
        __, request, coalescer, __, call, __ = world
        leader, follower = call(), call()
        assert leader.step() == ("fetch", request)
        __, flight = follower.step()
        with pytest.raises(RuntimeError, match="boom"):
            leader.step(throw=RuntimeError("boom"))
        assert flight.failed and coalescer.flights_aborted == 1
        # The follower is not stranded: it leads the next attempt.
        assert follower.step() == ("fetch", request)

    def test_follower_of_a_completed_flight_rides_for_free(self, world):
        payless, request, coalescer, __, call, bought = world
        leader, follower = call(), call()
        assert leader.step() == ("fetch", request)
        kind, flight = follower.step()
        assert kind == "wait"
        result = bought()
        billed = len(list(payless.market.ledger))
        assert leader.step(send=result) is None
        assert flight.completed

        assert follower.step() is None
        shared, __ = follower.finished
        assert shared.coalesced and shared.response is result.response
        assert (shared.saved_transactions, shared.saved_price) == (
            result.response.transactions, result.response.price
        )
        account = CallAccount.of([shared])
        assert (account.coalesced_fetches, account.calls) == (1, 0)
        assert account.coalesced_savings_price == result.response.price
        assert follower.batch.lead_flights == []
        assert leader.batch.lead_flights == [flight]
        assert len(list(payless.market.ledger)) == billed
        assert payless.market.ledger.coalesced_savings.calls == 1

    def test_without_a_coalescer_the_call_is_one_fetch(self, world):
        __, request, __, __, call, bought = world
        one = call(shared=False)
        assert one.step() == ("fetch", request)
        result = bought()
        assert one.step(send=result) is None
        assert one.finished == (result, None)
        assert one.batch.lead_flights == []


# ---------------------------------------------------------------- both drivers

WINDOW_SQL = (
    "SELECT Country, StationID, Date, Temperature FROM Weather "
    "WHERE Date >= ? AND Date <= ?"
)


@pytest.fixture
def settled(monkeypatch):
    """A summary of every access's outcome list, as it is settled."""
    seen = []
    settle = Purchases._settle

    def recording(self, drained, parent_span):
        outcomes, lead_flights = settle(self, drained, parent_span)
        seen.append(
            [
                (type(outcome).__name__, outcome.response.request.url(),
                 outcome.response.record_count, outcome.billed_transactions,
                 outcome.attempts, outcome.coalesced)
                if isinstance(outcome, FetchResult)
                else (type(outcome).__name__, outcome.request.url())
                for outcome in outcomes
            ]
        )
        assert len(lead_flights) == sum(
            isinstance(outcome, FetchResult) for outcome in outcomes
        )
        return outcomes, lead_flights

    monkeypatch.setattr(Purchases, "_settle", recording)
    return seen


def _scripted_access(settled, driver, transport):
    """Buy the middle of a window, then the window: the second access
    issues one remainder call per uncovered side, through the singleflight
    layer of whichever driver runs."""
    payless = registered_payless(
        drive(tiny_weather_market(days=10, tuples_per_transaction=5), driver),
        options=QueryOptions(transport=transport),
    )
    payless.context.coalescer = SingleflightGroup()
    try:
        results = [
            payless.query(WINDOW_SQL, (4, 6)),
            payless.query(WINDOW_SQL, (2, 9)),
        ]
    finally:
        payless.close()
    assert payless.context.coalescer.in_flight == 0
    stats = [
        {
            name: value
            for name, value in dataclasses.asdict(result.stats).items()
            # What names the driver, not what the access cost.
            if name != "prefetch_hits"
        }
        for result in results
    ]
    outcomes, settled[:] = list(settled), []
    return outcomes, canonical_ledger(payless.market.ledger), stats


@pytest.mark.parametrize(
    "transport",
    [
        None,
        TransportConfig(
            faults=FaultPolicy.uniform(seed=7, rate=0.35),
            retry_budget=None,
            breaker_failure_threshold=10_000,
        ),
    ],
    ids=["calm", "chaos-7"],
)
def test_both_drivers_run_the_same_access(settled, transport):
    inline = _scripted_access(settled, "inline", transport)
    awaited = _scripted_access(settled, "async", transport)
    outcomes, __, stats = inline
    assert len(outcomes[1]) > 1, "the scripted access must be multi-call"
    assert stats[1]["calls"] == len(outcomes[1])
    assert awaited == inline
