"""The concurrent serving front-end: scheduler, admission, coalescing.

Deterministic by construction: tests that need two sessions' fetches to
*overlap* gate the market (or the fault draw) on the singleflight
registry actually holding a waiter, instead of racing real sleeps.
"""

import threading
import time

import pytest

from repro.errors import AdmissionError, MarketError, MarketUnavailableError
from repro.market.faults import FaultKind, InjectedFault
from repro.serve import QueryScheduler, ServeConfig, SingleflightGroup


SQL_A = "SELECT * FROM Weather WHERE Country = 'CountryA'"
SQL_B = "SELECT * FROM Weather WHERE Country = 'CountryB'"


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


class _StubResult:
    """Shaped like a QueryResult as far as the scheduler reads it."""

    class _Stats:
        transactions = 1
        price = 1.0
        coalesced_fetches = 0
        coalesced_savings_price = 0.0

    stats = _Stats()


class _StubPayless:
    """A controllable installation: queries block until released."""

    class _Context:
        coalescer = None

    def __init__(self):
        self.context = self._Context()
        self._lock = threading.Lock()
        self.calls = []
        self.running = 0
        self.max_running = 0
        self.gate = threading.Event()
        self.gate.set()  # open by default: queries return immediately
        #: Per-SQL gates, for the queries that must not share ``gate``.
        self.gates = {}

    def query(self, sql, params=(), objective=None, admit=None):
        with self._lock:
            self.calls.append(sql)
            self.running += 1
            self.max_running = max(self.max_running, self.running)
        try:
            if not self.gates.get(sql, self.gate).wait(timeout=10.0):
                raise TimeoutError("stub gate never opened")
            if sql == "BOOM":
                raise MarketError("injected query failure")
            return _StubResult()
        finally:
            with self._lock:
                self.running -= 1

    def bill(self):
        return "stub bill"


class TestConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.workers >= 1 and config.coalesce

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"max_queue": 0},
            {"session_max_inflight": 0},
            {"admission_timeout_s": -1.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(MarketError):
            ServeConfig(**kwargs)


class TestScheduling:
    def test_fifo_within_session(self):
        stub = _StubPayless()
        config = ServeConfig(workers=1, session_max_inflight=8, coalesce=False)
        with QueryScheduler(stub, config) as scheduler:
            session = scheduler.session("alice")
            for i in range(6):
                session.submit(f"q{i}")
        assert stub.calls == [f"q{i}" for i in range(6)]

    def test_session_inflight_cap(self):
        stub = _StubPayless()
        stub.gate.clear()  # queries block on a worker until released
        config = ServeConfig(workers=4, session_max_inflight=2, coalesce=False)
        scheduler = QueryScheduler(stub, config)
        try:
            session = scheduler.session("alice")
            tickets = [session.submit(f"q{i}") for i in range(4)]
            # Only 2 of alice's 4 queries may occupy workers at once.
            assert _wait_for(lambda: stub.running == 2)
            time.sleep(0.05)
            assert stub.max_running == 2
            stub.gate.set()
            for ticket in tickets:
                ticket.result(timeout=10.0)
            assert stub.max_running == 2
        finally:
            stub.gate.set()
            scheduler.close()

    def test_one_chatty_session_cannot_starve_another(self):
        stub = _StubPayless()
        stub.gate.clear()
        config = ServeConfig(workers=2, session_max_inflight=1, coalesce=False)
        scheduler = QueryScheduler(stub, config)
        try:
            alice = scheduler.session("alice")
            for i in range(5):
                alice.submit(f"alice-{i}")
            bob_ticket = scheduler.session("bob").submit("bob-0")
            # Alice holds one worker (her cap); bob's query still runs on
            # the other worker despite alice's deeper backlog.
            assert _wait_for(lambda: "bob-0" in stub.calls)
            assert stub.calls.count("alice-0") == 1
            assert "alice-1" not in stub.calls
            stub.gate.set()
            bob_ticket.result(timeout=10.0)
            scheduler.drain(timeout=10.0)
        finally:
            stub.gate.set()
            scheduler.close()

    def test_backpressure_times_out_with_admission_error(self):
        stub = _StubPayless()
        stub.gate.clear()
        config = ServeConfig(
            workers=1,
            max_queue=1,
            admission_timeout_s=0.05,
            coalesce=False,
        )
        scheduler = QueryScheduler(stub, config)
        try:
            session = scheduler.session("alice")
            first = session.submit("q0")  # fills the queue
            with pytest.raises(AdmissionError):
                session.submit("q1")
            stub.gate.set()
            first.result(timeout=10.0)
            # Capacity freed: admission works again.
            session.submit("q2").result(timeout=10.0)
        finally:
            stub.gate.set()
            scheduler.close()

    def test_admission_deadline_survives_a_lost_wakeup(self):
        """One deadline per submit: two submitters block on a full queue,
        one completion frees one slot, and the submitter that loses it is
        refused when *its* timeout runs out — not a fresh timeout after
        the wake-up (0.7 s here, and never under sustained overload)."""
        stub = _StubPayless()
        stub.gate.clear()  # whoever wins the freed slot holds it
        stub.gates["q0"] = release_first = threading.Event()
        config = ServeConfig(
            workers=1, max_queue=1, admission_timeout_s=0.4, coalesce=False
        )
        scheduler = QueryScheduler(stub, config)
        refused_after, admitted = [], []

        def blocked(sql):
            started = time.monotonic()
            try:
                admitted.append(scheduler.session("alice").submit(sql))
            except AdmissionError:
                refused_after.append(time.monotonic() - started)

        try:
            scheduler.session("alice").submit("q0")  # fills the queue
            submitters = [
                threading.Thread(target=blocked, args=(sql,))
                for sql in ("q1", "q2")
            ]
            for thread in submitters:
                thread.start()
            time.sleep(0.3)
            release_first.set()  # one slot frees; both submitters wake
            for thread in submitters:
                thread.join(timeout=10.0)
            assert len(admitted) == 1 and len(refused_after) == 1
            assert 0.35 <= refused_after[0] < 0.55
        finally:
            stub.gate.set()
            scheduler.close()

    def test_submit_after_close_refused(self):
        stub = _StubPayless()
        scheduler = QueryScheduler(stub, ServeConfig(workers=1))
        scheduler.close()
        with pytest.raises(AdmissionError):
            scheduler.session("alice").submit("q0")

    def test_query_error_relayed_to_ticket_only(self):
        stub = _StubPayless()
        with QueryScheduler(stub, ServeConfig(workers=2)) as scheduler:
            session = scheduler.session("alice")
            bad = session.submit("BOOM")
            good = session.submit("q0")
            with pytest.raises(MarketError):
                bad.result(timeout=10.0)
            assert good.result(timeout=10.0) is not None
            assert session.failures == 1
            assert session.queries == 1

    def test_drain_timeout(self):
        stub = _StubPayless()
        stub.gate.clear()
        scheduler = QueryScheduler(stub, ServeConfig(workers=1))
        try:
            scheduler.session("alice").submit("q0")
            with pytest.raises(AdmissionError):
                scheduler.drain(timeout=0.05)
            stub.gate.set()
            scheduler.drain(timeout=10.0)
        finally:
            stub.gate.set()
            scheduler.close()

    def test_coalescer_wired_and_unwired(self):
        stub = _StubPayless()
        scheduler = QueryScheduler(stub, ServeConfig(coalesce=True))
        assert isinstance(scheduler.coalescer, SingleflightGroup)
        assert stub.context.coalescer is scheduler.coalescer
        scheduler.close()
        assert stub.context.coalescer is None
        off = QueryScheduler(stub, ServeConfig(coalesce=False))
        assert off.coalescer is None
        off.close()


class TestServing:
    """End-to-end over a real installation (the mini weather market)."""

    def test_attribution_sums_to_installation_totals(self, mini_payless):
        with QueryScheduler(
            mini_payless, ServeConfig(workers=4)
        ) as scheduler:
            tickets = [
                scheduler.session("alice").submit(SQL_A),
                scheduler.session("bob").submit(SQL_B),
                scheduler.session("alice").submit(
                    "SELECT * FROM Station WHERE Country = 'CountryA'"
                ),
            ]
            for ticket in tickets:
                ticket.result(timeout=30.0)
        sessions = scheduler.sessions
        assert sum(s.queries for s in sessions) == 3
        assert (
            sum(s.transactions for s in sessions)
            == mini_payless.total_transactions
        )
        assert sum(s.price for s in sessions) == pytest.approx(
            mini_payless.total_price
        )
        report = scheduler.spend_report()
        assert "alice" in report and "bob" in report

    def test_overlapping_identical_fetches_bill_once(self, mini_payless):
        """The tentpole invariant, deterministically: the market gates the
        leader's call until a second session has joined the flight, so the
        two fetches provably overlap — and exactly one is billed."""
        real_get = mini_payless.market.get
        with QueryScheduler(
            mini_payless, ServeConfig(workers=2)
        ) as scheduler:
            group = scheduler.coalescer

            def gated_get(request, **kwargs):
                def joined():
                    with group._lock:
                        flight = group._flights.get(request.url())
                        return flight is not None and flight.waiters >= 1

                _wait_for(joined)
                return real_get(request, **kwargs)

            mini_payless.market.get = gated_get
            try:
                first = scheduler.session("alice").submit(SQL_A)
                second = scheduler.session("bob").submit(SQL_A)
                results = [
                    first.result(timeout=30.0),
                    second.result(timeout=30.0),
                ]
            finally:
                mini_payless.market.get = real_get
        paid = [r for r in results if r.stats.transactions > 0]
        free = [r for r in results if r.stats.transactions == 0]
        assert len(paid) == 1 and len(free) == 1
        # The rider shares the leader's rows and records the saved bill.
        assert sorted(free[0].rows) == sorted(paid[0].rows)
        assert free[0].stats.coalesced_fetches >= 1
        assert free[0].stats.coalesced_savings_transactions == (
            paid[0].stats.transactions
        )
        ledger = mini_payless.market.ledger
        assert ledger.total_transactions == paid[0].stats.transactions
        savings = ledger.coalesced_savings
        assert savings.calls >= 1
        assert savings.transactions == paid[0].stats.transactions
        assert mini_payless.metrics()["fetch_coalesced"] >= 1
        assert group.fetches_coalesced >= 1
        report = scheduler.spend_report()
        assert "coalesced" in report and "saved" in report

    def test_failed_leader_never_bills_and_never_serves_waiters(
        self, mini_payless
    ):
        """Forced leader failure under coalescing: the first call fails
        only after a waiter joined its flight.  Both queries must error,
        nothing may be billed, and the waiter must have retried as a new
        leader (flights_aborted counts the failed one) rather than being
        served rows from the unbilled fetch."""
        transport = mini_payless.context.transport

        class _FailFirstAfterJoin:
            """FaultPolicy stand-in: first attempt blocks until the flight
            has a waiter, then fails; every later attempt fails fast."""

            timeout_ms = 0.0

            def __init__(self, group):
                self.group = group
                self.first = True

            def outcome(self, call_key, attempt):
                url = call_key.split("#")[0]
                if self.first:
                    self.first = False

                    def joined():
                        with self.group._lock:
                            flight = self.group._flights.get(url)
                            return (
                                flight is not None and flight.waiters >= 1
                            )

                    assert _wait_for(joined), "no waiter ever joined"
                return FaultKind.SERVER_ERROR

            def duplicated(self, call_key, attempt):
                return False

            def jitter(self, call_key, attempt):
                return 0.0

            def fault_for(self, kind, call_key):
                return InjectedFault(kind, f"forced failure on {call_key}")

        with QueryScheduler(
            mini_payless, ServeConfig(workers=2)
        ) as scheduler:
            transport.faults = _FailFirstAfterJoin(scheduler.coalescer)
            try:
                first = scheduler.session("alice").submit(SQL_A)
                second = scheduler.session("bob").submit(SQL_A)
                errors = 0
                for ticket in (first, second):
                    with pytest.raises(MarketUnavailableError):
                        ticket.result(timeout=30.0)
                    errors += 1
            finally:
                transport.faults = None
        assert errors == 2
        # Server errors never bill: no one was silently charged.
        ledger = mini_payless.market.ledger
        assert ledger.total_calls == 0
        assert ledger.total_transactions == 0
        # The failed flight was aborted; its waiter re-led (and failed on
        # its own budget) instead of consuming the failed result.
        assert scheduler.coalescer.flights_aborted >= 2
        assert scheduler.coalescer.in_flight == 0
        sessions = scheduler.sessions
        assert sum(s.failures for s in sessions) == 2
        assert sum(s.transactions for s in sessions) == 0

    def test_organization_serve_front_end(self, mini_payless):
        """One installation per buyer organization, opened for serving: the
        sessions share its store, and closing unwires the coalescer."""
        with QueryScheduler(mini_payless, ServeConfig(workers=2)) as scheduler:
            assert mini_payless.context.coalescer is scheduler.coalescer
            result = scheduler.session("alice").query(SQL_A)
            repeat = scheduler.session("bob").query(SQL_A)
        assert result.stats.transactions > 0
        assert repeat.stats.transactions == 0
        assert mini_payless.context.coalescer is None

