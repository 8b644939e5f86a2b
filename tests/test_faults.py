"""Chaos suite for the money-safe transport.

The invariants that make fault injection safe to leave on:

* **at-most-once billing** — with idempotency keys, retries after a lost
  response replay for free, so the spend of a chaos run whose calls all
  eventually succeed is *bit-identical* to the fault-free run (the
  Figure 10 series doesn't move);
* **waste is accounted, not hidden** — a charge whose data never arrived
  moves to ``ledger.wasted_on_failures`` instead of inflating the spend;
* **the store is never poisoned** — only completed fetches are recorded,
  so a failed query's retry pays only for what is actually missing;
* **determinism** — the same seed replays the same faults, retries, and
  bill, even with an access's calls interleaved on the event loop.

``CHAOS_SEEDS`` matches the seeds the CI chaos job runs.
"""

import pytest

from repro.core.objectives import QueryOptions
from repro.errors import (
    MarketError,
    MarketUnavailableError,
    RetryExhaustedError,
    TransportError,
)
from repro.market.faults import FaultKind, FaultPolicy
from repro.market.rest import RestRequest
from repro.market.transport import (
    BreakerState,
    CircuitBreaker,
    MarketTransport,
    TransportConfig,
)
from repro.relational.query import AttributeConstraint
from repro.testing import oracle_evaluate, registered_payless, tiny_weather_market

from .fetch_drivers import DRIVERS, drive

CHAOS_SEEDS = (7, 23, 101)

JOIN_SQL = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Alpha' AND Station.StationID = Weather.StationID"
)
SESSION = (
    JOIN_SQL,
    "SELECT * FROM Station",
    "SELECT Temperature FROM Weather WHERE Country = 'CountryA'",
)


def weather_request(station: int = 1) -> RestRequest:
    return RestRequest(
        "WHW", "Weather", (AttributeConstraint("StationID", value=station),)
    )


class TestFaultPolicy:
    def test_outcome_is_deterministic(self):
        policy = FaultPolicy.uniform(seed=7, rate=0.8)
        draws = [policy.outcome("key", attempt) for attempt in range(1, 10)]
        again = [policy.outcome("key", attempt) for attempt in range(1, 10)]
        assert draws == again
        assert draws != [policy.outcome("other", a) for a in range(1, 10)]

    def test_consecutive_fault_cap_forces_success(self):
        policy = FaultPolicy(drop_rate=1.0, max_consecutive_faults=3)
        assert policy.outcome("key", 3) is FaultKind.DROPPED_RESPONSE
        assert policy.outcome("key", 4) is FaultKind.OK

    def test_rates_validated(self):
        with pytest.raises(MarketError):
            FaultPolicy(timeout_rate=0.6, drop_rate=0.6)
        with pytest.raises(MarketError):
            FaultPolicy(error_rate=-0.1)
        with pytest.raises(MarketError):
            FaultPolicy.uniform(seed=0, rate=1.5)

    def test_uniform_splits_rate(self):
        policy = FaultPolicy.uniform(seed=0, rate=0.4)
        assert policy.timeout_rate == pytest.approx(0.1)
        assert policy.drop_rate == pytest.approx(0.1)
        assert policy.duplicate_rate == pytest.approx(0.1)

    def test_config_validated(self):
        with pytest.raises(MarketError):
            TransportConfig(max_retries=-1)
        with pytest.raises(MarketError):
            TransportConfig(retry_budget=-1)
        with pytest.raises(MarketError):
            TransportConfig(breaker_failure_threshold=0)


class TestRetrySchedule:
    """The backoff before retry ``a``: 50 ms doubling per attempt, capped
    at 5 s, with ±10% jitter drawn from the fault policy's seed."""

    KEY = "https://market.example/WHW/Weather?Country=CountryA#0"

    @staticmethod
    def _expected(attempt, jitter):
        return min(50.0 * 2.0 ** (attempt - 1), 5000.0) * (1.0 + 0.1 * jitter)

    def test_seeded_policy_jitters_each_attempt(self):
        faults = FaultPolicy.uniform(seed=7, rate=0.2)
        transport = MarketTransport(
            tiny_weather_market(), TransportConfig(faults=faults)
        )
        timeout = faults.fault_for(FaultKind.TIMEOUT, self.KEY)
        for attempt in range(1, 9):
            assert transport._backoff_ms(
                self.KEY, attempt, timeout
            ) == self._expected(attempt, faults.jitter(self.KEY, attempt))

    def test_no_policy_means_no_jitter(self):
        transport = MarketTransport(tiny_weather_market())
        timeout = FaultPolicy(seed=0).fault_for(FaultKind.TIMEOUT, self.KEY)
        waits = [
            transport._backoff_ms(self.KEY, attempt, timeout)
            for attempt in range(1, 9)
        ]
        assert waits == [self._expected(attempt, 0.0) for attempt in range(1, 9)]
        assert waits[-1] == 5000.0


class TestAtMostOnceBilling:
    def test_dropped_response_retry_is_free(self):
        """The dangerous fault: billed server-side, response lost."""
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(drop_rate=1.0, max_consecutive_faults=2),
                max_retries=4,
            ),
        )
        result = transport.fetch(weather_request())
        assert result.attempts == 3  # two drops, then the forced success
        assert result.replayed
        # Billed exactly once; the two lost responses replayed for free.
        assert market.ledger.total_calls == 1
        assert market.replay_count == 2
        clean = tiny_weather_market()
        clean.get(weather_request())
        assert market.ledger.total_transactions == clean.ledger.total_transactions
        assert market.ledger.total_price == pytest.approx(
            clean.ledger.total_price
        )
        assert not market.ledger.wasted_on_failures

    def test_naive_client_double_bills(self):
        """Without keys every retry of a dropped response pays again."""
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(drop_rate=1.0, max_consecutive_faults=2),
                max_retries=4,
                idempotency=False,
            ),
        )
        result = transport.fetch(weather_request())
        assert result.attempts == 3
        clean = tiny_weather_market()
        clean.get(weather_request())
        assert market.ledger.total_calls == 3
        assert (
            market.ledger.total_transactions
            == 3 * clean.ledger.total_transactions
        )

    def test_duplicate_delivery_is_free_with_keys(self):
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(duplicate_rate=1.0), max_retries=0
            ),
        )
        result = transport.fetch(weather_request())
        assert market.ledger.total_calls == 1  # second delivery replayed
        assert market.replay_count == 1
        assert result.replays == 1
        assert result.billed_calls == 1

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_fig10_transactions_identical_faults_on_vs_off(self, seed):
        """Acceptance criterion: when every call eventually succeeds, the
        chaos run's spend is bit-identical to the fault-free run."""
        faulty = registered_payless(
            tiny_weather_market(),
            options=QueryOptions(
                transport=TransportConfig(
                    faults=FaultPolicy.uniform(seed=seed, rate=0.5),
                    retry_budget=None,
                    breaker_failure_threshold=10_000,
                )
            ),
        )
        clean = registered_payless(tiny_weather_market())
        faults_seen = 0
        for sql in SESSION:
            a = faulty.query(sql)
            b = clean.query(sql)
            assert a.stats.transactions == b.stats.transactions
            assert a.stats.price == pytest.approx(b.stats.price)
            assert a.stats.calls == b.stats.calls
            assert a.stats.wasted_transactions == 0
            assert sorted(a.rows) == sorted(b.rows)
            faults_seen += a.stats.faults_injected
        assert faults_seen > 0, "rate 0.5 must actually inject something"
        spent = faulty.market.ledger.spent
        assert spent.transactions == clean.market.ledger.total_transactions
        assert spent.price == pytest.approx(clean.market.ledger.total_price)
        assert not faulty.market.ledger.wasted_on_failures


class TestWasteAccounting:
    def test_terminal_failure_moves_charge_to_wasted(self):
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(drop_rate=1.0, max_consecutive_faults=None),
                max_retries=1,
                breaker_failure_threshold=100,
            ),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            transport.fetch(weather_request())
        error = excinfo.value
        assert error.attempts == 2
        assert error.elapsed_ms > 0
        # The drop billed once; that charge is waste, not spend.
        assert market.ledger.total_transactions == 0
        assert not market.ledger.spent
        assert market.ledger.wasted_on_failures.transactions == 1
        assert error.wasted_transactions == 1
        assert error.wasted_price == pytest.approx(
            market.ledger.wasted_on_failures.price
        )
        assert (error.billed_calls, error.faults, error.replays) == (1, 2, 1)

    @pytest.mark.parametrize("idempotency", [True, False])
    def test_a_failed_call_is_folded_into_the_bill(self, idempotency):
        """With a key the drop's charge is wasted; a naive client's
        charges cannot be marked, so the ledger and the bill count them
        spent."""
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(drop_rate=1.0, max_consecutive_faults=None),
                max_retries=1,
                breaker_failure_threshold=100,
                idempotency=idempotency,
            ),
        )
        with pytest.raises(RetryExhaustedError):
            transport.fetch(weather_request())
        bill, ledger = transport.bill, market.ledger
        spent, wasted = ledger.spent, ledger.wasted_on_failures
        assert (spent.calls, wasted.calls) == ((0, 1) if idempotency else (2, 0))
        assert (bill.spent_calls, bill.spent_transactions, bill.spent_price) == (
            spent.calls,
            spent.transactions,
            spent.price,
        )
        assert (bill.wasted_calls, bill.wasted_transactions, bill.wasted_price) == (
            wasted.calls,
            wasted.transactions,
            wasted.price,
        )

    def test_pure_transport_faults_cost_nothing(self):
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(
                    timeout_rate=1.0, max_consecutive_faults=None
                ),
                max_retries=2,
                breaker_failure_threshold=100,
            ),
        )
        with pytest.raises(RetryExhaustedError):
            transport.fetch(weather_request())
        assert market.ledger.total_calls == 0
        assert not market.ledger.wasted_on_failures

    def test_non_transient_market_errors_are_not_retried(self):
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(faults=FaultPolicy(seed=0), max_retries=5),
        )
        bad = RestRequest("WHW", "NoSuchTable", ())
        with pytest.raises(MarketError) as excinfo:
            transport.fetch(bad)
        assert not isinstance(excinfo.value, TransportError)

    def test_retry_budget_exhaustion(self):
        market = tiny_weather_market()
        transport = MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(
                    timeout_rate=1.0, max_consecutive_faults=None
                ),
                max_retries=100,
                retry_budget=3,
                breaker_failure_threshold=1000,
            ),
        )
        scope = transport.new_scope()
        with pytest.raises(
            MarketUnavailableError, match="retry budget"
        ) as excinfo:
            transport.fetch(weather_request(), scope)
        assert scope.retries == 3
        assert (excinfo.value.retries, excinfo.value.attempts) == (3, 4)


class TestCircuitBreaker:
    def test_unit_transitions(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ms=1000.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)
        breaker.on_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.on_failure(1.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(500.0)  # still cooling down
        assert breaker.allow(1001.0)  # half-open probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(1001.0)  # only one probe at a time
        breaker.on_success()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.on_failure(0.0)
        assert breaker.allow(200.0)
        breaker.on_failure(200.0)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(250.0)

    def _failing_transport(self, market):
        return MarketTransport(
            market,
            TransportConfig(
                faults=FaultPolicy(
                    timeout_rate=1.0, max_consecutive_faults=None
                ),
                max_retries=0,
                breaker_failure_threshold=2,
                breaker_cooldown_ms=1000.0,
            ),
        )

    def test_open_circuit_fails_fast_without_contacting_market(self):
        market = tiny_weather_market()
        transport = self._failing_transport(market)
        for __ in range(2):
            with pytest.raises(RetryExhaustedError):
                transport.fetch(weather_request())
        assert transport.breaker_for("WHW").state is BreakerState.OPEN
        with pytest.raises(MarketUnavailableError, match="circuit open"):
            transport.fetch(weather_request())
        assert market.ledger.total_calls == 0

    def test_probe_after_cooldown_closes_circuit(self):
        market = tiny_weather_market()
        transport = self._failing_transport(market)
        for __ in range(2):
            with pytest.raises(RetryExhaustedError):
                transport.fetch(weather_request())
        transport.advance_clock(1000.0)
        transport.faults = FaultPolicy(seed=0)  # network healed
        result = transport.fetch(weather_request())
        assert result.attempts == 1
        assert transport.breaker_for("WHW").state is BreakerState.CLOSED

    def test_failed_probe_reopens_circuit(self):
        market = tiny_weather_market()
        transport = self._failing_transport(market)
        for __ in range(2):
            with pytest.raises(RetryExhaustedError):
                transport.fetch(weather_request())
        transport.advance_clock(1000.0)
        with pytest.raises(RetryExhaustedError):
            transport.fetch(weather_request())
        assert transport.breaker_for("WHW").state is BreakerState.OPEN

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_default_breaker_counts_overlapping_faults(self, driver):
        """The breaker counts consecutive failures per dataset, not per
        call.  Inline, each call's three timeouts end in its own success,
        which resets the count before the next call starts.  On the event
        loop both calls of the access time out before either succeeds, so
        their faults run together and the default threshold opens the
        circuit."""
        payless = registered_payless(
            drive(tiny_weather_market(days=30), driver),
            options=QueryOptions(
                transport=TransportConfig(faults=FaultPolicy(timeout_rate=1.0))
            ),
        )
        whole = "SELECT Temperature FROM Weather WHERE Country = 'CountryA'"
        with payless:
            payless.query(f"{whole} AND Date >= 2 AND Date <= 29")
            if driver == "inline":
                assert payless.query(whole).stats.calls == 2
            else:
                with pytest.raises(MarketUnavailableError):
                    payless.query(whole)
        opens = payless.context.transport.breaker_for("WHW").opens
        assert opens == (0 if driver == "inline" else 1)


class TestGracefulDegradation:
    #: timeout_rate=0.5 at this seed fails exactly one of JOIN_SQL's three
    #: calls — the mixed outcome both tests below rely on.
    MIXED = dict(seed=0, timeout_rate=0.5, max_consecutive_faults=None)

    def _payless(self, partial_results: bool):
        return registered_payless(
            tiny_weather_market(),
            options=QueryOptions(
                transport=TransportConfig(
                    faults=FaultPolicy(**self.MIXED),
                    max_retries=0,
                    breaker_failure_threshold=10_000,
                    partial_results=partial_results,
                )
            ),
        )

    def test_default_raises_market_unavailable(self):
        payless = self._payless(partial_results=False)
        with pytest.raises(MarketUnavailableError) as excinfo:
            payless.query(JOIN_SQL)
        assert len(excinfo.value.failed) == 1
        assert payless.queries_executed == 0  # no half-recorded query

    def test_partial_results_returns_arrived_rows(self):
        payless = self._payless(partial_results=True)
        result = payless.query(JOIN_SQL)
        assert not result.stats.complete
        assert result.stats.failed_calls == 1
        assert result.stats.calls >= 1  # the siblings that did arrive
        oracle = sorted(oracle_evaluate(payless, JOIN_SQL).rows)
        got = sorted(result.rows)
        assert 0 < len(got) < len(oracle)
        assert all(row in oracle for row in got)

    @pytest.mark.parametrize("partial_results", [False, True])
    def test_store_never_poisoned(self, partial_results):
        """After a failed/partial query, healing the network and retrying
        pays only for the regions that never arrived and matches the
        oracle — failed boxes were never recorded as covered."""
        payless = self._payless(partial_results)
        if partial_results:
            payless.query(JOIN_SQL)
        else:
            with pytest.raises(MarketUnavailableError):
                payless.query(JOIN_SQL)
        spent_before = payless.market.ledger.spent.transactions
        payless.context.transport.faults = None
        retry = payless.query(JOIN_SQL)
        assert sorted(retry.rows) == sorted(
            oracle_evaluate(payless, JOIN_SQL).rows
        )
        # The retry bought the one failed region, nothing twice.
        assert retry.stats.transactions == 1
        assert (
            payless.market.ledger.spent.transactions
            == spent_before + retry.stats.transactions
        )


class TestDeterministicReplay:
    QUERIES = (
        "SELECT Temperature FROM Weather "
        "WHERE Country = 'CountryA' AND Date >= 2 AND Date <= 29",
        "SELECT Temperature FROM Weather WHERE Country = 'CountryA'",
        JOIN_SQL,
    )

    @staticmethod
    def _install(seed: int):
        # Calls that wait: each access's calls overlap on the event loop.
        return registered_payless(
            drive(tiny_weather_market(days=30), "async"),
            options=QueryOptions(
                transport=TransportConfig(
                    faults=FaultPolicy.uniform(seed=seed, rate=0.4),
                    retry_budget=None,
                    breaker_failure_threshold=10_000,
                ),
            ),
        )

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_same_seed_replays_bit_identically_under_parallel_fetch(
        self, seed
    ):
        first, second = self._install(seed), self._install(seed)
        with first, second:  # stop the event loops the queries start
            pairs = [(first.query(sql), second.query(sql)) for sql in self.QUERIES]
        for a, b in pairs:
            assert (
                a.stats.transactions,
                a.stats.calls,
                a.stats.retries,
                a.stats.faults_injected,
                a.stats.replays,
                a.stats.wasted_transactions,
            ) == (
                b.stats.transactions,
                b.stats.calls,
                b.stats.retries,
                b.stats.faults_injected,
                b.stats.replays,
                b.stats.wasted_transactions,
            )
            assert a.stats.price == pytest.approx(b.stats.price)
            assert sorted(a.rows) == sorted(b.rows)
        assert (
            first.market.ledger.total_transactions
            == second.market.ledger.total_transactions
        )


class TestQueryStatsApi:
    def test_stats_carries_everything(self):
        payless = registered_payless(tiny_weather_market())
        result = payless.query("SELECT * FROM Station")
        stats = result.stats
        assert stats.transactions > 0
        assert stats.calls > 0
        assert stats.complete
        assert stats.retries == 0
        assert stats.failed_fetches == ()

    def test_top_level_exports(self):
        import repro

        for name in (
            "PayLess",
            "DataMarket",
            "QueryResult",
            "QueryStats",
            "FaultPolicy",
            "TransportConfig",
            "TransportError",
            "RetryExhaustedError",
            "MarketUnavailableError",
        ):
            assert hasattr(repro, name), name
        assert issubclass(repro.RetryExhaustedError, repro.TransportError)
        assert issubclass(repro.TransportError, repro.MarketError)
