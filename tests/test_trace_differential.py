"""Differential trace tests: the same workload, traced under two regimes.

Each test replays a deterministic workload session (the weather workload
and the TPC-H multi-join workload) and compares the traces of two runs
that must relate in a known way:

* **store-cold vs store-warm** — replaying the session warms the
  semantic store, so the total purchased rows recorded in ``table_fetch``
  spans must strictly shrink pass over pass and reach zero;
* **first issue vs repeat** — repeat queries must show memo hits in the
  rewriter's ``memo`` events;
* **ledger vs spans** — every dollar the market billed must be
  attributable to exactly one ``table_fetch`` span (and the spend/waste
  split must agree with the ledger's);
* **faults off vs faults on** — with fault injection at the chaos seeds
  (7, 23, 101) the answers and *spent* money stay identical, and the
  extra waste shows up in the spans that caused it;
* **one account** — under faults and partial results, on either fetch
  driver (inline, or the event loop's pipelined calls), a query's ``market_call`` spans sum to their
  ``table_fetch`` span, its ``table_fetch`` spans to its ``QueryStats``,
  and a session's stats to the ledger's buckets and the market's replay
  count.
"""

from dataclasses import replace

import pytest

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.market.faults import FaultPolicy
from repro.market.transport import TransportConfig
from repro.workloads.weather import WeatherConfig

from .fetch_drivers import DRIVERS, drive

SMALL = BenchProfile(
    weather_q=2,
    tpch_q=1,
    weather=WeatherConfig(
        countries=2, stations_per_country=4, cities_per_country=3, days=15
    ),
    tpch_scale=0.5,
    tuples_per_transaction=20,
)

CHAOS_SEEDS = (7, 23, 101)


def run_passes(workload, passes=2, transport=None, system="payless"):
    """Replay the session ``passes`` times through ONE installation.

    Returns the installation and one list of :class:`QueryResult` per
    pass; tracing is on, so every result carries its span tree.
    """
    data = make_workload(workload, SMALL)
    q = SMALL.weather_q if workload == "real" else SMALL.tpch_q
    instances = make_instances(workload, data, q, SMALL)
    payless = build_system(
        system, data, options=QueryOptions(transport=transport),
        tracing=True,
    )
    payless.tracer.keep = passes * len(instances) + 4
    results = []
    for __ in range(passes):
        results.append(
            [payless.query(i.sql, i.params) for i in instances]
        )
    return payless, results


def canonical_rows(result):
    """Rows sorted and with floats rounded: different plans aggregate in
    different orders, so float sums differ in the last couple of ulps."""
    return sorted(
        (
            tuple(
                round(value, 4) if isinstance(value, float) else value
                for value in row
            )
            for row in result.rows
        ),
        key=repr,
    )


def fetch_spans(result):
    return result.trace.spans("table_fetch")


def purchased_rows(results):
    return sum(
        span.attrs.get("purchased_rows", 0)
        for result in results
        for span in fetch_spans(result)
    )


def span_sum(results, attr):
    return sum(
        span.attrs.get(attr, 0)
        for result in results
        for span in fetch_spans(result)
    )


class TestColdWarmWeather:
    WORKLOAD = "real"

    def test_warm_purchased_rows_strictly_shrink_to_zero(self):
        __, (cold, warm, settled) = run_passes(self.WORKLOAD, passes=3)
        assert purchased_rows(cold) > 0
        assert purchased_rows(warm) < purchased_rows(cold)
        # Once every plan shape's region is stored, nothing is bought.
        assert purchased_rows(settled) == 0
        assert span_sum(settled, "transactions") == 0

    def test_repeat_queries_hit_the_memo(self):
        payless, (cold, warm) = run_passes(self.WORKLOAD, passes=2)
        warm_hits = sum(
            1
            for result in warm
            for event in result.trace.spans("memo")
            if event.attrs.get("hit")
        )
        assert warm_hits > 0
        # The installation's metrics view agrees with the events.
        metrics = payless.metrics()
        assert metrics["memo_hits"] > 0
        assert 0.0 < metrics["memo_hit_rate"] <= 1.0

    def test_every_ledger_dollar_has_exactly_one_fetch_span(self):
        payless, passes = run_passes(self.WORKLOAD, passes=2)
        results = [result for one_pass in passes for result in one_pass]
        ledger = payless.market.ledger
        # Attribution: the ledger's billed totals equal the sums recorded
        # across table_fetch spans — each billed entry was bracketed by
        # exactly one span's ledger checkpoint, so nothing is counted
        # twice and nothing is dropped.
        assert span_sum(results, "billed_transactions") == (
            ledger.total_transactions
        )
        assert span_sum(results, "billed_price") == pytest.approx(
            ledger.total_price
        )
        assert span_sum(results, "calls") == ledger.total_calls
        # Per query, the spans' spent transactions equal the query's bill.
        for result in results:
            assert span_sum([result], "transactions") == (
                result.stats.transactions
            )

    def test_optimizer_traces_cheaper_than_naive_plans(self):
        """Differential across systems: full PayLess vs rewriting disabled.

        Both replay the identical session; the naive arm's spans must show
        at least as many transactions and dollars, and at least as many
        purchased rows as the accesses PayLess rented.  An access bought
        whole trades rows for dollars by design: it buys the table's rows
        the session never asked for, so they are left out of the rows
        comparison."""
        __, smart_passes = run_passes(self.WORKLOAD, passes=2)
        __, naive_passes = run_passes(
            self.WORKLOAD, passes=2, system="payless_nosqr"
        )
        smart = [r for one_pass in smart_passes for r in one_pass]
        naive = [r for one_pass in naive_passes for r in one_pass]
        assert span_sum(smart, "transactions") <= span_sum(
            naive, "transactions"
        )
        assert span_sum(smart, "price") <= span_sum(naive, "price")
        rented = sum(
            span.attrs.get("purchased_rows", 0)
            for result in smart
            for span in fetch_spans(result)
            if not span.attrs.get("whole_table")
        )
        assert rented <= purchased_rows(naive)
        # And answers agree query by query.
        for a, b in zip(smart, naive):
            assert canonical_rows(a) == canonical_rows(b)


class TestColdWarmTpch(TestColdWarmWeather):
    """The same differential invariants over the TPC-H multi-join session."""

    WORKLOAD = "tpch"


class TestFaultSeeds:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faults_change_waste_not_answers_or_spend(self, seed):
        transport = TransportConfig(
            faults=FaultPolicy.uniform(seed=seed, rate=0.2), max_retries=6
        )
        __, (clean,) = run_passes("real", passes=1)
        faulty_payless, (faulty,) = run_passes(
            "real", passes=1, transport=transport
        )
        assert len(clean) == len(faulty)
        for a, b in zip(clean, faulty):
            assert canonical_rows(a) == canonical_rows(b)
            # Spent money is fault-invariant (at-most-once billing).
            assert a.stats.transactions == b.stats.transactions
        # Waste, if any, is attributed to the spans that caused it.
        ledger = faulty_payless.market.ledger
        assert span_sum(faulty, "wasted_transactions") == (
            ledger.wasted_on_failures.transactions
        )
        assert span_sum(faulty, "wasted_price") == pytest.approx(
            ledger.wasted_on_failures.price
        )
        # billed = spent + wasted, span-side and ledger-side alike.
        assert span_sum(faulty, "billed_transactions") == (
            ledger.total_transactions
        )
        assert span_sum(faulty, "billed_transactions") - span_sum(
            faulty, "wasted_transactions"
        ) == ledger.spent.transactions

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_faulty_call_spans_record_retries(self, seed):
        transport = TransportConfig(
            faults=FaultPolicy.uniform(seed=seed, rate=0.3), max_retries=8
        )
        __, (results,) = run_passes("real", passes=1, transport=transport)
        calls = [
            span
            for result in results
            for span in result.trace.spans("market_call")
        ]
        assert calls, "fault run issued no market calls"
        retried = [span for span in calls if span.attrs.get("retries", 0)]
        total_injected = sum(r.stats.faults_injected for r in results)
        if total_injected:
            assert retried, "faults were injected but no span shows retries"
        for span in calls:
            assert span.finished
            assert span.attrs["attempts"] >= 1
            assert span.attrs["retries"] == span.attrs["attempts"] - 1


#: The fields a ``market_call`` span, a ``table_fetch`` span and
#: ``QueryStats`` all carry; replays first, since a duplicate delivery's
#: replay is the count only the transport sees.
ACCOUNT = (
    "replays",
    "retries",
    "calls",
    "records",
    "transactions",
    "price",
    "wasted_transactions",
    "wasted_price",
)


def _one_account_session(workload, seed, driver):
    profile = replace(SMALL, instance_seed=seed)
    data = make_workload(workload, profile)
    q = profile.weather_q if workload == "real" else profile.tpch_q
    instances = make_instances(workload, data, q, profile)
    payless = build_system(
        "payless",
        data,
        options=QueryOptions(
            transport=TransportConfig(
                faults=FaultPolicy.uniform(seed=seed, rate=0.3),
                partial_results=True,
            ),
        ),
        tracing=True,
    )
    drive(payless.market, driver)
    payless.tracer.keep = len(instances) + 4
    return payless, instances


class TestOneAccount:
    @pytest.mark.parametrize("driver", DRIVERS)
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("workload", ["real", "tpch"])
    def test_spans_stats_and_ledger_are_one_account(
        self, workload, seed, driver
    ):
        payless, instances = _one_account_session(workload, seed, driver)
        market = payless.market
        ledger = market.ledger
        before = (
            ledger.spent,
            ledger.wasted_on_failures,
            ledger.total_calls,
            market.replay_count,
        )
        try:
            results = [payless.query(i.sql, i.params) for i in instances]
        finally:
            payless.close()
        assert sum(r.stats.faults_injected for r in results) > 0
        for result in results:
            fetches = result.trace.spans("table_fetch")
            for name in ACCOUNT:
                assert sum(
                    span.attrs.get(name, 0) for span in fetches
                ) == pytest.approx(getattr(result.stats, name)), name
            for fetch in fetches:
                calls = [c for c in fetch.children if c.kind == "market_call"]
                for name in ACCOUNT:
                    assert sum(
                        call.attrs.get(name, 0) for call in calls
                    ) == pytest.approx(fetch.attrs.get(name, 0)), name
        stats = [result.stats for result in results]
        spent, wasted, calls, replays = before
        assert sum(s.transactions for s in stats) == (
            ledger.spent.transactions - spent.transactions
        )
        assert sum(s.price for s in stats) == pytest.approx(
            ledger.spent.price - spent.price
        )
        assert sum(s.wasted_transactions for s in stats) == (
            ledger.wasted_on_failures.transactions - wasted.transactions
        )
        assert sum(s.wasted_price for s in stats) == pytest.approx(
            ledger.wasted_on_failures.price - wasted.price
        )
        assert sum(s.calls for s in stats) == ledger.total_calls - calls
        assert sum(s.replays for s in stats) == market.replay_count - replays
