"""``PayLess.metrics()`` is a view, computed on call from counters the
installation's own components keep.

Nothing is registered process-wide, so one installation never counts into
another, and every entry equals the counter of the component that owns it.
"""

import sys
import threading

from repro.bench.figures import BenchProfile, make_instances, make_workload
from repro.bench.harness import build_system
from repro.core.objectives import QueryOptions
from repro.market.transport import BreakerState
from repro.testing import registered_payless, tiny_weather_market
from repro.workloads.weather import WeatherConfig

SMALL = BenchProfile(
    weather_q=2,
    weather=WeatherConfig(
        countries=2, stations_per_country=6, cities_per_country=4, days=20
    ),
)


def test_one_installation_does_not_count_into_another():
    a = registered_payless(tiny_weather_market())
    b = registered_payless(tiny_weather_market())
    a.query("SELECT * FROM Station WHERE Country = 'CountryA'")
    assert a.metrics()["queries"] == 1
    assert a.metrics()["memo_misses"] >= 1
    assert a.metrics()["plan_cache_misses"] == 1
    view = b.metrics()
    assert all(value == 0 for value in view.values()), view


def test_after_a_weather_session_every_entry_equals_its_owner():
    data = make_workload("real", SMALL)
    instances = make_instances("real", data, SMALL.weather_q, SMALL)
    # A plan cache smaller than the session evicts; an instant repeat of a
    # query that bought something finds its entry invalidated.
    payless = build_system(
        "payless", data, options=QueryOptions(plan_cache_size=2)
    )
    for instance in instances:
        for __ in range(2):
            payless.query(instance.sql, instance.params)
    cache, rewriter = payless.plan_cache, payless.rewriter
    per_table = {}
    for dataset in data.datasets:
        for table in dataset:
            spent = payless.store.table(table.name).spent(
                payless.store.policy, payless.store.clock
            )
            if spent:
                whole = dataset.pricing.price_for(len(table.table))
                per_table[f"{table.name}.dollars_spent"] = spent
                per_table[f"{table.name}.whole_table_dollars"] = whole
                per_table[f"{table.name}.spent_over_whole"] = spent / whole
    view = payless.metrics()
    assert view == {
        "queries": payless.queries_executed,
        "transactions_spent": payless.total_transactions,
        "dollars_spent": payless.total_price,
        "dollars_wasted": payless.total_wasted_price,
        "fetch_coalesced": payless.total_coalesced_fetches,
        "dollars_saved_coalescing": payless.total_coalesced_price,
        "plan_cache_hits": cache.hits,
        "plan_cache_misses": cache.misses,
        "plan_cache_invalidations": cache.invalidations,
        "plan_cache_evictions": cache.evictions,
        "plan_cache_hit_rate": cache.hit_rate,
        "memo_hits": rewriter.cache_hits,
        "memo_misses": rewriter.cache_misses,
        "memo_hit_rate": rewriter.cache_hit_rate,
        "store_coverage_ratio": (
            rewriter.covered_rewrites / rewriter.cache_misses
        ),
        "breaker_transitions": 0,
        "breaker_opens": 0,
        "connections_reused": 0,
        "prefetch_wasted_dollars": payless.context.prefetch_wasted_price,
        **per_table,
    }
    assert per_table, "the session paid for no table"
    # The session exercised what the view reads.
    assert view["queries"] == 2 * len(instances)
    assert view["dollars_spent"] > 0
    assert view["memo_hits"] > 0 and view["memo_misses"] > 0
    assert view["plan_cache_invalidations"] > 0
    assert view["plan_cache_evictions"] > 0
    assert 0 < view["store_coverage_ratio"] < 1


def test_concurrent_prefetch_drains_lose_no_dollar():
    """Failed queries of concurrent sessions drain into one field."""
    payless = registered_payless(tiny_weather_market())
    context = payless.context
    threads, drains = 16, 2000

    def drain():
        for __ in range(drains):
            context.add_prefetch_waste(0.25)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=drain) for __ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    # Quarters sum exactly in binary floating point: a lost update shows.
    assert payless.metrics()["prefetch_wasted_dollars"] == threads * drains * 0.25


def test_breakers_count_their_own_transitions():
    payless = registered_payless(tiny_weather_market())
    transport = payless.context.transport
    breaker = transport.breaker_for("WHW")
    for __ in range(breaker.failure_threshold):
        breaker.on_failure(transport.now_ms())
    assert breaker.state is BreakerState.OPEN
    assert breaker.allow(transport.now_ms() + breaker.cooldown_ms)
    breaker.on_success()
    assert breaker.state is BreakerState.CLOSED
    view = payless.metrics()
    assert (view["breaker_transitions"], view["breaker_opens"]) == (3, 1)
