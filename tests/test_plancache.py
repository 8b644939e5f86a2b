"""The epoch-keyed parameterized plan cache (repro.core.plancache).

The invariant everything here protects: a cache hit must return exactly
what fresh planning would have produced.  The cache therefore keys on
template + parameter values + objective and revalidates the
store epochs stamped at planning time — any purchase into a referenced
table, or a store-clock advance, invalidates the entry.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_system
from repro.core.objectives import AdaptivePolicy, QueryOptions
from repro.core.payless import PayLess
from repro.core.plans import MaterializedNode
from repro.core.prepared import PreparedQuery
from repro.market.server import DataMarket
from repro.sqlparser.ast import SelectStatement
from repro.sqlparser.parser import parse
from repro.workloads.synthetic import make_join_graph


def build(shape: str = "chain", n: int = 3, **kwargs):
    data = make_join_graph(shape, n)
    payless = build_system("payless", data, **kwargs)
    return payless, data


def warm(payless, n: int) -> None:
    """Buy every table whole so later queries purchase nothing (fixed
    epochs: executions no longer mutate the store)."""
    for i in range(1, n + 1):
        payless.query(f"SELECT * FROM T{i}")


class TestHitMissLifecycle:
    def test_repeat_query_miss_invalidate_hit(self):
        payless, data = build()
        cache = payless.plan_cache
        # 1st: cold miss; its own purchases bump the referenced epochs,
        # so the entry (stamped at planning time) is immediately stale.
        payless.query(data.sql)
        assert (cache.hits, cache.misses, cache.invalidations) == (0, 1, 0)
        # 2nd: the stale entry is dropped and re-planned at the settled
        # epochs; execution is fully covered, so nothing changes anymore.
        payless.query(data.sql)
        assert (cache.hits, cache.misses, cache.invalidations) == (0, 2, 1)
        # 3rd: a genuine hit.
        payless.query(data.sql)
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 2, 1)

    def test_hit_preserves_planning_counts(self):
        payless, data = build()
        warm(payless, 3)
        first = payless.explain(data.sql)
        second = payless.explain(data.sql)
        assert second.planning.cache_status == "hit"
        assert second.from_cache
        assert not first.from_cache
        assert second.evaluated_plans == first.evaluated_plans
        assert second.pruned_plans == first.pruned_plans
        assert second.cost == first.cost
        assert second.plan.describe() == first.plan.describe()

    def test_purchase_into_referenced_table_invalidates(self):
        payless, data = build()
        warm(payless, 1)  # T1 covered; T2/T3 still priced
        payless.explain(data.sql)
        assert payless.plan_cache.size >= 1
        # Buying into T2 (referenced by the cached template) must
        # invalidate: the optimum may have changed.
        payless.query("SELECT * FROM T2 WHERE K1 = 1")
        before = payless.plan_cache.invalidations
        explanation = payless.explain(data.sql)
        assert explanation.planning.cache_status == "miss"
        assert payless.plan_cache.invalidations == before + 1

    def test_clock_advance_invalidates(self):
        payless, data = build()
        warm(payless, 3)
        payless.query(data.sql)  # cached at the settled epochs
        payless.store.advance_clock(1)
        explanation = payless.explain(data.sql)
        assert explanation.planning.cache_status == "miss"

    def test_metrics_and_hit_rate(self):
        payless, data = build()
        warm(payless, 3)
        payless.query(data.sql)
        payless.query(data.sql)
        snap = payless.metrics()
        assert snap["plan_cache_hits"] >= 1
        assert snap["plan_cache_misses"] >= 1
        assert 0.0 < snap["plan_cache_hit_rate"] < 1.0
        assert snap["plan_cache_hit_rate"] == payless.plan_cache.hit_rate


class TestKeying:
    def test_different_params_get_separate_entries(self):
        payless, __ = build()
        warm(payless, 3)
        template = "SELECT * FROM T1 WHERE K1 = ?"
        payless.query(template, (1,))
        payless.query(template, (2,))
        assert payless.plan_cache.hits == 0
        payless.query(template, (1,))
        assert payless.plan_cache.hits == 1

    def test_whitespace_variants_share_one_entry(self):
        payless, __ = build()
        warm(payless, 3)
        payless.query("SELECT * FROM T1 WHERE K1 = 1")
        hits = payless.plan_cache.hits
        payless.query("SELECT  *  FROM   T1  WHERE  K1  =  1")
        assert payless.plan_cache.hits == hits + 1

    def test_query_and_prepared_share_entries(self):
        payless, data = build()
        warm(payless, 3)
        payless.query(data.sql)
        prepared = PreparedQuery(payless, data.sql)
        prepared.execute()
        assert payless.plan_cache.hits == 1

    def test_unhashable_params_bypass_cache(self):
        payless, __ = build()
        statement = payless.plan_cache.parse_sql(
            "SELECT * FROM T1 WHERE K1 = ?"
        )
        assert (
            payless.plan_cache.statement_key(statement, ([1, 2],), ()) is None
        )

    def test_one_sql_text_is_reprd_once(self, monkeypatch):
        payless, __ = build()
        warm(payless, 3)
        template = "SELECT * FROM T1 WHERE K1 = ?"
        statement = payless.plan_cache.parse_sql(template)
        expected = ("sql", repr(statement), (1,), ("fp",))
        reprs = []
        original = SelectStatement.__repr__

        def counting(self):
            reprs.append(self)
            return original(self)

        monkeypatch.setattr(SelectStatement, "__repr__", counting)
        # Memoized at parse time: the key is byte-identical, no repr runs.
        assert payless.plan_cache.statement_key(statement, (1,), ("fp",)) == expected
        for value in (1, 2, 1, 3):
            payless.query(template, (value,))
        PreparedQuery(payless, template).execute((2,))
        assert reprs == []
        # A new text is repr'd once, at parse; repeats and explains reuse it.
        other = "SELECT * FROM T2 WHERE K1 = ?"
        for value in (1, 2, 1):
            payless.query(other, (value,))
        payless.explain(other, (1,))
        assert len(reprs) == 1
        # A statement the cache never handed out is keyed all the same.
        foreign = parse(template)
        assert payless.plan_cache.statement_key(foreign, (1,), ("fp",)) == expected
        assert len(reprs) == 2

    def test_memoized_templates_follow_the_parse_lru(self):
        payless, __ = build(options=QueryOptions(plan_cache_size=2))
        cache = payless.plan_cache
        statements = [
            cache.parse_sql(f"SELECT * FROM T{i}") for i in (1, 2, 3)
        ]
        assert set(cache._templates) == {id(s) for s in statements[1:]}
        evicted = cache.statement_key(statements[0], (), ())
        assert evicted == ("sql", repr(statements[0]), (), ())
        cache.clear()
        assert cache._templates == {} and len(cache._parsed) == 0

    def test_fingerprint_separates_configurations(self):
        payless, data = build()
        statement = payless.plan_cache.parse_sql(data.sql)
        key_a = payless.plan_cache.statement_key(statement, (), ("vectorized",))
        key_b = payless.plan_cache.statement_key(statement, (), ("reference",))
        assert key_a != key_b


def _skewed_build(adaptive=None):
    data = make_join_graph(
        "chain", 2, tuples_per_transaction=5,
        domain_high=400, skew=15.0, rows=1000,
    )
    payless = build_system(
        "payless", data, options=QueryOptions(adaptive=adaptive)
    )
    return payless


def _plan_nodes(node):
    yield node
    for child in (getattr(node, "left", None), getattr(node, "right", None)):
        if child is not None:
            yield from _plan_nodes(child)


SKEWED_SQL = "SELECT * FROM T1, T2 WHERE T1.K1 = T2.K1 AND T1.V > 200"


class TestAdaptiveHygiene:
    """Mid-query re-planning must never pollute the template cache: the
    re-planned suffix is costed against one query's materialized prefix
    (a :class:`MaterializedNode`), which no other execution has."""

    def test_replanned_suffix_never_cached(self):
        payless = _skewed_build(adaptive=AdaptivePolicy())
        result = payless.query(SKEWED_SQL)
        assert result.stats.replans >= 1
        for entry in payless.plan_cache._entries.values():
            for node in _plan_nodes(entry.planning.plan):
                assert not isinstance(node, MaterializedNode)

    def test_repeat_query_still_hits_with_the_static_template(self):
        payless = _skewed_build(adaptive=AdaptivePolicy())
        static_cost = _skewed_build().explain(SKEWED_SQL).cost
        payless.query(SKEWED_SQL)  # cold: replans, purchases, goes stale
        payless.query(SKEWED_SQL)  # re-planned at settled epochs
        hits = payless.plan_cache.hits
        third = payless.explain(SKEWED_SQL)
        assert payless.plan_cache.hits == hits + 1
        assert third.planning.cache_status == "hit"
        # The cached template is the full statically-planned query (its
        # post-purchase re-plan), never a mid-flight suffix: it covers
        # every table and carries no materialized prefix.
        relations = {
            r for node in _plan_nodes(third.plan) for r in node.relations
        }
        assert relations == {"t1", "t2"}
        assert static_cost >= 0  # static planning itself stayed usable

    def test_adaptive_and_static_installations_never_share_plans(self):
        """The key holds no configuration (template + params + objective):
        each installation owns its cache, so an adaptive and a static one
        over the same market never serve each other's plans."""
        data = make_join_graph(
            "chain", 2, tuples_per_transaction=5,
            domain_high=400, skew=15.0, rows=1000,
        )
        market = DataMarket()
        market.publish(data.dataset)
        adaptive, static = (
            PayLess(market, options=QueryOptions(adaptive=policy))
            for policy in (AdaptivePolicy(), None)
        )
        for payless in (adaptive, static):
            payless.register_dataset(data.dataset.name)
        assert adaptive.plan_cache is not static.plan_cache
        assert static.explain(SKEWED_SQL).planning.cache_status == "miss"
        assert static.explain(SKEWED_SQL).planning.cache_status == "hit"
        assert adaptive.explain(SKEWED_SQL).planning.cache_status == "miss"
        assert (adaptive.plan_cache.hits, static.plan_cache.hits) == (0, 1)
        assert adaptive.plan_cache.size == static.plan_cache.size == 1


class TestCapacity:
    def test_lru_eviction_at_small_capacity(self):
        payless, __ = build(options=QueryOptions(plan_cache_size=2))
        warm(payless, 3)
        payless.query("SELECT * FROM T1")
        payless.query("SELECT * FROM T2")
        payless.query("SELECT * FROM T3")  # evicts the T1 entry
        assert payless.plan_cache.size == 2
        assert payless.plan_cache.evictions >= 1
        hits = payless.plan_cache.hits
        payless.query("SELECT * FROM T1")  # must re-plan
        assert payless.plan_cache.hits == hits

    def test_size_zero_disables_the_cache(self):
        payless, data = build(options=QueryOptions(plan_cache_size=0))
        warm(payless, 3)
        assert not payless.plan_cache.enabled
        payless.query(data.sql)
        explanation = payless.explain(data.sql)
        assert explanation.planning.cache_status == "off"
        assert payless.plan_cache.size == 0
        assert payless.plan_cache.hits == 0
        # Nothing is memoized either: neither statements nor templates.
        first = payless.plan_cache.parse_sql(data.sql)
        assert payless.plan_cache.parse_sql(data.sql) is not first
        assert payless.plan_cache._templates == {}
        assert payless.plan_cache.statement_key(first, (), ()) == (
            "sql", repr(first), (), (),
        )

    def test_clear_empties_the_cache(self):
        payless, data = build()
        warm(payless, 3)
        payless.query(data.sql)
        assert payless.plan_cache.size > 0
        payless.plan_cache.clear()
        assert payless.plan_cache.size == 0


class TestPreparedQuerySpans:
    def test_one_plan_span_across_n_executes_at_fixed_epoch(self):
        payless, data = build(tracing=True)
        warm(payless, 3)  # executions below purchase nothing
        payless.tracer.keep = 32
        start = len(payless.tracer.traces)
        prepared = PreparedQuery(payless, data.sql)
        for __ in range(5):
            prepared.execute()
        traces = payless.tracer.traces[start:]
        assert len(traces) == 5
        plan_spans = sum(len(t.spans("plan")) for t in traces)
        assert plan_spans == 1  # planned once, four cache hits
        cache_events = [
            span.attrs.get("hit")
            for t in traces
            for span in t.spans("plan_cache")
        ]
        assert cache_events == [False, True, True, True, True]

    def test_executions_still_execute(self):
        """A cache hit skips planning, never execution."""
        payless, data = build()
        warm(payless, 3)
        prepared = PreparedQuery(payless, data.sql)
        first = prepared.execute()
        second = prepared.execute()
        assert prepared.executions == 2
        assert sorted(second.rows) == sorted(first.rows)
        assert second.stats.transactions == 0  # covered, not skipped


class TestLogicalPath:
    def test_execute_logical_uses_logical_key(self):
        payless, data = build()
        warm(payless, 3)
        logical = payless.compile(data.sql)
        payless.execute_logical(logical)
        assert payless.plan_cache.misses >= 1
        hits = payless.plan_cache.hits
        payless.execute_logical(payless.compile(data.sql))
        assert payless.plan_cache.hits == hits + 1
