"""EXPLAIN / EXPLAIN ANALYZE: golden renderings and zero-cost guarantees.

The renderings are compared against committed golden files (regenerate
with ``pytest --update-goldens``); the scenarios mirror the paper's
Figure 7 — a query window partially covered by stored views, so the
EXPLAIN output shows the rewriter's coverage verdict and the exact
remainder boxes it would buy.  Beyond the text itself, the tests pin the
two contracts EXPLAIN makes: plain EXPLAIN never touches the market (zero
calls, zero billing, store unchanged), and EXPLAIN ANALYZE of a repeated
query shows the store paying off (cache-served rows, cheaper dollars,
per-node est-vs-actual lines).
"""

import pytest

from repro import PayLess
from repro.testing import registered_payless, tiny_weather_market

JOIN_SQL = (
    "SELECT Temperature FROM Station, Weather "
    "WHERE City = 'Alpha' AND Station.StationID = Weather.StationID"
)

#: The Figure 7 analogue: a 2-d window (Country × Date) over Weather ...
FIG7_SQL = (
    "SELECT Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= 2 AND Date <= 9"
)

#: ... partially covered by previously-bought views (Figure 7's V1/V2):
#: the left and right ends of the Date range, leaving a middle remainder.
FIG7_VIEWS = (
    "SELECT Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= 2 AND Date <= 4",
    "SELECT Temperature FROM Weather "
    "WHERE Country = 'CountryA' AND Date >= 8 AND Date <= 9",
)


def fresh_payless(tracing=False):
    return registered_payless(tiny_weather_market(), tracing=tracing)


class TestGoldenRenderings:
    def test_explain_cold_join(self, golden):
        payless = fresh_payless()
        golden("explain_cold_join", str(payless.explain(JOIN_SQL)))

    def test_explain_fig7_partial_coverage(self, golden):
        """The Figure 7 shape: stored views at both ends, remainder between."""
        payless = fresh_payless()
        for view_sql in FIG7_VIEWS:
            payless.query(view_sql)
        golden("explain_fig7_partial", str(payless.explain(FIG7_SQL)))

    def test_explain_analyze_fig7_cold(self, golden):
        payless = fresh_payless()
        golden("explain_analyze_fig7_cold", str(payless.explain_analyze(FIG7_SQL)))

    def test_explain_analyze_fig7_warm(self, golden):
        """The repeat run: everything served from the store, nothing bought."""
        payless = fresh_payless()
        payless.query(FIG7_SQL)
        golden("explain_analyze_fig7_warm", str(payless.explain_analyze(FIG7_SQL)))

    def test_explain_analyze_join_warm(self, golden):
        payless = fresh_payless()
        payless.query(JOIN_SQL)
        golden("explain_analyze_join_warm", str(payless.explain_analyze(JOIN_SQL)))

    def test_explain_analyze_whole_table(self, golden):
        """Rent or buy: Weather has cost $8 in rent, its whole-table price;
        this window's $2 more would pass it, so the access buys Weather
        whole and says why."""
        payless = registered_payless(
            tiny_weather_market(tuples_per_transaction=5), tracing=True
        )
        window = (
            "SELECT Temperature FROM Weather "
            "WHERE Country = '{}' AND Date >= {} AND Date <= {}"
        )
        for rented in [("CountryA", 4, 5), ("CountryA", 1, 10), ("CountryB", 4, 5)]:
            payless.query(window.format(*rented))
        golden(
            "explain_analyze_whole_table",
            str(payless.explain_analyze(window.format("CountryB", 1, 10))),
        )

    def test_explain_analyze_download_all_first_touch(self, golden):
        """Download All is rent or buy with a buy threshold of 0: the
        first access to Weather passes a $0 bar and buys it whole."""
        payless = PayLess.download_all(
            tiny_weather_market(tuples_per_transaction=5), tracing=True
        )
        payless.register_dataset("WHW")
        golden(
            "explain_analyze_download_all_first_touch",
            str(
                payless.explain_analyze(
                    "SELECT Temperature FROM Weather "
                    "WHERE Country = 'CountryA' AND Date >= 4 AND Date <= 5"
                )
            ),
        )


class TestExplainIsFree:
    def test_explain_makes_no_market_call_and_bills_nothing(self):
        payless = fresh_payless()
        ledger = payless.market.ledger
        for sql in (JOIN_SQL, FIG7_SQL, *FIG7_VIEWS):
            explanation = payless.explain(sql)
            assert explanation.plan is not None
            assert explanation.cost >= 0
        assert ledger.total_calls == 0
        assert ledger.total_transactions == 0
        assert ledger.total_price == 0.0
        assert payless.total_transactions == 0

    def test_explain_leaves_the_store_cold(self):
        """Explaining must not warm the store: the later real query pays."""
        payless = fresh_payless()
        payless.explain(FIG7_SQL)
        result = payless.query(FIG7_SQL)
        assert result.stats.transactions > 0


class TestExplainAnalyzeAcceptance:
    """The acceptance scenario: ANALYZE a Figure 7 query twice."""

    def _cache_served(self, explanation):
        return sum(
            span.attrs.get("cache_served_rows", 0)
            for span in explanation.trace.spans("table_fetch")
        )

    def test_repeat_is_cheaper_and_cache_served(self):
        payless = fresh_payless()
        first = payless.explain_analyze(FIG7_SQL)
        second = payless.explain_analyze(FIG7_SQL)

        assert first.stats.price > 0
        assert second.stats.price < first.stats.price
        assert self._cache_served(first) == 0
        assert self._cache_served(second) > 0

        # Per-node est-vs-actual annotations on the cold run's rendering.
        rendering = first.render()
        assert "actual:" in rendering
        assert "est →" in rendering
        assert "purchased" in rendering
        # The warm run's rendering shows rows coming from the store.
        assert "$0" in second.render()

    def test_analyze_restores_the_tracer(self):
        """ANALYZE flips tracing on for exactly one query."""
        payless = fresh_payless(tracing=False)
        payless.explain_analyze(FIG7_SQL)
        assert payless.tracer.enabled is False
        result = payless.query(JOIN_SQL)
        assert result.trace is None

        traced = fresh_payless(tracing=True)
        traced.explain_analyze(FIG7_SQL)
        assert traced.tracer.enabled is True

    def test_analyze_join_annotates_every_market_access(self):
        payless = fresh_payless()
        explanation = payless.explain_analyze(JOIN_SQL)
        rendering = explanation.render()
        # Both market tables appear with their own actuals block (the join
        # may bind one side, which still yields one table_fetch span).
        fetch_spans = [
            span
            for span in explanation.trace.spans("table_fetch")
            if span.attrs.get("source") in ("access", "bound")
        ]
        node_actuals = sum(
            1
            for line in rendering.splitlines()
            if line.strip().startswith("actual:")
        )
        assert len(fetch_spans) == node_actuals
        assert {s.attrs["table"] for s in fetch_spans} == {"Station", "Weather"}


class TestGoldenMachinery:
    def test_missing_golden_fails_with_hint(self, request, golden):
        if request.config.getoption("--update-goldens"):
            pytest.skip("update mode writes instead of comparing")
        with pytest.raises(AssertionError, match="--update-goldens"):
            golden("does_not_exist", "anything")
