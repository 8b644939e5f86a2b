"""Prepared queries, budget enforcement, and subscription invoicing."""

import pytest

from repro.core.budget import BudgetExceededError, BudgetMode, BudgetPolicy
from repro.core.objectives import QueryOptions
from repro.core.optimizer import Optimizer
from repro.core.payless import PayLess
from repro.core.prepared import PreparedQuery
from repro.errors import MarketError, ReproError, SqlAnalysisError
from repro.market.pricing import PricingPolicy
from repro.market.subscription import Subscription
from repro.serve import QueryScheduler, ServeConfig

TEMPLATE = (
    "SELECT AVG(Temperature) FROM Weather "
    "WHERE Country = ? AND Date >= ? AND Date <= ?"
)


@pytest.fixture
def scheduler(mini_payless):
    with QueryScheduler(mini_payless, ServeConfig(workers=2)) as scheduler:
        yield scheduler


class TestPreparedQuery:
    def test_parse_once_run_many(self, mini_payless):
        prepared = PreparedQuery(mini_payless, TEMPLATE)
        assert prepared.parameter_count == 3
        first = prepared.execute(("CountryA", 1, 5))
        second = prepared.execute(("CountryA", 6, 10))
        third = prepared.execute(("CountryA", 1, 10))  # covered by 1+2
        assert first.stats.transactions > 0
        assert third.stats.transactions == 0
        assert prepared.executions == 3
        assert prepared.total_transactions == (
            first.stats.transactions + second.stats.transactions
        )

    def test_wrong_arity(self, mini_payless):
        prepared = PreparedQuery(mini_payless, TEMPLATE)
        with pytest.raises(SqlAnalysisError):
            prepared.execute(("CountryA",))

    def test_explain_does_not_spend(self, mini_payless):
        prepared = PreparedQuery(mini_payless, TEMPLATE)
        planning = prepared.explain(("CountryB", 1, 10))
        assert planning.cost > 0
        assert mini_payless.total_transactions == 0

    def test_repr(self, mini_payless):
        prepared = PreparedQuery(mini_payless, TEMPLATE)
        assert "3 params" in repr(prepared)


class TestBudget:
    """A session's budget: ``scheduler.session(name, budget=policy)``."""

    def test_hard_budget_rejects(self, scheduler, mini_payless):
        session = scheduler.session(
            "alice", budget=BudgetPolicy(limit_dollars=1)
        )
        with pytest.raises(BudgetExceededError):
            session.query("SELECT * FROM Weather")  # ≈6 transactions
        assert session.rejected == 1 and session.failures == 1
        assert session.remaining == 1
        assert mini_payless.total_transactions == 0

    @pytest.mark.parametrize("plan_cache_size", [256, 0])
    def test_a_budgeted_query_is_planned_once(
        self, mini_weather_market, monkeypatch, plan_cache_size
    ):
        """The estimate is read off the plan that is then executed: one
        ``Optimizer.optimize`` per query, through the plan cache, and a
        hard-mode rejection plans once and spends nothing."""
        payless = PayLess.full(
            mini_weather_market,
            options=QueryOptions(plan_cache_size=plan_cache_size),
        )
        payless.register_dataset("WHW")
        calls = []
        optimize = Optimizer.optimize

        def counting(self, query):
            calls.append(query)
            return optimize(self, query)

        monkeypatch.setattr(Optimizer, "optimize", counting)
        with QueryScheduler(payless, ServeConfig(workers=1)) as scheduler:
            budgeted = scheduler.session(
                "alice", budget=BudgetPolicy(limit_dollars=3)
            )
            result = budgeted.query("SELECT * FROM Station")
            assert result.stats.transactions >= 1 and len(calls) == 1
            if plan_cache_size:
                assert payless.plan_cache.size == 1
            with pytest.raises(BudgetExceededError):
                budgeted.query("SELECT * FROM Weather")  # ≈6 transactions
        assert len(calls) == 2
        assert payless.total_transactions == result.stats.transactions

    def test_within_budget_executes(self, scheduler):
        session = scheduler.session(
            "alice", budget=BudgetPolicy(limit_dollars=100)
        )
        result = session.query("SELECT * FROM Station")
        assert result.stats.transactions >= 1
        assert session.transactions == result.stats.transactions
        assert session.remaining == 100 - result.stats.price

    def test_advisory_mode_executes_and_logs(self, scheduler):
        session = scheduler.session(
            "alice",
            budget=BudgetPolicy(limit_dollars=1, mode=BudgetMode.ADVISORY),
        )
        result = session.query("SELECT * FROM Weather")
        assert result.stats.transactions > 1
        assert session.advisory_breaches == 1 and session.rejected == 0
        assert session.remaining == 0

    def test_covered_queries_free_under_tight_budget(self, scheduler):
        generous = scheduler.session(
            "generous", budget=BudgetPolicy(limit_dollars=100)
        )
        generous.query("SELECT * FROM Weather")
        tight = scheduler.session(
            "tight", budget=BudgetPolicy(limit_dollars=0)
        )
        # Fully covered → estimate 0 → allowed even with a zero budget.
        result = tight.query("SELECT * FROM Weather")
        assert result.stats.transactions == 0

    def test_a_budget_counts_dollars_not_transactions(
        self, mini_weather_market
    ):
        """$10 cannot buy one transaction of a $20-a-page dataset."""
        mini_weather_market.dataset("WHW").pricing = PricingPolicy(
            tuples_per_transaction=10, price_per_transaction=20.0
        )
        payless = PayLess.full(mini_weather_market)
        payless.register_dataset("WHW")
        sql = "SELECT * FROM Station WHERE City = 'Beta'"
        assert payless.explain(sql).cost == 20.0  # one page
        with QueryScheduler(payless, ServeConfig(workers=1)) as scheduler:
            session = scheduler.session(
                "alice", budget=BudgetPolicy(limit_dollars=10)
            )
            with pytest.raises(BudgetExceededError, match=r"\$20 exceeds"):
                session.query(sql)
            assert session.remaining == 10
        assert payless.market.ledger.total_price == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ReproError):
            BudgetPolicy(limit_dollars=-1)
        with pytest.raises(ReproError):
            BudgetPolicy(limit_dollars=float("nan"))

    def test_a_budget_is_part_of_a_sessions_identity(self, scheduler):
        policy = BudgetPolicy(limit_dollars=5)
        session = scheduler.session("alice", budget=policy)
        assert scheduler.session("Alice") is session
        assert scheduler.session("alice", budget=policy) is session
        with pytest.raises(MarketError):
            scheduler.session("alice", budget=BudgetPolicy(limit_dollars=6))
        assert scheduler.session("bob").remaining is None

    def test_a_deferred_query_meets_its_owners_budget(self, scheduler, mini_payless):
        session = scheduler.session(
            "alice", budget=BudgetPolicy(limit_dollars=1)
        )
        ticket = session.defer("SELECT * FROM Weather")
        assert scheduler.flush() == [ticket]
        with pytest.raises(BudgetExceededError):
            ticket.result()
        assert session.rejected == 1
        assert mini_payless.total_transactions == 0


class TestSubscription:
    def test_paper_example(self):
        """USD 12 per 100 transactions; 4400 records at t=100 = 44 trans."""
        plan = Subscription(transactions_per_block=100, block_price=12.0)
        assert plan.blocks_for(44) == 1
        assert plan.invoice(44) == 12.0
        assert plan.invoice(101) == 24.0

    def test_utilization(self):
        plan = Subscription(transactions_per_block=100, block_price=12.0)
        assert plan.utilization(44) == pytest.approx(0.44)
        assert plan.utilization(0) == 0.0
        assert plan.utilization(200) == pytest.approx(1.0)

    def test_invoice_ledger(self, mini_payless):
        mini_payless.query("SELECT * FROM Weather")  # 6 transactions at t=10
        plan = Subscription(transactions_per_block=5, block_price=1.0)
        ledger = mini_payless.market.ledger
        assert plan.invoice_ledger(ledger) == pytest.approx(2.0)
        assert plan.invoice_ledger(ledger, dataset="WHW") == pytest.approx(2.0)
        assert plan.invoice_ledger(ledger, dataset="Nope") == 0.0

    def test_invalid_plans(self):
        from repro.errors import MarketError

        with pytest.raises(MarketError):
            Subscription(transactions_per_block=0)
        with pytest.raises(MarketError):
            Subscription(block_price=-1.0)
        with pytest.raises(MarketError):
            Subscription().blocks_for(-5)
