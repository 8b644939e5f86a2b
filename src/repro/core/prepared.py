"""Prepared (parameterized) queries.

The paper's usage model (Section 2.2): "We expect SQL queries to PayLess
are parameterized queries embedded in certain application so that users
(e.g., data scientists) issue the queries by specifying the parameter
values via a web interface."  A :class:`PreparedQuery` is that template:
parsed once, analyzed and optimized per execution (the optimum depends on
the parameter values *and* on what the store already holds).

Executions route through the installation's plan cache
(:mod:`repro.core.plancache`): a repeat binding at unchanged store epochs
reuses the cached plan instead of re-analyzing and re-planning, and any
purchase into a referenced table invalidates the entry — so "optimized
per execution" still holds whenever re-planning could change the answer.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.objectives import PlanObjective, ServiceTier
from repro.core.payless import PayLess, QueryResult
from repro.errors import SqlAnalysisError
from repro.sqlparser.ast import SelectStatement


class PreparedQuery:
    """A parsed SQL template awaiting parameter values.

    ``objective`` (at construction or per ``execute``/``explain`` call)
    plans the template under that objective or service tier; the plan
    cache keeps per-objective entries, so one template alternating
    between tiers never serves one tier's plan to the other.
    """

    def __init__(
        self,
        payless: PayLess,
        sql: str,
        objective: PlanObjective | ServiceTier | str | None = None,
    ):
        self.payless = payless
        self.sql = sql
        self.objective = objective
        self._statement: SelectStatement = payless.plan_cache.parse_sql(sql)
        self.executions = 0
        self.total_transactions = 0

    @property
    def parameter_count(self) -> int:
        return self._statement.parameter_count

    def execute(
        self,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ) -> QueryResult:
        """Bind ``params`` and run the template."""
        if len(params) != self.parameter_count:
            raise SqlAnalysisError(
                f"template has {self.parameter_count} parameters, "
                f"{len(params)} values given"
            )
        result = self.payless.execute_statement(
            self._statement,
            params,
            objective if objective is not None else self.objective,
        )
        self.executions += 1
        self.total_transactions += result.stats.transactions
        return result

    def explain(
        self,
        params: Sequence[Any] = (),
        objective: PlanObjective | ServiceTier | str | None = None,
    ):
        """Optimize (without executing) for one parameter binding."""
        return self.payless._plan(
            self._statement,
            params,
            objective if objective is not None else self.objective,
        )[0]

    def __repr__(self) -> str:
        return (
            f"PreparedQuery({self.parameter_count} params, "
            f"{self.executions} runs, {self.total_transactions} trans.)"
        )
