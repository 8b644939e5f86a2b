"""PayLess core: optimizer, semantic rewriting, execution, baselines."""

from repro.core.budget import BudgetExceededError, BudgetMode, BudgetPolicy
from repro.core.bounding_boxes import (
    CandidateBox,
    GenerationResult,
    generate_candidates,
)
from repro.core.context import LocalTableInfo, PlanningContext
from repro.core.executor import Executor, QueryStats
from repro.core.optimizer import (
    Optimizer,
    PlanningResult,
    plan_space_baseline,
    plan_space_payless,
)
from repro.core.payless import PayLess, QueryResult
from repro.core.plancache import CacheEntry, PlanCache
from repro.core.prepared import PreparedQuery
from repro.core.plans import (
    JoinNode,
    LocalBlockNode,
    LocalScanNode,
    MarketAccessNode,
    PlanNode,
    market_leaves,
    plan_price,
)
from repro.core.rewriter import RemainderQuery, RewriteResult, SemanticRewriter
from repro.core.set_cover import (
    CoverCandidate,
    cover_cost,
    greedy_weighted_set_cover,
)

__all__ = [
    "BudgetExceededError",
    "BudgetMode",
    "BudgetPolicy",
    "CandidateBox",
    "CoverCandidate",
    "Executor",
    "GenerationResult",
    "JoinNode",
    "LocalBlockNode",
    "LocalScanNode",
    "LocalTableInfo",
    "MarketAccessNode",
    "CacheEntry",
    "Optimizer",
    "PayLess",
    "PlanCache",
    "PlanNode",
    "PlanningContext",
    "PlanningResult",
    "PreparedQuery",
    "QueryResult",
    "QueryStats",
    "RemainderQuery",
    "RewriteResult",
    "SemanticRewriter",
    "cover_cost",
    "generate_candidates",
    "greedy_weighted_set_cover",
    "market_leaves",
    "plan_price",
    "plan_space_baseline",
    "plan_space_payless",
]
