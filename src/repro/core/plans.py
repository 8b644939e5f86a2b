"""Execution-plan trees for PayLess.

Only leaves that call the market contribute to a plan's price φ (the Fact
inside Theorem 1's proof); local scans, local joins and Cartesian products
are free.  Plans here are *left-deep over market accesses*: the left-most
leaf is the pre-joined block of zero-price relations (Theorem 2), and each
further level adds exactly one market relation, accessed either directly or
through a bind join (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.rewriter import RewriteResult
from repro.relational.query import JoinPredicate


@dataclass
class PlanNode:
    """Base node: relation set, estimated price, estimated output size."""

    relations: frozenset[str]
    cost: float
    estimated_rows: float
    #: Estimated wall-clock of this subtree's market calls, run serially,
    #: under the planning context's latency model (0 for free subtrees).
    #: The second axis of the planner's money-latency Pareto frontier.
    latency_ms: float = 0.0

    def leaves(self) -> Iterator["PlanNode"]:
        yield self

    def describe(self, indent: int = 0) -> str:
        raise NotImplementedError


@dataclass
class LocalScanNode(PlanNode):
    """Scan of a local (buyer-side) table — never costs market money."""

    table: str = ""

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"LocalScan({self.table}) rows≈{self.estimated_rows:.0f}"


@dataclass
class LocalBlockNode(PlanNode):
    """The Theorem-2 block: all zero-price relations joined first.

    Contains local tables and market relations whose request regions are
    already fully covered by the semantic store.
    """

    tables: tuple[str, ...] = ()
    covered_market_tables: tuple[str, ...] = ()

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        covered = (
            f" (covered market: {', '.join(self.covered_market_tables)})"
            if self.covered_market_tables
            else ""
        )
        return (
            f"{pad}LocalBlock({', '.join(self.tables)}){covered} "
            f"rows≈{self.estimated_rows:.0f}"
        )


@dataclass
class MarketAccessNode(PlanNode):
    """A leaf REST access to one market table.

    ``bind_attributes`` is nonempty when the access is the right side of a
    bind join: the listed attributes receive values from the outer plan at
    execution time.  ``rewrite`` holds the planning-time rewriting outcome
    (the executor re-rewrites with actual binding values).
    """

    table: str = ""
    rewrite: RewriteResult | None = None
    bind_attributes: tuple[str, ...] = ()
    #: Planning-time estimate of distinct binding-value combinations.
    estimated_bindings: float = 1.0

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        bind = (
            f" bind({', '.join(self.bind_attributes)})×{self.estimated_bindings:.0f}"
            if self.bind_attributes
            else ""
        )
        return (
            f"{pad}MarketAccess({self.table}){bind} "
            f"φ≈{self.cost:.0f} rows≈{self.estimated_rows:.0f}"
        )


@dataclass
class MaterializedNode(PlanNode):
    """An already-executed prefix, resumed in place during a re-plan.

    Adaptive re-optimization seeds the suffix DP with this node: its
    ``estimated_rows`` is the prefix's *actual* cardinality, its cost is
    zero (the money is already spent and the rows already staged), and
    the executor substitutes the materialized intermediate for it at
    resume time.  It never appears in a statically-planned tree nor in
    any plan-cache entry.
    """

    tables: tuple[str, ...] = ()

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}Materialized({', '.join(self.tables)}) "
            f"rows≈{self.estimated_rows:.0f}"
        )


@dataclass
class JoinNode(PlanNode):
    """Binary join; ``bind=True`` marks a bind join (−→⋈)."""

    left: PlanNode | None = None
    right: PlanNode | None = None
    predicates: tuple[JoinPredicate, ...] = ()
    bind: bool = False
    cartesian: bool = False

    def leaves(self) -> Iterator[PlanNode]:
        yield from self.left.leaves()
        yield from self.right.leaves()

    @property
    def symbol(self) -> str:
        if self.cartesian:
            return "×"
        return "−→⋈" if self.bind else "⋈"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [
            f"{pad}{self.symbol} φ≈{self.cost:.0f} rows≈{self.estimated_rows:.0f}"
        ]
        lines.append(self.left.describe(indent + 2))
        lines.append(self.right.describe(indent + 2))
        return "\n".join(lines)


def plan_price(plan: PlanNode) -> float:
    """φ(P): the summed price of market-access leaves."""
    total = 0.0
    for leaf in plan.leaves():
        if isinstance(leaf, MarketAccessNode):
            total += leaf.cost
    return total


def market_leaves(plan: PlanNode) -> list[MarketAccessNode]:
    return [
        leaf for leaf in plan.leaves() if isinstance(leaf, MarketAccessNode)
    ]


def has_bind_join(plan: PlanNode) -> bool:
    """Whether any join of ``plan`` is a bind join."""
    if not isinstance(plan, JoinNode):
        return False
    return plan.bind or has_bind_join(plan.left) or has_bind_join(plan.right)
