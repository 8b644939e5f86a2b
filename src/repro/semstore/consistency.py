"""Consistency levels for reusing stored query results (Section 4.3).

The paper sketches three levels a buyer organization can choose from:

* **weak** — every stored result is reusable forever (the default; sound
  because data-market datasets are append-only);
* **X-week** — only results retrieved within the last X weeks are reused;
* **strong** — semantic query rewriting is disabled and every query goes to
  the market: the "PayLess w/o SQR" arm of Figures 10 and 14.

The store keeps a logical clock in *weeks* (the harness advances it);
policies simply decide which covered regions count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ConsistencyLevel(enum.Enum):
    WEAK = "weak"
    X_WEEK = "x-week"
    STRONG = "strong"


@dataclass(frozen=True)
class ConsistencyPolicy:
    """A consistency level plus its window (for X-week)."""

    level: ConsistencyLevel = ConsistencyLevel.WEAK
    window_weeks: float | None = None

    def __post_init__(self) -> None:
        if self.level is ConsistencyLevel.X_WEEK and (
            self.window_weeks is None or self.window_weeks <= 0
        ):
            raise ValueError("X-week consistency needs a positive window")

    @property
    def rewriting_enabled(self) -> bool:
        return self.level is not ConsistencyLevel.STRONG

    def is_fresh(self, stored_at: float, now: float) -> bool:
        """Whether a result stored at clock ``stored_at`` is reusable now."""
        if self.level is ConsistencyLevel.STRONG:
            return False
        if self.level is ConsistencyLevel.WEAK:
            return True
        return now - stored_at <= self.window_weeks

    @classmethod
    def weak(cls) -> "ConsistencyPolicy":
        return cls(ConsistencyLevel.WEAK)

    @classmethod
    def strong(cls) -> "ConsistencyPolicy":
        return cls(ConsistencyLevel.STRONG)

    @classmethod
    def weeks(cls, window: float) -> "ConsistencyPolicy":
        return cls(ConsistencyLevel.X_WEEK, window_weeks=window)
