"""Statistics: catalog, estimators, and pluggable updatable statistics."""

from repro.stats.catalog import Catalog, TableStatistics
from repro.stats.estimator import (
    estimate_box,
    estimate_boxes,
    estimate_constraints,
    estimate_distinct,
)
from repro.stats.interface import (
    STATISTIC_FACTORIES,
    UpdatableStatistic,
    make_statistic,
)
from repro.stats.isomer import DEFAULT_MAX_BOXES, FeedbackHistogram
from repro.stats.onedim import IndependenceHistogram, UniformStatistic
from repro.stats.overlay import CardinalityOverlay

__all__ = [
    "CardinalityOverlay",
    "Catalog",
    "DEFAULT_MAX_BOXES",
    "FeedbackHistogram",
    "IndependenceHistogram",
    "STATISTIC_FACTORIES",
    "TableStatistics",
    "UniformStatistic",
    "UpdatableStatistic",
    "estimate_box",
    "estimate_boxes",
    "estimate_constraints",
    "estimate_distinct",
    "make_statistic",
]
