"""Access model: sorted/random access, cost accounting, scoring databases.

Implements the middleware-facing machinery of Sections 4-5: the
subsystem access interface (sorted access streams and random access
lookups), the middleware cost model c1*S + c2*R, and the formal
scoring-database / skeleton framework the paper's probabilistic
analysis is stated in.
"""

from repro.access.columnar import ColumnarScoringDatabase
from repro.access.cost import AccessStats, CostModel, CostTracker, combine_stats
from repro.access.scoring_database import (
    ScoringDatabase,
    Skeleton,
    prefix_intersection_size,
)
from repro.access.session import MiddlewareSession
from repro.access.source import (
    InstrumentedSource,
    MaterializedSource,
    SortedRandomSource,
    UnbatchedSource,
    rank_items,
    tie_break_key,
)
from repro.access.ties import (
    consistent_skeletons,
    count_consistent_skeletons,
    tie_groups,
)
from repro.access.types import GradedItem, ObjectId

__all__ = [
    "AccessStats",
    "CostModel",
    "CostTracker",
    "combine_stats",
    "ColumnarScoringDatabase",
    "ScoringDatabase",
    "Skeleton",
    "prefix_intersection_size",
    "MiddlewareSession",
    "SortedRandomSource",
    "MaterializedSource",
    "InstrumentedSource",
    "UnbatchedSource",
    "rank_items",
    "tie_break_key",
    "GradedItem",
    "ObjectId",
    "tie_groups",
    "consistent_skeletons",
    "count_consistent_skeletons",
]
