"""Garlic-style middleware: parse, plan, execute federated fuzzy queries.

The end-to-end pipeline of Sections 1-2 and 8: a query language for
Boolean combinations of crisp and graded atoms, a catalog of federated
subsystems, a planner implementing the paper's strategy table
(filtered conjuncts, A0/A0'/B0/median selection, internal-conjunction
pushdown, naive fallback), and an executor with full access-cost
accounting. :class:`~repro.engine.engine.Engine` is the entry point
that drives them.
"""

from repro.middleware.catalog import Catalog
from repro.middleware.compile import CompiledQueryAggregation
from repro.middleware.conjunction_modes import (
    ModeComparison,
    compare_conjunction_modes,
)
from repro.middleware.executor import Executor, QueryAnswer
from repro.middleware.parser import parse_query, render_query
from repro.middleware.plan import (
    AlgorithmPlan,
    FilteredConjunctPlan,
    InternalConjunctionPlan,
    PhysicalPlan,
)
from repro.middleware.planner import Planner, PlannerOptions

__all__ = [
    "Catalog",
    "Planner",
    "PlannerOptions",
    "Executor",
    "QueryAnswer",
    "parse_query",
    "render_query",
    "CompiledQueryAggregation",
    "PhysicalPlan",
    "AlgorithmPlan",
    "FilteredConjunctPlan",
    "InternalConjunctionPlan",
    "ModeComparison",
    "compare_conjunction_modes",
]
