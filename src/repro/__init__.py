"""repro — a reproduction of Fagin's *Combining Fuzzy Information from
Multiple Systems* (PODS 1996 / JCSS 58:83-99, 1999).

The library implements the paper's graded-set semantics, the full
catalogue of fuzzy aggregation functions, the sorted/random access
middleware cost model, and the evaluation algorithms — most notably
**Fagin's Algorithm (A0)** for top-k retrieval over multiple ranked
sources — together with a Garlic-style federated middleware, simulated
subsystems (relational / QBIC-like image search / text retrieval), the
Section 5 probabilistic workload model, and a benchmark harness that
regenerates every quantitative claim in the paper.

Quick start — the unified :class:`Engine` is the one entry point::

    from repro import Engine, MINIMUM
    from repro.workloads import independent_database

    db = independent_database(num_lists=2, num_objects=10_000, seed=0)
    engine = Engine.over(db)

    result = engine.query(MINIMUM).top(10)       # auto-selects A0'
    print(result.items, result.stats)            # ~2*sqrt(N*k), not 2N

    result = engine.query(MINIMUM).strategy("fagin").top(10)  # force A0

    cursor = engine.query(MINIMUM).cursor()      # Section 4 paging:
    page1 = cursor.next_k(10)                    # "continue where
    page2 = cursor.next_k(10)                    #  we left off"

    batch = engine.run_many([MINIMUM], k=10)     # one summed ledger

Federated string queries run through the same engine::

    engine = Engine().register(relational).register(qbic)
    answer = engine.query('(Artist = "Beatles") AND (Color ~ "red")').top(3)
    print(answer.plan.explain(), answer.items)

The 2.x shims ``Garlic``, ``QueryCursor`` and ``choose_algorithm`` were
removed in 3.0: use ``Engine`` and ``select_strategy``. 4.0 removed
the adaptive layer's wall-clock cost calibration, and five
``AdaptiveOptions`` fields became constants of
``repro.engine.adaptive``. 5.0 removed batch-size negotiation:
``Subsystem.evaluate`` is the one way to an atom's source, read
through the batch protocol.

See DESIGN.md for the paper-to-module map and the list of removed
names with their replacements.
"""

from repro.access import (
    AccessStats,
    ColumnarScoringDatabase,
    CostModel,
    CostTracker,
    GradedItem,
    MaterializedSource,
    MiddlewareSession,
    ScoringDatabase,
    Skeleton,
    SortedRandomSource,
)
from repro.algorithms import (
    DisjunctionB0,
    FaginA0,
    FaginA0Min,
    IncrementalFagin,
    MedianTopK,
    NaiveAlgorithm,
    ThresholdAlgorithm,
    TopKAlgorithm,
    TopKResult,
    UllmanAlgorithm,
    is_valid_top_k,
)
from repro.core import (
    ALGEBRAIC_PRODUCT,
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    MAXIMUM,
    MEDIAN,
    MINIMUM,
    STANDARD_FUZZY,
    AggregationFunction,
    And,
    AtomicQuery,
    FuzzySemantics,
    GradedSet,
    Not,
    Or,
    Query,
    TConorm,
    TNorm,
    Weighted,
    atom,
)
from repro.engine import (
    AsyncEngine,
    AsyncResultCursor,
    BatchResult,
    Engine,
    ExecutionContext,
    QueryBuilder,
    ResultCursor,
    available_strategies,
    capable_strategies,
    register_strategy,
    select_strategy,
)
from repro.middleware import parse_query, render_query
from repro.sharding import ShardedEngine
from repro.subsystems import (
    QbicSubsystem,
    RelationalSubsystem,
    Subsystem,
    SyntheticSubsystem,
    TextSubsystem,
)

__version__ = "10.0.0"

__all__ = [
    "__version__",
    # core
    "GradedSet",
    "AggregationFunction",
    "TNorm",
    "TConorm",
    "MINIMUM",
    "MAXIMUM",
    "ALGEBRAIC_PRODUCT",
    "ARITHMETIC_MEAN",
    "GEOMETRIC_MEAN",
    "MEDIAN",
    "FuzzySemantics",
    "STANDARD_FUZZY",
    "Query",
    "AtomicQuery",
    "And",
    "Or",
    "Not",
    "Weighted",
    "atom",
    # access
    "GradedItem",
    "AccessStats",
    "CostModel",
    "CostTracker",
    "SortedRandomSource",
    "MaterializedSource",
    "MiddlewareSession",
    "ColumnarScoringDatabase",
    "ScoringDatabase",
    "Skeleton",
    # algorithms
    "TopKAlgorithm",
    "TopKResult",
    "FaginA0",
    "FaginA0Min",
    "IncrementalFagin",
    "DisjunctionB0",
    "MedianTopK",
    "UllmanAlgorithm",
    "NaiveAlgorithm",
    "ThresholdAlgorithm",
    "is_valid_top_k",
    # engine (the unified API)
    "Engine",
    "AsyncEngine",
    "AsyncResultCursor",
    "QueryBuilder",
    "ExecutionContext",
    "ResultCursor",
    "BatchResult",
    "register_strategy",
    "select_strategy",
    "available_strategies",
    "capable_strategies",
    # sharding (multi-process execution)
    "ShardedEngine",
    # middleware & subsystems
    "parse_query",
    "render_query",
    "Subsystem",
    "RelationalSubsystem",
    "QbicSubsystem",
    "TextSubsystem",
    "SyntheticSubsystem",
]
