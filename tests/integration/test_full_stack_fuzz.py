"""Full-stack randomized integration: planner + executor vs oracle.

Random federated catalogs (crisp + graded subsystems over a shared
population), random monotone query trees, random k — every planned and
executed answer must satisfy the Section 4 top-k contract against an
exhaustive evaluation. This is the library's end-to-end safety net:
any planner strategy mis-selection, executor bookkeeping slip or
aggregation compilation bug surfaces here.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.algorithms.base import is_valid_top_k
from repro.core.graded_set import GradedSet
from repro.core.query import And, AtomicQuery, Or, Weighted
from repro.engine import Engine, ExecutionContext
from repro.middleware.planner import PlannerOptions
from repro.subsystems.relational import RelationalSubsystem
from repro.subsystems.synthetic import SyntheticSubsystem
from repro.workloads.distributions import Beta, Crisp, Uniform

N_OBJECTS = 24
OBJECTS = tuple(f"o{i}" for i in range(N_OBJECTS))

GRADED_ATOMS = tuple(
    AtomicQuery(attr, "t", "~") for attr in ("G1", "G2", "G3")
)
CRISP_ATOMS = (
    AtomicQuery("Tag", "hot", "="),
    AtomicQuery("Tag", "cold", "="),
)


def _build_engine(seed: int, threshold: float) -> Engine:
    rng = random.Random(seed)
    engine = Engine(
        ExecutionContext(
            planner=PlannerOptions(selectivity_threshold=threshold)
        )
    )
    engine.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Tag": rng.choice(["hot", "cold", "warm"])}
                for o in OBJECTS
            },
        )
    )
    engine.register(
        SyntheticSubsystem(
            "syn",
            generated={
                "G1": Uniform(),
                "G2": Beta(2, 2),
                "G3": Crisp(0.4),
            },
            objects=OBJECTS,
            seed=seed + 1,
        )
    )
    return engine


@st.composite
def monotone_queries(draw, depth=2):
    pool = GRADED_ATOMS + CRISP_ATOMS
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(pool))
    kind = draw(st.integers(min_value=0, max_value=2))
    n = draw(st.integers(min_value=2, max_value=3))
    operands = [draw(monotone_queries(depth=depth - 1)) for _ in range(n)]
    if kind == 0:
        return And(operands)
    if kind == 1:
        return Or(operands)
    weights = [draw(st.integers(min_value=1, max_value=4)) for _ in operands]
    return Weighted(operands, weights)


def _oracle(engine: Engine, query) -> GradedSet:
    atom_sets = {}
    for a in query.atoms():
        src = engine.catalog.subsystem_for(a).evaluate(a)
        atom_sets[a] = GradedSet(
            {obj: src.random_access(obj) for obj in OBJECTS}
        )
    return engine.semantics.evaluate_sets(query, atom_sets, OBJECTS)


class TestFullStackFuzz:
    @given(
        query=monotone_queries(),
        seed=st.integers(min_value=0, max_value=30),
        k=st.integers(min_value=1, max_value=N_OBJECTS),
        threshold=st.sampled_from([0.0, 0.2, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_planned_answer_matches_oracle(self, query, seed, k, threshold):
        engine = _build_engine(seed, threshold)
        answer = engine.query(query).top(k)
        truth = _oracle(engine, query)
        assert is_valid_top_k(answer.items, truth, k), (
            f"plan {type(answer.plan).__name__} wrong for {query!r} "
            f"at k={k}, threshold={threshold}"
        )

    @given(
        query=monotone_queries(),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_plan_strategies_all_reachable_and_explainable(self, query, seed):
        engine = _build_engine(seed, threshold=0.5)
        plan = engine.plan(query)
        text = plan.explain()
        assert isinstance(text, str) and text

    @given(seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=20, deadline=None)
    def test_negated_queries_also_correct(self, seed):
        from repro.core.query import Not

        engine = _build_engine(seed, threshold=0.2)
        query = And(
            (Not(CRISP_ATOMS[0]), GRADED_ATOMS[0])
        )
        answer = engine.query(query).top(5)
        truth = _oracle(engine, query)
        assert is_valid_top_k(answer.items, truth, 5)
