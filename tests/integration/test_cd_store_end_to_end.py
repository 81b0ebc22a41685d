"""End-to-end integration: the full CD-store pipeline of Section 2.

Builds the complete federated stack (relational + QBIC + text
subsystems behind one Engine) and runs the paper's queries, checking
answers against an exhaustive oracle and cost accounting against the
strategy expectations.
"""

import pytest

from repro.algorithms.base import is_valid_top_k
from repro.core.graded_set import GradedSet
from repro.core.semantics import STANDARD_FUZZY
from repro.engine import Engine, ExecutionContext
from repro.middleware.parser import parse_query
from repro.middleware.plan import AlgorithmPlan
from repro.middleware.planner import PlannerOptions
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.subsystems.text import TextSubsystem
from repro.workloads.datasets import cd_store


@pytest.fixture(scope="module")
def stack():
    albums = cd_store(150, seed=13)
    engine = Engine(
        ExecutionContext(planner=PlannerOptions(selectivity_threshold=0.25))
    )
    engine.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {
                    "Artist": a.artist,
                    "Year": a.year,
                    "Genre": a.genre,
                }
                for a in albums
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "qbic",
            {
                "AlbumColor": {a.album_id: a.cover_rgb for a in albums},
                "Shape": {a.album_id: (a.shape_roundness,) for a in albums},
            },
            named_targets={"Shape": {"round": (1.0,), "square": (0.0,)}},
        )
    )
    engine.register(
        TextSubsystem(
            "blurbs", {a.album_id: a.blurb for a in albums}, attribute="Blurb"
        )
    )
    return albums, engine


def _oracle(engine, query_text):
    query = parse_query(query_text)
    atom_sets = {}
    for a in query.atoms():
        source = engine.catalog.subsystem_for(a).evaluate(a)
        atom_sets[a] = GradedSet(
            {obj: source.random_access(obj) for obj in engine.catalog.objects}
        )
    return STANDARD_FUZZY.evaluate_sets(
        query, atom_sets, engine.catalog.objects
    )


QUERIES = [
    '(Artist = "Beatles") AND (AlbumColor ~ "red")',
    '(AlbumColor ~ "red") AND (Shape ~ "round")',
    '(AlbumColor ~ "blue") OR (Shape ~ "square")',
    '(Genre = "jazz") AND (Blurb ~ "luminous arrangements")',
    '(Artist = "Beatles") OR ((AlbumColor ~ "red") AND (Shape ~ "round"))',
    'WEIGHTED(2: AlbumColor ~ "red", 1: Shape ~ "round")',
    'NOT (Genre = "rock") AND (AlbumColor ~ "red")',
    '(Year = 1967) AND (AlbumColor ~ "red")',
]


@pytest.mark.parametrize("query_text", QUERIES)
def test_answers_match_oracle(stack, query_text):
    __, engine = stack
    k = 6
    answer = engine.query(query_text).top(k)
    truth = _oracle(engine, query_text)
    assert is_valid_top_k(answer.items, truth, k)


def test_every_strategy_exercised(stack):
    """The query list above covers the filtered-conjunct plan, a
    registry algorithm on a monotone query, and the naive scan of a
    negated one."""
    __, engine = stack
    plans = [engine.plan(q) for q in QUERIES]
    plan_types = {type(plan).__name__ for plan in plans}
    assert "FilteredConjunctPlan" in plan_types
    assert "AlgorithmPlan" in plan_types
    algorithms = {
        plan.algorithm.name
        for plan in plans
        if isinstance(plan, AlgorithmPlan)
    }
    assert "naive" in algorithms
    assert algorithms - {"naive"}


def test_federated_cost_is_sublinear_for_conjunction(stack):
    """The Section 1 promise, at the federated level."""
    __, engine = stack
    answer = engine.query('(AlbumColor ~ "red") AND (Shape ~ "round")').top(5)
    n = engine.catalog.num_objects
    assert answer.result.stats.sum_cost < 2 * n  # beats the naive scan


def test_incremental_next_k_via_two_queries(stack):
    """Top-10 equals top-5 followed by next-5 (grade-wise)."""
    __, engine = stack
    text = '(AlbumColor ~ "red") AND (Shape ~ "round")'
    top10 = engine.query(text).top(10)
    top5 = engine.query(text).top(5)
    assert top10.result.grades()[:5] == pytest.approx(top5.result.grades())


def test_crisp_only_query(stack):
    albums, engine = stack
    answer = engine.query('Artist = "Beatles"').top(5)
    by_id = {a.album_id: a for a in albums}
    for item in answer.items:
        assert item.grade == 1.0
        assert by_id[item.obj].artist == "Beatles"
