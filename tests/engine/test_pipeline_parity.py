"""One pipeline, every backing: explain(), top() and run_many() agree.

A query's plan, its ε-steering and its strategy resolution are shared
by every terminal operation on every backing (source, sharded,
catalog), so ``explain()`` must name the algorithm ``top()`` runs, and
a one-member ``run_many`` must run that algorithm with the same S, R
and guarantee. Regressions pinned here: a catalog ``explain()`` or
``run_many`` that skipped the ε>0 steering ``top()`` applied, and a
sharded ``explain()`` that predicted from the coordinator's context
instead of the per-shard pick the workers make.
"""

import random
import re

import pytest

from repro.access.columnar import ColumnarScoringDatabase
from repro.access.cost import CostModel
from repro.core.tnorms import MINIMUM
from repro.engine import Engine, ExecutionContext
from repro.exceptions import InsufficientObjectsError
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.workloads.datasets import NAMED_COLORS
from repro.workloads.skeletons import independent_database

K = 10
N = 400
CATALOG_QUERY = '(Color ~ "red") AND (Tint ~ "green")'


@pytest.fixture(scope="module")
def store():
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(2, N, seed=5)
    )


@pytest.fixture(scope="module")
def qbic():
    rng = random.Random(17)
    objs = [f"img-{i}" for i in range(N)]
    return QbicSubsystem(
        "qbic",
        {
            feature: {o: (rng.random(), rng.random(), rng.random()) for o in objs}
            for feature in ("Color", "Tint")
        },
        named_targets={"Tint": dict(NAMED_COLORS)},
    )


@pytest.fixture(params=["source", "sharded", "catalog"])
def backing(request, store, qbic):
    """``(make_engine, spec)``: an engine factory over a context, and
    the query spec that backing takes."""
    engines = []

    def make(context):
        if request.param == "source":
            engine = Engine.over(store, context)
        elif request.param == "sharded":
            engine = Engine.over_shards(store, context, shards=2, processes=0)
        else:
            engine = Engine(context).register(qbic)
        engines.append(engine)
        return engine

    spec = CATALOG_QUERY if request.param == "catalog" else MINIMUM
    yield make, spec
    for engine in engines:
        engine.close()


CASES = [
    pytest.param(None, ExecutionContext(), id="auto-exact"),
    pytest.param(None, ExecutionContext(epsilon=0.1), id="auto-eps"),
    pytest.param(
        None,
        ExecutionContext(cost_model=CostModel(1.0, 20.0)),
        id="auto-costly-random",
    ),
    pytest.param(
        None,
        ExecutionContext(epsilon=0.1, cost_model=CostModel(1.0, 20.0)),
        id="auto-eps-costly-random",
    ),
    pytest.param("fagin", ExecutionContext(epsilon=0.1), id="forced-fagin-eps"),
    pytest.param("threshold", ExecutionContext(), id="forced-threshold"),
    pytest.param("nra", ExecutionContext(epsilon=0.1), id="forced-nra-eps"),
]


def ran(answer):
    """The result and the strategy that produced it (a sharded run
    reports the per-shard algorithm under a ``sharded-`` prefix)."""
    result = getattr(answer, "result", answer)
    return result, result.algorithm.removeprefix("sharded-")


def explained(text: str) -> str:
    match = re.match(r"AlgorithmPlan\[([^\]]+)\]", text)
    assert match, text
    return match.group(1)


@pytest.mark.parametrize("strategy, context", CASES)
def test_explain_names_the_algorithm_top_runs(backing, strategy, context):
    make, spec = backing
    engine = make(context)
    builder = engine.query(spec)
    if strategy is not None:
        builder.strategy(strategy)
    text = builder.explain()
    _result, name = ran(builder.top(K))
    assert explained(text) == name


@pytest.mark.parametrize(
    "context",
    [case.values[1] for case in CASES if case.values[0] is None],
    ids=[case.id for case in CASES if case.values[0] is None],
)
def test_run_many_member_runs_what_top_runs(backing, context):
    make, spec = backing
    one, one_name = ran(make(context).query(spec).top(K))
    batch = make(context).run_many([spec], k=K)
    member, member_name = ran(batch[0])
    assert member_name == one_name
    assert (member.stats.sorted_cost, member.stats.random_cost) == (
        one.stats.sorted_cost,
        one.stats.random_cost,
    )
    assert member.guarantee == one.guarantee
    assert (batch.total_sorted, batch.total_random) == (
        one.stats.sorted_cost,
        one.stats.random_cost,
    )


def test_epsilon_steers_every_operation_to_ta(qbic):
    """The catalog case the copies used to disagree on: under ε=0.1,
    ``explain()``, ``top()`` and ``run_many`` all run TA."""
    engine = Engine(ExecutionContext(epsilon=0.1)).register(qbic)
    assert explained(engine.explain(CATALOG_QUERY)) == "TA"
    top = engine.query(CATALOG_QUERY).top(K)
    member = engine.run_many([CATALOG_QUERY], k=K)[0]
    assert top.result.algorithm == member.result.algorithm == "TA"
    assert top.result.guarantee == member.result.guarantee


#: A k past float range: the chooser's cost estimate (float(k)) used to
#: overflow on it before any population check ran.
HUGE_K = 10**400

PAST_N = [pytest.param(N + 1, id="N+1"), pytest.param(HUGE_K, id="10**400")]


@pytest.mark.parametrize("k", PAST_N)
def test_top_past_the_population_raises_insufficient_objects(backing, k):
    make, spec = backing
    with pytest.raises(InsufficientObjectsError) as info:
        make(ExecutionContext()).query(spec).top(k)
    assert (info.value.k, info.value.available) == (k, N)


@pytest.mark.parametrize("k", PAST_N)
def test_run_many_member_past_the_population_raises(backing, k):
    make, spec = backing
    with pytest.raises(InsufficientObjectsError) as info:
        make(ExecutionContext()).run_many([spec, (spec, k)], k=K)
    assert (info.value.k, info.value.available) == (k, N)


@pytest.mark.parametrize("k", PAST_N)
@pytest.mark.parametrize(
    "query, plan_kind",
    [
        ('(Color ~ "red") AND (Tint ~ "green")', "AlgorithmPlan[A0-prime]"),
        ('(Artist = "artist-1") AND (Color ~ "red")', "FilteredConjunctPlan"),
        ('(Color ~ "red") AND NOT (Artist = "artist-1")', "AlgorithmPlan[naive]"),
    ],
    ids=["A0", "filtered", "full-scan"],
)
def test_every_catalog_plan_kind_refuses_k_past_n(qbic, query, plan_kind, k):
    """Regression: a filtered-conjunct plan answered k > N with its N
    objects and a 200; the others raised, or overflowed on 10**400.
    Now each refuses before any subsystem is asked for a source."""
    relational = RelationalSubsystem(
        "rel",
        {f"img-{i}": {"Artist": f"artist-{i % 17}"} for i in range(N)},
    )
    engine = Engine().register(relational).register(qbic)
    plan = engine.plan(query)
    assert plan.explain().startswith(plan_kind)
    misses = [sub.ranking_cache.misses for sub in engine.catalog.subsystems]
    with pytest.raises(InsufficientObjectsError):
        engine.query(query).top(k)
    with pytest.raises(InsufficientObjectsError):
        engine.run_many([(query, k)])
    assert [
        sub.ranking_cache.misses for sub in engine.catalog.subsystems
    ] == misses
    assert len(engine.query(query).top(N).items) == N
