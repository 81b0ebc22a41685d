"""The threshold-exchange merge: first-probe sizes, total-order
retirement, ε spent inside the shards, and ties."""

from __future__ import annotations

import math
import random

import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.engine import Engine, ExecutionContext
from repro.sharding.engine import ShardedEngine
from repro.workloads.skeletons import independent_database

TOLERANCE = 1e-9


def ranked_store() -> ColumnarScoringDatabase:
    """Interned in list 0's ranking, as every ``from_scoring_database``
    store is."""
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(3, 400, seed=15)
    )


def tied_store(seed: int = 0) -> ColumnarScoringDatabase:
    """m = 3, N = 200, grades rounded to one decimal: ties everywhere."""
    rng = random.Random(seed)
    return ColumnarScoringDatabase(
        [{o: round(rng.random(), 1) for o in range(200)} for _ in range(3)]
    )


def first_probe(k: int, shards: int) -> int:
    return min(k, math.ceil(k / shards) + math.ceil(math.sqrt(k / shards)) + 1)


def answers_of(result):
    return [(item.obj, item.grade) for item in result.items]


def ledger_of(result):
    return (
        tuple(result.stats.sorted_by_list),
        tuple(result.stats.random_by_list),
    )


class TestProbeSizes:
    def test_shard_that_supplied_the_kth_item_retires(self):
        with ShardedEngine(ranked_store(), shards=4, processes=0) as sharded:
            result = sharded.top_k(ARITHMETIC_MEAN, 10)
        assert result.details["reprobes"] == 0
        assert result.details["merge_rounds"] == 1

    @pytest.mark.parametrize("k, shards", [(10, 4), (10, 3), (40, 4), (100, 8)])
    def test_first_probe_is_a_share_plus_margin(self, k, shards):
        with ShardedEngine(
            ranked_store(), shards=shards, processes=0
        ) as sharded:
            result = sharded.top_k(ARITHMETIC_MEAN, k)
        if result.details["reprobes"] == 0:
            assert result.details["per_shard_asked"] == (
                first_probe(k, shards),
            ) * shards
        else:
            assert max(result.details["per_shard_asked"]) <= k

    @pytest.mark.parametrize("strategy", ["fagin", "threshold", "nra"])
    def test_one_shard_runs_at_k_and_spends_what_one_store_spends(
        self, strategy
    ):
        store = ranked_store()
        single = Engine.over(store, ExecutionContext(adaptive=False))
        want = single.query(MINIMUM).strategy(strategy).top(10)
        with Engine.over_shards(store, shards=1, processes=0) as engine:
            got = engine.query(MINIMUM).strategy(strategy).top(10)
        assert got.details["per_shard_asked"] == (10,)
        assert got.details["reprobes"] == 0
        assert ledger_of(got) == ledger_of(want)
        assert answers_of(got) == answers_of(want)


WIDTHS = [1, 2, 4, 8]
KS = [1, 7, 50, 200]


class TestTies:
    """A tie-heavy store. The mean is strict, so the single store's A0
    returns the top k under the library's tie-break; the merge must
    return the same objects, not just the same grades."""

    @pytest.mark.parametrize("shards", WIDTHS)
    def test_exact_answers_equal_the_single_store(self, shards):
        store = tied_store()
        single = Engine.over(store, ExecutionContext(adaptive=False))
        with Engine.over_shards(store, shards=shards, processes=0) as engine:
            for k in KS:
                want = single.query(ARITHMETIC_MEAN).top(k)
                got = engine.query(ARITHMETIC_MEAN).top(k)
                assert answers_of(got) == answers_of(want), k
                assert got.guarantee.kind == "exact"

    @pytest.mark.parametrize("shards", WIDTHS)
    @pytest.mark.parametrize("epsilon", [0.1, 0.5])
    def test_relaxed_answers_are_certified(self, shards, epsilon):
        store = tied_store()
        context = ExecutionContext(epsilon=epsilon)
        with Engine.over_shards(store, context, shards=shards, processes=0) as engine:
            for k in KS:
                result = engine.query(ARITHMETIC_MEAN).top(k)
                truth = store.true_top_k(ARITHMETIC_MEAN, store.num_objects)
                returned = {item.obj for item in result.items}
                assert len(returned) == k
                true_grades = {item.obj: item.grade for item in truth}
                for item in result.items:
                    assert abs(item.grade - true_grades[item.obj]) <= TOLERANCE
                worst = result.items[-1].grade
                best_excluded = max(
                    (g for o, g in true_grades.items() if o not in returned),
                    default=0.0,
                )
                assert (1.0 + epsilon) * worst >= best_excluded - TOLERANCE
                relaxed = result.details.get("relaxed_probes", 0)
                assert (result.guarantee.kind == "approximate") == bool(relaxed)
                if relaxed:
                    assert result.guarantee.epsilon == epsilon
                    assert result.guarantee.threshold == pytest.approx(
                        (1.0 + epsilon) * worst
                    )

    def test_ledgers_agree_across_pool_widths(self):
        store = tied_store(seed=1)
        ledgers = []
        for processes in (0, 2):
            with Engine.over_shards(
                store,
                ExecutionContext(epsilon=0.1),
                shards=4,
                processes=processes,
            ) as engine:
                results = [
                    engine.query(ARITHMETIC_MEAN).epsilon(epsilon).top(k)
                    for epsilon in (0.0, 0.1)
                    for k in KS
                ]
            ledgers.append(
                [(answers_of(r), ledger_of(r), r.guarantee) for r in results]
            )
        assert ledgers[0] == ledgers[1]
