"""ShardedEngine + Engine facade: count parity across transports,
spawn/fork parity, merge bookkeeping, and facade contracts.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random

import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.means import ARITHMETIC_MEAN, GEOMETRIC_MEAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine.async_engine import AsyncEngine
from repro.engine.engine import Engine
from repro.exceptions import (
    EngineConfigurationError,
    InsufficientObjectsError,
    PlanningError,
    ShardingError,
)
from repro.sharding.engine import ShardedEngine
from repro.workloads.skeletons import independent_database

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def columnar(m=3, n=200, seed=11) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, n, seed=seed)
    )


def answers_of(result):
    return [(item.obj, item.grade) for item in result.items]


def ledger_of(result):
    return (
        tuple(result.stats.sorted_by_list),
        tuple(result.stats.random_by_list),
    )


AGGREGATIONS = [MINIMUM, MAXIMUM, ARITHMETIC_MEAN]


class TestCountParity:
    """The tentpole invariant: answers equal the single store's, and
    the summed ledger is bit-identical across pool widths and against
    the inline (processes=0) reference."""

    def test_pool_widths_agree_with_inline_reference(self):
        store = columnar()
        with Engine.over(store) as single:
            serial = [
                answers_of(single.query(agg).top(10)) for agg in AGGREGATIONS
            ]
        reference = None
        for processes in (0, 1, 2):
            with Engine.over_shards(
                store, shards=4, processes=processes, start_method="fork"
            ) as engine:
                results = [engine.query(agg).top(10) for agg in AGGREGATIONS]
            assert [answers_of(r) for r in results] == serial
            ledgers = [ledger_of(r) for r in results]
            if reference is None:
                reference = ledgers
            else:
                assert ledgers == reference

    def test_run_many_transport_matches_sequential_top_k(self):
        """Batched transport ships different tasks but must run the
        same probes: per-member answers AND ledgers equal the one-at-
        a-time path, inline and pooled."""
        store = columnar(m=2, n=150, seed=3)
        specs = [(agg, 7) for agg in AGGREGATIONS] * 2
        for processes in (0, 2):
            with Engine.over_shards(
                store, shards=3, processes=processes, start_method="fork"
            ) as engine:
                sequential = [
                    engine.query(agg).top(k) for agg, k in specs
                ]
                batch = engine.run_many(specs)
            assert len(batch.answers) == len(specs)
            for got, want in zip(batch.answers, sequential):
                assert answers_of(got) == answers_of(want)
                assert ledger_of(got) == ledger_of(want)
            assert batch.total_sorted == sum(
                r.stats.sorted_cost for r in sequential
            )
            assert batch.total_random == sum(
                r.stats.random_cost for r in sequential
            )
            assert batch.details["sharded"] is True
            assert batch.details["shards"] == 3
            assert batch.details["processes"] == processes

    def test_spawn_and_fork_agree(self):
        """Start method is transport, never accounting."""
        store = columnar(m=2, n=80, seed=5)
        by_method = {}
        for method in ("fork", "spawn"):
            with Engine.over_shards(
                store, shards=2, processes=1, start_method=method
            ) as engine:
                result = engine.query(MINIMUM).top(6)
            by_method[method] = (answers_of(result), ledger_of(result))
        assert by_method["fork"] == by_method["spawn"]

    def test_wire_name_equals_instance(self):
        store = columnar(m=2, n=90, seed=8)
        with ShardedEngine(store, shards=3, processes=0) as sharded:
            by_name = sharded.top_k("min", 5)
            by_instance = sharded.top_k(MINIMUM, 5)
        assert answers_of(by_name) == answers_of(by_instance)
        assert ledger_of(by_name) == ledger_of(by_instance)


class TestOneGradePerObject:
    """Shards score in bulk and the single store object by object in
    TA's small batches; both must give each object one grade."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    @pytest.mark.parametrize("k", [7, 50, 200])
    def test_geometric_mean_ta_matches_the_single_store(self, k, shards):
        rng = random.Random(1)
        store = ColumnarScoringDatabase(
            [{o: round(rng.random(), 1) for o in range(200)} for _ in range(3)]
        )
        single = Engine.over(store).query(GEOMETRIC_MEAN).strategy("threshold")
        expected = answers_of(single.top(k))
        assert expected == [
            (it.obj, it.grade) for it in store.true_top_k(GEOMETRIC_MEAN, k)
        ]
        with Engine.over_shards(store, shards=shards, processes=0) as engine:
            result = engine.query(GEOMETRIC_MEAN).strategy("threshold").top(k)
        assert answers_of(result) == expected


class TestMergeBookkeeping:
    def test_result_details_and_algorithm_naming(self):
        store = columnar(m=2, n=100, seed=2)
        with ShardedEngine(store, shards=4, processes=0) as sharded:
            result = sharded.top_k(MINIMUM, 5, strategy="fagin")
        assert result.algorithm == "sharded-A0"
        details = result.details
        assert details["shards"] == 4
        assert details["threshold_exchange"] is True
        assert details["probes"] >= 4  # every shard probed at least once
        assert details["merge_rounds"] >= 1
        assert len(details["per_shard_asked"]) == 4

    def test_metrics_counters_accumulate(self):
        store = columnar(m=2, n=60, seed=6)
        with ShardedEngine(store, shards=2, processes=0) as sharded:
            sharded.top_k(MINIMUM, 3)
            sharded.top_k(MAXIMUM, 3)
            metrics = sharded.metrics()
        assert metrics["queries"] == 2
        assert metrics["probes"] >= 4
        assert metrics["shards"] == 2
        assert metrics["processes"] == 0

    def test_k_equal_to_population_exhausts_every_shard(self):
        store = columnar(m=2, n=40, seed=4)
        with ShardedEngine(store, shards=3, processes=0) as sharded:
            result = sharded.top_k(MINIMUM, 40)
        assert len(result.items) == 40
        # Full-population ranking equals the single store's.
        with Engine.over(store) as single:
            want = answers_of(single.query(MINIMUM).top(40))
        assert answers_of(result) == want


class TestValidation:
    def test_bad_k_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with ShardedEngine(store, shards=2, processes=0) as sharded:
            for bad in (0, -1, True, "5"):
                with pytest.raises(ValueError):
                    sharded.top_k(MINIMUM, bad)

    def test_k_beyond_population_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with ShardedEngine(store, shards=2, processes=0) as sharded:
            with pytest.raises(InsufficientObjectsError):
                sharded.top_k(MINIMUM, 31)

    def test_unknown_wire_aggregation_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with ShardedEngine(store, shards=2, processes=0) as sharded:
            with pytest.raises(ShardingError, match="unknown wire"):
                sharded.top_k("median-of-medians", 3)

    def test_bad_shard_and_process_counts_refused(self):
        store = columnar(m=2, n=30, seed=1)
        with pytest.raises(ValueError):
            ShardedEngine(store, shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(store, shards=True)
        with pytest.raises(ValueError):
            ShardedEngine(store, shards=2, processes=-1)

    def test_unavailable_start_method_is_sharding_error(self):
        store = columnar(m=2, n=30, seed=1)
        with pytest.raises(ShardingError, match="not.*available"):
            ShardedEngine(
                store, shards=2, processes=1, start_method="teleport"
            )


class TestEngineFacade:
    def test_cursor_refused(self):
        store = columnar(m=2, n=50, seed=9)
        with Engine.over_shards(store, shards=2, processes=0) as engine:
            with pytest.raises(PlanningError, match="cursors"):
                engine.query(MINIMUM).cursor()

    def test_explicit_parallel_refused(self):
        store = columnar(m=2, n=50, seed=9)
        with Engine.over_shards(store, shards=2, processes=0) as engine:
            with pytest.raises(EngineConfigurationError, match="drop parallel"):
                engine.run_many([MINIMUM], k=3, parallel=2)

    def test_metrics_snapshot_reports_sharding(self):
        store = columnar(m=2, n=50, seed=9)
        with Engine.over_shards(store, shards=2, processes=0) as engine:
            engine.query(MINIMUM).top(3)
            snapshot = engine.metrics_snapshot()
        assert snapshot["backing"] == "sharded"
        assert snapshot["queries"] == 1
        sharding = snapshot["sharding"]
        assert sharding["shards"] == 2
        assert sharding["queries"] == 1

    def test_close_is_idempotent_and_queries_refused_after(self):
        store = columnar(m=2, n=50, seed=9)
        engine = Engine.over_shards(store, shards=2, processes=0)
        engine.query(MINIMUM).top(3)
        engine.close()
        engine.close()
        with pytest.raises(ShardingError, match="closed"):
            engine.query(MINIMUM).top(3)

    def test_async_facade_default_batch_works(self):
        store = columnar(m=2, n=80, seed=12)

        async def drive():
            engine = Engine.over_shards(
                store, shards=2, processes=1, start_method="fork"
            )
            async with AsyncEngine(engine, max_workers=2) as serving:
                one = await serving.top_k(MINIMUM, k=5)
                # POOL_PARALLELISM must resolve to the sharded batch
                # path, not an explicit parallel= (which is refused).
                batch = await serving.run_many([MINIMUM, MAXIMUM], k=5)
            return one, batch

        one, batch = asyncio.run(drive())
        with Engine.over(store) as single:
            want = answers_of(single.query(MINIMUM).top(5))
        assert answers_of(one) == want
        assert answers_of(batch.answers[0]) == want
        assert batch.details["sharded"] is True
