"""ε in the threshold-exchange merge: exact parity at ε=0, certified
approximation and probe savings at ε>0, across shard widths."""

from __future__ import annotations

import pytest

from repro.access import ColumnarScoringDatabase
from repro.core.certify import QualityContract
from repro.core.tnorms import MINIMUM
from repro.engine.context import ExecutionContext
from repro.engine.engine import Engine
from repro.sharding.engine import ShardedEngine
from repro.workloads.skeletons import independent_database

N, M, K = 240, 3, 8


def columnar(seed=13) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(
        independent_database(M, N, seed=seed)
    )


def answers_of(result):
    return [(item.obj, item.grade) for item in result.items]


def ledger_of(result):
    return (
        tuple(result.stats.sorted_by_list),
        tuple(result.stats.random_by_list),
    )


class TestEpsilonZeroParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_exact_contract_is_bit_identical(self, shards):
        """An explicit ε=0 contract must not change a single probe."""
        store = columnar()
        with ShardedEngine(store, shards=shards, processes=0) as plain:
            baseline = plain.top_k(MINIMUM, K)
        store = columnar()
        with ShardedEngine(store, shards=shards, processes=0) as contracted:
            relaxed = contracted.top_k(
                MINIMUM, K, contract=QualityContract.approximate(0.0)
            )
        assert answers_of(relaxed) == answers_of(baseline)
        assert ledger_of(relaxed) == ledger_of(baseline)
        assert relaxed.details["merge_rounds"] == baseline.details["merge_rounds"]
        assert relaxed.guarantee.kind == "exact"

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_matches_single_store_at_epsilon_zero(self, shards):
        single = Engine.over(independent_database(M, N, seed=13))
        truth = single.query(MINIMUM).top(K)
        with ShardedEngine(columnar(), shards=shards, processes=0) as sharded:
            result = sharded.top_k(MINIMUM, K)
        assert [g for _, g in answers_of(result)] == [
            item.grade for item in truth.items
        ]


class TestEpsilonRelaxedMerge:
    def test_certificate_against_true_answers(self):
        db = independent_database(M, N, seed=13)
        truth = db.true_top_k(MINIMUM, K)
        true_kth = truth[-1].grade
        with ShardedEngine(columnar(), shards=4, processes=0) as sharded:
            for epsilon in (0.05, 0.2, 0.5):
                result = sharded.top_k(
                    MINIMUM, K, contract=QualityContract.approximate(epsilon)
                )
                got_kth = result.items[-1].grade
                assert (1.0 + epsilon) * got_kth >= true_kth - 1e-12

    def test_relaxation_never_costs_more_probes(self):
        with ShardedEngine(columnar(), shards=4, processes=0) as sharded:
            exact = sharded.top_k(MINIMUM, K)
            relaxed = sharded.top_k(
                MINIMUM, K, contract=QualityContract.approximate(0.5)
            )
        assert relaxed.details["probes"] <= exact.details["probes"]
        assert relaxed.stats.sum_cost <= exact.stats.sum_cost

    def test_guarantee_is_honest(self):
        """The merge reports approximate only when a final probe ran
        relaxed (A0', the auto pick for min, never does)."""
        with ShardedEngine(columnar(), shards=4, processes=0) as sharded:
            for strategy in (None, "threshold"):
                relaxed = sharded.top_k(
                    MINIMUM,
                    K,
                    strategy=strategy,
                    contract=QualityContract.approximate(0.5),
                )
                if relaxed.details.get("relaxed_probes"):
                    assert relaxed.guarantee.kind == "approximate"
                    assert relaxed.guarantee.epsilon == 0.5
                    assert relaxed.guarantee.threshold is not None
                else:
                    assert relaxed.guarantee.kind == "exact"

    def test_engine_facade_threads_context_epsilon(self):
        engine = Engine.over_shards(
            columnar(),
            ExecutionContext(epsilon=0.3),
            shards=2,
            processes=0,
        )
        with engine:
            result = engine.query(MINIMUM).top(K)
            assert result.guarantee is not None
            assert result.guarantee.kind in ("exact", "approximate")
            quality = engine.metrics_snapshot()["quality"]
            assert quality["exact"] + quality["approximate"] == 1

    def test_run_many_carries_contract(self):
        with ShardedEngine(columnar(), shards=2, processes=0) as sharded:
            results = sharded.run_many(
                [(MINIMUM, K), (MINIMUM, 2 * K)],
                contract=QualityContract.approximate(0.2),
            )
        assert len(results) == 2
        for result in results:
            assert result.guarantee is not None
