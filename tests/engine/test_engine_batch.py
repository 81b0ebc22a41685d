"""Batch execution: per-member sessions, one summed cost ledger."""

import pytest

from repro.algorithms.base import is_valid_top_k
from repro.core.means import ARITHMETIC_MEAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.engine.batch import stats_of
from repro.exceptions import EngineConfigurationError
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem


class TestSourceBackedBatch:
    def test_totals_equal_sum_of_per_query_costs(self, db2):
        batch = Engine.over(db2).run_many(
            [MINIMUM, ARITHMETIC_MEAN, MAXIMUM], k=5
        )
        assert len(batch) == 3
        assert batch.total_sorted == sum(
            stats_of(a).sorted_cost for a in batch
        )
        assert batch.total_random == sum(
            stats_of(a).random_cost for a in batch
        )
        assert "parallel" not in batch.details

    def test_answers_are_correct(self, db2):
        batch = Engine.over(db2).run_many([MINIMUM, ARITHMETIC_MEAN], k=5)
        for agg, answer in zip((MINIMUM, ARITHMETIC_MEAN), batch):
            assert is_valid_top_k(
                answer.items, db2.overall_grades(agg), 5
            ), agg.name

    def test_per_entry_k_override(self, db2):
        batch = Engine.over(db2).run_many([(MINIMUM, 2), MAXIMUM], k=7)
        assert batch[0].k == 2
        assert batch[1].k == 7

    def test_middleware_cost_weighting(self, db2):
        from repro.access.cost import CostModel

        batch = Engine.over(db2).run_many([MINIMUM], k=5)
        model = CostModel(sorted_weight=1.0, random_weight=10.0)
        assert batch.middleware_cost(model) == pytest.approx(
            batch.total_sorted + 10.0 * batch.total_random
        )
        assert batch.middleware_cost() == batch.total_accesses

    def test_rejects_string_specs(self, db2):
        with pytest.raises(EngineConfigurationError):
            Engine.over(db2).run_many(["not an aggregation"], k=5)


def _catalog_engine(albums):
    engine = Engine()
    engine.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {"Artist": a.artist, "Genre": a.genre}
                for a in albums
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "qbic",
            {
                "Color": {a.album_id: a.cover_rgb for a in albums},
                "Texture": {a.album_id: a.cover_texture for a in albums},
            },
        )
    )
    return engine


class TestCatalogBackedBatch:
    @pytest.fixture
    def engine(self, albums):
        return _catalog_engine(albums)

    def test_shared_atoms_evaluated_once(self, albums):
        queries = [
            '(Color ~ "red") AND (Texture ~ "cd-0000")',
            '(Color ~ "red") AND (Genre = "jazz")',
            'Color ~ "red"',
        ]
        serial_engine = _catalog_engine(albums)
        parallel_engine = _catalog_engine(albums)
        serial = serial_engine.run_many(queries, k=3)
        parallel = parallel_engine.run_many(queries, k=3, parallel=8)
        # 'Color ~ "red"' appears three times but its subsystem ranks
        # it once: the ranking caches miss on the distinct atoms only
        # (Color~red, Texture~cd-0000, Genre=jazz), either way.
        for engine in (serial_engine, parallel_engine):
            assert engine.metrics_snapshot()["cache_totals"]["misses"] == 3
        assert [a.items for a in serial] == [a.items for a in parallel]
        assert [stats_of(a) for a in serial] == [
            stats_of(a) for a in parallel
        ]

    def test_batch_answers_match_individual_queries(self, engine):
        queries = ['Color ~ "red"', '(Color ~ "blue") OR (Texture ~ "cd-0001")']
        batch = engine.run_many(queries, k=4)
        for text, batched in zip(queries, batch):
            solo = engine.query(text).top(4)
            assert batched.items == solo.items

    def test_totals_equal_sum_of_per_query_costs(self, engine):
        batch = engine.run_many(
            ['Color ~ "red"', 'Texture ~ "cd-0000"'], k=3
        )
        assert batch.total_accesses == sum(
            stats_of(a).sum_cost for a in batch
        )
