"""Parallel ``run_many``: per-query sessions, one summed ledger.

The serving contract: ``run_many(..., parallel=N)`` returns answers and
batch-wide S/R **bit-identical** to the serial path — parallelism
changes wall-clock, never the Section 5 accounting. These tests pin
that parity on both backings, the sharing rule behind it (every member
mints its own sources; the subsystems' ranking caches rank a shared
atom once), and the spec-normalisation regressions that rode along.
"""

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.engine.batch import stats_of
from repro.exceptions import EngineConfigurationError
from repro.middleware.parser import parse_query
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.workloads.skeletons import independent_database

AGGS = [MINIMUM, ARITHMETIC_MEAN, MAXIMUM, MINIMUM, ARITHMETIC_MEAN]


def _catalog_engine():
    objs = [f"o{i}" for i in range(60)]
    engine = Engine()
    engine.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Artist": "Beatles" if i < 7 else f"a{i % 9}"}
                for i, o in enumerate(objs)
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "img",
            {
                "Color": {o: (i / 60, 0.3, 0.2) for i, o in enumerate(objs)},
                "Texture": {o: (0.1, i / 60, 0.4) for i, o in enumerate(objs)},
            },
        )
    )
    return engine


#: Batch members sharing atoms across each other, so several plans
#: read the same cached ranking at once.
SHARED_ATOM_QUERIES = [
    '(Color ~ "red") AND (Artist = "Beatles")',
    'Color ~ "red"',
    '(Color ~ "red") OR (Texture ~ "o5")',
    '(Texture ~ "o5") AND (Artist = "Beatles")',
    'Color ~ "red"',
]


class TestSourceBackedParallel:
    @pytest.fixture(scope="class")
    def db(self):
        return independent_database(3, 400, seed=11)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_answers_and_ledger_match_serial(self, db, workers):
        serial = Engine.over(db).run_many(AGGS, k=7)
        parallel = Engine.over(db).run_many(AGGS, k=7, parallel=workers)
        assert [a.items for a in serial] == [a.items for a in parallel]
        assert [stats_of(a) for a in serial] == [
            stats_of(a) for a in parallel
        ]
        assert parallel.total_sorted == serial.total_sorted
        assert parallel.total_random == serial.total_random

    def test_parallel_details(self, db):
        batch = Engine.over(db).run_many(AGGS, k=5, parallel=4)
        serial = Engine.over(db).run_many(AGGS, k=5)
        assert batch.details["parallel"] == 4
        assert "parallel" not in serial.details
        assert (batch.total_sorted, batch.total_random) == (
            serial.total_sorted,
            serial.total_random,
        )
        assert batch.details["queries"] == len(AGGS)

    def test_totals_are_per_member_sums(self, db):
        batch = Engine.over(db).run_many(AGGS, k=5, parallel=8)
        assert batch.total_sorted == sum(
            stats_of(a).sorted_cost for a in batch
        )
        assert batch.total_random == sum(
            stats_of(a).random_cost for a in batch
        )

    def test_rejects_non_aggregation_specs_upfront(self, db):
        with pytest.raises(EngineConfigurationError):
            Engine.over(db).run_many(
                [MINIMUM, "not an aggregation"], k=5, parallel=2
            )

    @pytest.mark.parametrize("bad", [0, -1, True, 2.5])
    def test_rejects_bad_parallel_values(self, db, bad):
        with pytest.raises(EngineConfigurationError, match="parallel"):
            Engine.over(db).run_many([MINIMUM], k=5, parallel=bad)


class TestCatalogBackedParallel:
    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_shared_atom_parity_with_serial(self, workers):
        """Answers *and* per-query access counts must match the serial
        lane exactly on batches whose members share atoms."""
        serial = _catalog_engine().run_many(SHARED_ATOM_QUERIES, k=4)
        parallel = _catalog_engine().run_many(
            SHARED_ATOM_QUERIES, k=4, parallel=workers
        )
        assert [a.items for a in serial] == [a.items for a in parallel]
        assert [stats_of(a) for a in serial] == [
            stats_of(a) for a in parallel
        ]
        assert parallel.total_sorted == serial.total_sorted
        assert parallel.total_random == serial.total_random

    def test_shared_atoms_still_evaluated_once(self):
        serial_engine, parallel_engine = _catalog_engine(), _catalog_engine()
        serial = serial_engine.run_many(SHARED_ATOM_QUERIES, k=4)
        parallel = parallel_engine.run_many(
            SHARED_ATOM_QUERIES, k=4, parallel=8
        )
        # Distinct atoms: Color~red, Artist=Beatles, Texture~o5. The
        # single-flight ranking caches rank each once, serial or not.
        for engine in (serial_engine, parallel_engine):
            assert engine.metrics_snapshot()["cache_totals"]["misses"] == 3
        assert [a.items for a in serial] == [a.items for a in parallel]
        assert [stats_of(a) for a in serial] == [
            stats_of(a) for a in parallel
        ]
        assert parallel.details["parallel"] == 8

    def test_forks_leave_cached_template_pristine(self):
        """Two plans interleaving over a shared atom must not see each
        other's cursor progress: each mints its own cursor over the
        cached ranking, which no read mutates."""
        engine = _catalog_engine()
        batch = engine.run_many(
            ['Color ~ "red"', 'Color ~ "red"'], k=3, parallel=2
        )
        a, b = batch.answers
        assert a.items == b.items
        assert a.result.stats == b.result.stats
        # And each equals a standalone run of the same query.
        solo = engine.query('Color ~ "red"').top(3)
        assert a.items == solo.items
        assert a.result.stats == solo.result.stats

    def test_answers_match_individual_queries(self):
        engine = _catalog_engine()
        batch = engine.run_many(SHARED_ATOM_QUERIES, k=4, parallel=4)
        for text, batched in zip(SHARED_ATOM_QUERIES, batch):
            solo = engine.query(text).top(4)
            assert batched.items == solo.items


class TestSpecNormalisation:
    """Regression: ``(spec, True)`` passed isinstance(entry[1], int)."""

    def test_bool_is_not_a_k_override_source_backed(self):
        db = independent_database(2, 50, seed=0)
        with pytest.raises(EngineConfigurationError):
            Engine.over(db).run_many([(MINIMUM, True)], k=5)

    def test_bool_is_not_a_k_override_catalog_backed(self):
        with pytest.raises(EngineConfigurationError):
            _catalog_engine().run_many([('Color ~ "red"', False)], k=5)

    def test_int_override_still_works(self):
        db = independent_database(2, 50, seed=0)
        batch = Engine.over(db).run_many([(MINIMUM, 2), MAXIMUM], k=7)
        assert batch[0].k == 2
        assert batch[1].k == 7

    def test_rejects_nonpositive_k_override(self):
        db = independent_database(2, 50, seed=0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            Engine.over(db).run_many([(MINIMUM, 0)], k=5)

    def test_rejects_nonpositive_batch_k(self):
        db = independent_database(2, 50, seed=0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            Engine.over(db).run_many([MINIMUM], k=-2)


class TestUnforkableSources:
    """A subsystem whose sources implement only the unit access methods
    (no batch overrides, nothing shared between cursors): every member
    issue calls its ``evaluate``, as a one-shot query does, and its
    ranking cache ranks the shared atom once."""

    class _CountingSubsystem(RelationalSubsystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.evaluations = 0

        def evaluate(self, query):
            from repro.access.source import SortedRandomSource

            self.evaluations += 1
            inner = super().evaluate(query)

            class UnitOnly(SortedRandomSource):
                name = inner.name

                def __len__(self):
                    return len(inner)

                @property
                def position(self):
                    return inner.position

                def next_sorted(self):
                    return inner.next_sorted()

                def random_access(self, obj):
                    return inner.random_access(obj)

                def restart(self):
                    inner.restart()

            return UnitOnly()

    def _engine(self):
        objs = [f"o{i}" for i in range(20)]
        sub = self._CountingSubsystem(
            "rel",
            {o: {"Genre": "jazz" if i % 2 else "rock"}
             for i, o in enumerate(objs)},
        )
        return Engine().register(sub), sub

    def test_serial_batch_still_reuses_via_restart(self):
        """Each serial member re-issues (restarts) the subquery; the
        re-issue reuses the cached ranking instead of re-ranking."""
        engine, sub = self._engine()
        queries = ['Genre = "jazz"'] * 4
        batch = engine.run_many(queries, k=3)
        assert sub.evaluations == 4
        assert sub.ranking_cache.misses == 1
        assert sub.ranking_cache.hits == 3
        first = batch.answers[0]
        for answer in batch.answers[1:]:
            assert answer.items == first.items
            assert answer.result.stats == first.result.stats
        # Restarting one minted cursor replays the same ranking from
        # the top, still without a re-rank.
        (atom,) = parse_query(queries[0]).atoms()
        source = sub.evaluate(atom)
        head = [source.next_sorted() for _ in range(3)]
        source.restart()
        assert source.position == 0
        assert [source.next_sorted() for _ in range(3)] == head
        assert [obj for obj, _ in head] == [
            obj for obj, _ in first.items
        ]
        assert sub.ranking_cache.misses == 1

    def test_parallel_batch_re_evaluates_instead_of_sharing(self):
        queries = ['Genre = "jazz"'] * 4
        serial_engine, serial_sub = self._engine()
        parallel_engine, parallel_sub = self._engine()
        serial = serial_engine.run_many(queries, k=3)
        batch = parallel_engine.run_many(queries, k=3, parallel=8)
        for sub in (serial_sub, parallel_sub):
            # Each member issued the subquery; one distinct atom, one miss.
            assert sub.evaluations == 4
            assert sub.ranking_cache.misses == 1
        assert [a.items for a in batch] == [a.items for a in serial]
        assert [stats_of(a) for a in batch] == [stats_of(a) for a in serial]
        first = serial.answers[0]
        for answer in serial.answers[1:]:
            assert answer.items == first.items
            assert answer.result.stats == first.result.stats


class TestKTypeValidation:
    """k=True / k=2.5 must fail at the boundary, not run as k=1 or
    crash deep in the paging machinery."""

    @pytest.mark.parametrize("bad", [True, False, 2.5, "3"])
    def test_run_many_rejects_non_int_k(self, bad):
        db = independent_database(2, 50, seed=0)
        with pytest.raises(ValueError, match="must be an integer"):
            Engine.over(db).run_many([MINIMUM], k=bad)

    @pytest.mark.parametrize("bad", [True, 2.5])
    def test_top_rejects_non_int_k(self, bad):
        db = independent_database(2, 50, seed=0)
        with pytest.raises(ValueError, match="must be an integer"):
            Engine.over(db).query(MINIMUM).top(bad)

    def test_index_like_ints_still_accepted(self):
        import numpy as np

        db = independent_database(2, 50, seed=0)
        result = Engine.over(db).query(MINIMUM).top(np.int64(3))
        assert len(result.items) == 3
        batch = Engine.over(db).run_many([(MINIMUM, np.int64(3))])
        assert batch[0].k == 3 and len(batch[0].items) == 3
