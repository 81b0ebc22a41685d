"""Parallel ``run_many``: per-query sessions, one summed ledger.

The serving contract: ``run_many(..., parallel=N)`` returns answers and
batch-wide S/R **bit-identical** to the serial path — parallelism
changes wall-clock, never the Section 5 accounting. These tests pin
that parity on both backings, the forked-cursor atom reuse that
replaced the restart-based reuse (unsound once two plans interleave),
and the spec-normalisation regressions that rode along.
"""

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.engine.batch import stats_of
from repro.exceptions import EngineConfigurationError
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


#: Batch members sharing atoms across each other — the regime that
#: exercised the unsound restart()-based reuse.
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

    def test_live_session_backing_refuses_parallel(self, db):
        session = db.session()
        with pytest.raises(EngineConfigurationError, match="single-"):
            Engine.over(session).run_many(AGGS, k=5, parallel=2)

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
        """The forked-cursor path: answers *and* per-query access
        counts must match the serial lane exactly on batches whose
        members share atoms."""
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
        batch = _catalog_engine().run_many(
            SHARED_ATOM_QUERIES, k=4, parallel=8
        )
        # Distinct atoms: Color~red, Artist=Beatles, Texture~o5.
        assert batch.details["atom_evaluations"] == 3
        # Color~red ×4, Texture~o5 ×2, Artist=Beatles ×2 -> five
        # further requests served off forks of the cached evaluations.
        assert batch.details["atom_reuses"] == 5
        assert batch.details["parallel"] == 8

    def test_forks_leave_cached_template_pristine(self):
        """Two plans interleaving over a shared atom must not see each
        other's cursor progress (the bug the fork path fixes)."""
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
    """Sources without fork(): serial batches keep restart-based reuse
    (sound when plans run sequentially); parallel batches fall back to
    a fresh evaluation per use (never a shared mutating cursor)."""

    class _UnforkableSubsystem(RelationalSubsystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.evaluations = 0

        def evaluate(self, query):
            from repro.access.source import SortedRandomSource

            self.evaluations += 1
            inner = super().evaluate(query)

            class NoFork(SortedRandomSource):
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

            return NoFork()

    def _engine(self):
        objs = [f"o{i}" for i in range(20)]
        sub = self._UnforkableSubsystem(
            "rel",
            {o: {"Genre": "jazz" if i % 2 else "rock"}
             for i, o in enumerate(objs)},
        )
        return Engine().register(sub), sub

    def test_serial_batch_still_reuses_via_restart(self):
        engine, sub = self._engine()
        queries = ['Genre = "jazz"'] * 4
        batch = engine.run_many(queries, k=3)
        assert sub.evaluations == 1  # evaluated once, restarted thrice
        assert batch.details["atom_evaluations"] == 1
        assert batch.details["atom_reuses"] == 3
        first = batch.answers[0]
        for answer in batch.answers[1:]:
            assert answer.items == first.items
            assert answer.result.stats == first.result.stats

    def test_parallel_batch_re_evaluates_instead_of_sharing(self):
        engine, sub = self._engine()
        queries = ['Genre = "jazz"'] * 4
        batch = engine.run_many(queries, k=3, parallel=4)
        # No shared mutating cursor: each member got its own evaluation.
        assert sub.evaluations == 4
        assert batch.details["atom_evaluations"] == 4
        assert batch.details["atom_reuses"] == 0
        serial = self._engine()[0].run_many(queries, k=3)
        assert [a.items for a in batch] == [a.items for a in serial]
        assert batch.total_sorted == serial.total_sorted
        assert batch.total_random == serial.total_random


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
