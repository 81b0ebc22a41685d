"""Tests for the columnar scoring-database backend."""

import gc

import pytest

from repro.access.columnar import ColumnarScoringDatabase
from repro.access.scoring_database import ScoringDatabase
from repro.core.tnorms import MINIMUM
from repro.workloads.skeletons import independent_database, random_skeleton
from repro.workloads.distributions import Crisp
import random

from repro.workloads.skeletons import grades_for_skeleton


@pytest.fixture
def row_db() -> ScoringDatabase:
    return independent_database(3, 120, seed=21)


@pytest.fixture
def col_db(row_db) -> ColumnarScoringDatabase:
    return ColumnarScoringDatabase.from_scoring_database(row_db)


class TestConstruction:
    def test_dimensions(self, row_db, col_db):
        assert col_db.num_lists == row_db.num_lists
        assert col_db.num_objects == row_db.num_objects
        assert col_db.objects == row_db.objects

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ColumnarScoringDatabase([])
        with pytest.raises(ValueError):
            ColumnarScoringDatabase([{}])

    def test_rejects_mismatched_domains(self):
        with pytest.raises(ValueError, match="different object set"):
            ColumnarScoringDatabase([{"a": 0.5, "b": 0.4}, {"a": 0.5, "c": 0.4}])
        with pytest.raises(ValueError, match="different object set"):
            ColumnarScoringDatabase([{"a": 0.5}, {"a": 0.5, "b": 0.4}])

    def test_rejects_bad_grades(self):
        with pytest.raises(Exception):
            ColumnarScoringDatabase([{"a": 1.5}])

    def test_arbitrary_hashable_objects(self):
        db = ColumnarScoringDatabase(
            [{("x", 1): 0.9, "y": 0.2}, {("x", 1): 0.1, "y": 0.8}]
        )
        assert db.grade(0, ("x", 1)) == 0.9
        assert db.grade(1, "y") == 0.8

    def test_from_skeleton(self):
        rng = random.Random(5)
        skeleton = random_skeleton(2, 30, rng)
        rows = grades_for_skeleton(skeleton, rng)
        row = ScoringDatabase.from_skeleton(skeleton, rows)
        col = ColumnarScoringDatabase.from_skeleton(skeleton, rows)
        for i in range(2):
            assert col.ranking(i) == row.ranking(i)


class TestParityWithRowDatabase:
    def test_rankings_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            assert col_db.ranking(i) == row_db.ranking(i)

    def test_grades_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            for obj in row_db.objects:
                assert col_db.grade(i, obj) == row_db.grade(i, obj)

    def test_graded_sets_identical(self, row_db, col_db):
        for i in range(row_db.num_lists):
            assert col_db.graded_set(i).as_dict() == row_db.graded_set(i).as_dict()

    def test_overall_grades_identical(self, row_db, col_db):
        assert (
            col_db.overall_grades(MINIMUM).as_dict()
            == row_db.overall_grades(MINIMUM).as_dict()
        )

    def test_true_top_k_identical(self, row_db, col_db):
        assert col_db.true_top_k(MINIMUM, 7) == row_db.true_top_k(MINIMUM, 7)

    def test_tied_grades_rank_identically(self):
        """Crisp (0/1) grades force heavy ties; the tie-break must agree."""
        rng = random.Random(9)
        skeleton = random_skeleton(2, 40, rng)
        rows = grades_for_skeleton(skeleton, rng, Crisp(0.3))
        row = ScoringDatabase.from_skeleton(skeleton, rows)
        col = ColumnarScoringDatabase.from_scoring_database(row)
        for i in range(2):
            assert col.ranking(i) == row.ranking(i)


class TestSessions:
    def test_session_minted_without_resorting_shares_rankings(self, col_db):
        first = col_db.ranking(0)
        session = col_db.session()
        assert session.sources[0].sorted_access_batch(3) == (
            tuple(it.obj for it in first[:3]),
            tuple(it.grade for it in first[:3]),
        )
        # Every session's sources slice the very same column tuples.
        objects, grades = session.sources[0]._inner.columns()
        again_objects, again_grades = col_db.session().sources[0]._inner.columns()
        assert again_objects is objects
        assert again_grades is grades

    def test_sessions_have_independent_cursors(self, col_db):
        s1, s2 = col_db.session(), col_db.session()
        s1.sources[0].sorted_access_batch(10)
        assert s2.sources[0].position == 0
        assert s1.sources[0].position == 10

    def test_sessions_have_independent_trackers(self, col_db):
        s1, s2 = col_db.session(), col_db.session()
        s1.sources[1].next_sorted()
        assert s1.tracker.snapshot().sorted_cost == 1
        assert s2.tracker.snapshot().sorted_cost == 0

    def test_session_counts_match_row_database_session(self, row_db, col_db):
        from repro.algorithms.fa import FaginA0

        r_row = FaginA0().top_k(row_db.session(), MINIMUM, 5)
        r_col = FaginA0().top_k(col_db.session(), MINIMUM, 5)
        assert r_row.items == r_col.items
        assert r_row.stats == r_col.stats

    def test_engine_over_columnar(self, col_db):
        from repro import Engine

        result = Engine.over(col_db).query(MINIMUM).top(5)
        assert result.k == 5


class TestCollectorLoad:
    """The shared per-list columns and grade maps hold only atoms, so
    once a collection has seen them the cyclic garbage collector stops
    tracking them (a tuple of N items would stay N + 1 tracked
    objects)."""

    @pytest.mark.parametrize("key", [int, str], ids=("int", "str"))
    def test_shared_columns_are_untracked_after_first_session(self, key):
        rng = random.Random(8)
        store = ColumnarScoringDatabase(
            [{key(o): rng.random() for o in range(300)} for _ in range(3)]
        )
        session = store.session()
        gc.collect()
        for source in session.sources:
            objects, grades = source._inner.columns()
            assert len(objects) == len(grades) == 300
            assert not gc.is_tracked(objects)
            assert not gc.is_tracked(grades)
            assert not gc.is_tracked(source._inner._grade_map)

    def test_row_store_columns_are_untracked_after_first_session(self):
        store = independent_database(3, 300, seed=4)
        session = store.session()
        gc.collect()
        for source in session.sources:
            objects, grades = source._inner.columns()
            assert not gc.is_tracked(objects)
            assert not gc.is_tracked(grades)
            assert not gc.is_tracked(source._inner._grade_map)
