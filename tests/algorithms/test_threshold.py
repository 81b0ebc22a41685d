"""Tests for the Threshold Algorithm extension (E15 ablation)."""

import random

import pytest

from repro.access.columnar import ColumnarScoringDatabase
from repro.algorithms.base import is_valid_top_k
from repro.algorithms.fa import FaginA0
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN, GEOMETRIC_MEAN
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.workloads.skeletons import independent_database


class TestCorrectness:
    def test_tiny_known_answers(self, tiny_db):
        result = ThresholdAlgorithm().top_k(tiny_db.session(), MINIMUM, 2)
        assert result.objects() == ("b", "a")

    @pytest.mark.parametrize(
        "aggregation",
        [MINIMUM, ALGEBRAIC_PRODUCT, ARITHMETIC_MEAN],
        ids=lambda a: a.name,
    )
    def test_matches_ground_truth(self, db2, aggregation):
        truth = db2.overall_grades(aggregation)
        result = ThresholdAlgorithm().top_k(db2.session(), aggregation, 10)
        assert is_valid_top_k(result.items, truth, 10)

    def test_three_lists(self, db3):
        truth = db3.overall_grades(MINIMUM)
        result = ThresholdAlgorithm().top_k(db3.session(), MINIMUM, 6)
        assert is_valid_top_k(result.items, truth, 6)

    def test_many_seeds(self):
        for seed in range(20):
            db = independent_database(2, 70, seed=seed)
            truth = db.overall_grades(MINIMUM)
            result = ThresholdAlgorithm().top_k(db.session(), MINIMUM, 5)
            assert is_valid_top_k(result.items, truth, 5), f"seed {seed}"

    def test_k_equals_n(self, tiny_db):
        result = ThresholdAlgorithm().top_k(tiny_db.session(), MINIMUM, 5)
        assert is_valid_top_k(
            result.items, tiny_db.overall_grades(MINIMUM), 5
        )

    def test_rejects_non_monotone(self, tiny_db):
        bad = FunctionAggregation(lambda *g: 0.5, "flat", monotone=False)
        with pytest.raises(ValueError, match="monotone"):
            ThresholdAlgorithm().top_k(tiny_db.session(), bad, 1)


def tied_store() -> ColumnarScoringDatabase:
    """Grades rounded to 0.1: tie-heavy, and products whose geometric
    mean numpy's pow and libm's pow round differently."""
    rng = random.Random(1)
    return ColumnarScoringDatabase(
        [{o: round(rng.random(), 1) for o in range(200)} for _ in range(3)]
    )


class TestOneGradePerObject:
    @pytest.mark.parametrize("k", [7, 50, 200])
    def test_geometric_mean_grades_do_not_depend_on_the_batch(self, k):
        # TA scores small batches by the scalar fold and large ones by
        # the kernel; either way an object gets the ground-truth grade.
        store = tied_store()
        result = ThresholdAlgorithm().top_k(store.session(), GEOMETRIC_MEAN, k)
        assert [(it.obj, it.grade) for it in result.items] == [
            (it.obj, it.grade) for it in store.true_top_k(GEOMETRIC_MEAN, k)
        ]


class TestStoppingBehaviour:
    def test_threshold_detail_is_sound(self, db2):
        """At stop, k answers have grades >= the final threshold."""
        result = ThresholdAlgorithm().top_k(db2.session(), MINIMUM, 10)
        tau = result.details["threshold"]
        assert all(item.grade >= tau - 1e-12 for item in result.items)

    def test_depth_detail(self, db2):
        result = ThresholdAlgorithm().top_k(db2.session(), MINIMUM, 5)
        assert result.stats.max_sorted_depth() == result.details["rounds"]

    def test_exhaustion_round_not_counted(self):
        """Regression: the final empty exchange (every list exhausted)
        performs no sorted accesses and must not inflate ``rounds`` —
        the detail reports depths actually reached, so it equals the
        maximum per-list sorted depth even on an exhausted-lists query.

        The middleware believes more objects exist than the lists
        deliver (a subsystem under-covering the population), which is
        exactly the situation that forces TA through its exhaustion
        round: the stop rule can never certify k answers, so the run
        terminates on an exchange that delivers nothing.
        """
        from repro.access import MaterializedSource, MiddlewareSession

        n = 12
        grades = {i: (n - i) / (n + 1) for i in range(n)}
        session = MiddlewareSession.over_sources(
            [
                MaterializedSource("l0", dict(grades)),
                MaterializedSource("l1", dict(grades)),
            ],
            num_objects=n + 5,
        )
        result = ThresholdAlgorithm().top_k(session, MINIMUM, n + 3)
        assert result.details["rounds"] == n
        assert result.stats.max_sorted_depth() == n
        assert result.details["seen"] == n

    def test_full_drain_rounds_equal_depth(self, tiny_db):
        """k = N drains the lists completely; rounds still reports the
        true sorted depth (no phantom exhaustion round)."""
        n = tiny_db.num_objects
        result = ThresholdAlgorithm().top_k(tiny_db.session(), MINIMUM, n)
        assert result.details["rounds"] == result.stats.max_sorted_depth()


class TestAblationVsFA:
    def test_never_dramatically_worse_than_a0(self):
        """TA's adaptive stop: same order of magnitude as A0 or better."""
        for seed in range(5):
            db = independent_database(2, 1000, seed=seed)
            fa = FaginA0().top_k(db.session(), MINIMUM, 10)
            ta = ThresholdAlgorithm().top_k(db.session(), MINIMUM, 10)
            assert ta.stats.sum_cost <= 3 * fa.stats.sum_cost

    def test_wins_on_aligned_lists(self):
        """When lists agree, TA stops almost immediately; FA must still
        wait for k full matches (same here) — TA never needs more
        sorted depth than FA on identical rankings."""
        from repro.access.scoring_database import ScoringDatabase

        grades = {i: (100 - i) / 100 for i in range(1, 101)}
        db = ScoringDatabase([dict(grades), dict(grades)])
        fa = FaginA0().top_k(db.session(), MINIMUM, 5)
        ta = ThresholdAlgorithm().top_k(db.session(), MINIMUM, 5)
        assert ta.stats.max_sorted_depth() <= fa.stats.max_sorted_depth()
