"""Tests for the top-k contract machinery."""

import numpy as np
import pytest

from repro.access.cost import AccessStats
from repro.access.types import GradedItem
from repro.algorithms.base import TopKResult, is_valid_top_k, top_k_of
from repro.algorithms.fa import FaginA0
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.graded_set import GradedSet
from repro.core.tnorms import MINIMUM
from repro.exceptions import InsufficientObjectsError


class TestTopKResult:
    def _result(self):
        return TopKResult(
            items=(GradedItem("a", 0.9), GradedItem("b", 0.5)),
            stats=AccessStats((3, 3), (1, 1)),
            algorithm="test",
        )

    def test_k(self):
        assert self._result().k == 2

    def test_objects_and_grades(self):
        r = self._result()
        assert r.objects() == ("a", "b")
        assert r.grades() == (0.9, 0.5)

    def test_as_graded_set(self):
        gs = self._result().as_graded_set()
        assert isinstance(gs, GradedSet)
        assert gs.grade("a") == 0.9

    def test_repr(self):
        assert "S=6" in repr(self._result())


class TestTopKOf:
    def test_selects_highest(self):
        top = top_k_of({"a": 0.1, "b": 0.9, "c": 0.5}, 2)
        assert [it.obj for it in top] == ["b", "c"]

    def test_deterministic_ties(self):
        top = top_k_of({"b": 0.5, "a": 0.5}, 1)
        assert top[0].obj == "a"


class TestIsValidTopK:
    def test_accepts_correct_answer(self):
        truth = GradedSet({"a": 0.9, "b": 0.5, "c": 0.1})
        items = (GradedItem("a", 0.9), GradedItem("b", 0.5))
        assert is_valid_top_k(items, truth, 2)

    def test_accepts_any_tie_break(self):
        truth = GradedSet({"a": 0.5, "b": 0.5, "c": 0.1})
        assert is_valid_top_k((GradedItem("a", 0.5),), truth, 1)
        assert is_valid_top_k((GradedItem("b", 0.5),), truth, 1)

    def test_rejects_wrong_size(self):
        truth = GradedSet({"a": 0.9, "b": 0.5})
        assert not is_valid_top_k((GradedItem("a", 0.9),), truth, 2)

    def test_rejects_duplicates(self):
        truth = GradedSet({"a": 0.9, "b": 0.5})
        items = (GradedItem("a", 0.9), GradedItem("a", 0.9))
        assert not is_valid_top_k(items, truth, 2)

    def test_rejects_wrong_grade(self):
        truth = GradedSet({"a": 0.9, "b": 0.5})
        assert not is_valid_top_k((GradedItem("a", 0.8),), truth, 1)

    def test_rejects_dominated_answer(self):
        truth = GradedSet({"a": 0.9, "b": 0.5})
        assert not is_valid_top_k((GradedItem("b", 0.5),), truth, 1)

    def test_rejects_unknown_object(self):
        truth = GradedSet({"a": 0.9})
        assert not is_valid_top_k((GradedItem("zzz", 0.9),), truth, 1)


class TestArgumentValidation:
    def test_k_must_be_positive(self, tiny_db):
        with pytest.raises(ValueError):
            FaginA0().top_k(tiny_db.session(), MINIMUM, 0)

    def test_k_bounded_by_n(self, tiny_db):
        with pytest.raises(InsufficientObjectsError):
            FaginA0().top_k(tiny_db.session(), MINIMUM, 6)

    @pytest.mark.parametrize("bad", [True, "0.1", None, -0.5])
    def test_epsilon_validated_before_any_access(self, tiny_db, bad):
        session = tiny_db.session()
        with pytest.raises(ValueError, match="epsilon"):
            FaginA0().top_k(session, MINIMUM, 1, bad)
        assert session.tracker.snapshot().sum_cost == 0

    def test_stats_are_run_delta(self, tiny_db):
        """Re-running on a dirty session reports only the new accesses."""
        session = tiny_db.session()
        first = FaginA0().top_k(session, MINIMUM, 1)
        for source in session.sources:
            source.restart()
        second = FaginA0().top_k(session, MINIMUM, 1)
        assert second.stats.sum_cost == first.stats.sum_cost
        total = session.tracker.snapshot()
        assert total.sum_cost == first.stats.sum_cost + second.stats.sum_cost


def run_of(result):
    return (result.items, result.stats, result.details, result.guarantee)


@pytest.mark.parametrize(
    "algorithm",
    [ThresholdAlgorithm, NoRandomAccessAlgorithm],
    ids=lambda cls: cls.name,
)
class TestEpsilonReachesTheStoppingRule:
    """``top_k`` validates ε once and hands TA and NRA the float."""

    def test_every_spelling_of_zero_is_the_exact_run(self, db2, algorithm):
        exact = algorithm().top_k(db2.session(), MINIMUM, 10)
        assert exact.guarantee.is_exact
        for zero in (0, 0.0, np.int64(0), np.float64(0.0)):
            result = algorithm().top_k(db2.session(), MINIMUM, 10, zero)
            assert run_of(result) == run_of(exact)

    def test_numpy_epsilon_runs_as_its_float(self, db2, algorithm):
        relaxed = algorithm().top_k(db2.session(), MINIMUM, 10, 0.2)
        scalar = algorithm().top_k(db2.session(), MINIMUM, 10, np.float64(0.2))
        assert run_of(scalar) == run_of(relaxed)
        assert relaxed.guarantee.kind == "approximate"
        assert type(scalar.guarantee.epsilon) is float
        assert scalar.guarantee.epsilon == 0.2
