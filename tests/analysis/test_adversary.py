"""Tests for the executable Lemma 6.2 adversary."""

import random

import pytest

from repro.access.scoring_database import Skeleton
from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.fa import FaginA0
from repro.algorithms.naive import NaiveAlgorithm
from repro.analysis.adversary import run_lemma62_adversary
from repro.core.aggregation import AggregationFunction
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM


class UnderReadingAlgorithm(TopKAlgorithm):
    """A deliberately unsound algorithm: reads only the top k of each
    list, random-accesses those objects everywhere, and answers.

    Sublinear and confident — exactly the behaviour Lemma 6.2 punishes
    for strict aggregations.
    """

    name = "under-reader"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        m = session.num_lists
        seen: dict[object, dict[int, float]] = {}
        for i, source in enumerate(session.sources):
            for __ in range(min(k, len(source))):
                item = source.next_sorted()
                seen.setdefault(item.obj, {})[i] = item.grade
        for obj, by_list in seen.items():
            for j in range(m):
                if j not in by_list:
                    by_list[j] = session.sources[j].random_access(obj)
        scored = {
            obj: aggregation(*(by_list[j] for j in range(m)))
            for obj, by_list in seen.items()
        }
        return TopKResult(
            items=top_k_of(scored, min(k, len(scored))),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
        )


@pytest.fixture
def skeleton():
    return Skeleton.random(2, 60, random.Random(5))


class TestTheAdversaryBites:
    def test_under_reader_is_fooled(self, skeleton):
        """The cheater leaves objects untouched and answers wrongly on D'."""
        outcome = run_lemma62_adversary(
            UnderReadingAlgorithm(), MINIMUM, skeleton, k=3
        )
        assert outcome.fooled
        assert outcome.untouched is not None
        assert outcome.fooling_database is not None
        # On D', the untouched object has the strictly-best grade.
        truth = outcome.fooling_database.overall_grades(MINIMUM)
        assert truth.grade(outcome.untouched) == 1.0

    def test_fooling_database_differs_only_at_x0(self, skeleton):
        outcome = run_lemma62_adversary(
            UnderReadingAlgorithm(), MINIMUM, skeleton, k=3
        )
        d, d_prime = outcome.database, outcome.fooling_database
        for i in range(2):
            for obj in skeleton.objects:
                if obj == outcome.untouched:
                    assert d_prime.grade(i, obj) == 1.0
                else:
                    assert d_prime.grade(i, obj) == d.grade(i, obj)


class TestSoundAlgorithmsSurvive:
    def test_a0_survives(self, skeleton):
        """A0 reads one past the adversary's prefix and sees through it."""
        outcome = run_lemma62_adversary(FaginA0(), MINIMUM, skeleton, k=3)
        assert outcome.survived

    def test_naive_survives_by_touching_everything(self, skeleton):
        outcome = run_lemma62_adversary(
            NaiveAlgorithm(), MINIMUM, skeleton, k=3
        )
        assert outcome.survived
        assert outcome.untouched is None

    def test_b0_survives_because_max_is_not_strict(self, skeleton):
        """Remark 6.1's escape hatch, live: B0 reads only m*k objects,
        leaves almost everything untouched — yet promoting x0 to all-1s
        cannot invalidate its answer, because max already awards grade
        1 to the objects B0 returned (non-strictness)."""
        outcome = run_lemma62_adversary(
            DisjunctionB0(), MAXIMUM, skeleton, k=3
        )
        assert outcome.survived
        # And it genuinely under-read:
        assert outcome.answer.stats.sum_cost < skeleton.num_objects

    def test_a0_survives_across_depths(self, skeleton):
        for depth in (1, 3, 10):
            outcome = run_lemma62_adversary(
                FaginA0(), MINIMUM, skeleton, k=3, prefix_depth=depth
            )
            assert outcome.survived, f"depth {depth}"


class TestOutcomeShape:
    def test_outcome_fields(self, skeleton):
        outcome = run_lemma62_adversary(
            UnderReadingAlgorithm(), MINIMUM, skeleton, k=2
        )
        assert outcome.database.num_objects == 60
        assert outcome.answer.k == 2
        assert outcome.survived == (not outcome.fooled)
