"""Tests for algorithm A0 (Fagin's Algorithm) — Theorem 4.2 territory."""

import pytest

from repro.algorithms.base import is_valid_top_k
from repro.algorithms.fa import FaginA0, IncrementalFagin, run_sorted_phase
from repro.algorithms.naive import NaiveAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN, GEOMETRIC_MEAN
from repro.core.tnorms import ALGEBRAIC_PRODUCT, BOUNDED_DIFFERENCE, MINIMUM
from repro.exceptions import InsufficientObjectsError
from repro.workloads.skeletons import independent_database


class TestSortedPhase:
    def test_waits_for_k_matches(self, tiny_db):
        session = tiny_db.session()
        state = run_sorted_phase(session, 2)
        assert len(state.matched) >= 2
        # Uniform depth: both lists advanced equally.
        lens = {len(order) for order in state.order_by_list}
        assert len(lens) == 1
        assert state.depth == lens.pop()

    def test_match_depth_agrees_with_skeleton(self, db2):
        session = db2.session()
        state = run_sorted_phase(session, 5)
        assert state.depth == db2.skeleton().match_depth(5)

    def test_grades_recorded_per_list(self, tiny_db):
        session = tiny_db.session()
        state = run_sorted_phase(session, 1)
        for obj in state.matched:
            known_in = {i for i, grades in enumerate(state.grades) if obj in grades}
            assert known_in == {0, 1}
            assert state.deliveries[obj] == 2

    def test_exhaustion_when_k_equals_n(self, tiny_db):
        session = tiny_db.session()
        state = run_sorted_phase(session, 5)
        assert len(state.matched) == 5
        assert state.depth == 5


class TestCorrectness:
    def test_tiny_known_answers(self, tiny_db):
        result = FaginA0().top_k(tiny_db.session(), MINIMUM, 2)
        assert result.objects() == ("b", "a")

    @pytest.mark.parametrize(
        "aggregation",
        [MINIMUM, ALGEBRAIC_PRODUCT, BOUNDED_DIFFERENCE, ARITHMETIC_MEAN,
         GEOMETRIC_MEAN],
        ids=lambda a: a.name,
    )
    def test_matches_naive_for_monotone_aggregations(self, db2, aggregation):
        """Theorem 4.2: A0 is correct for every monotone query."""
        truth = db2.overall_grades(aggregation)
        result = FaginA0().top_k(db2.session(), aggregation, 10)
        assert is_valid_top_k(result.items, truth, 10)

    def test_three_lists(self, db3):
        truth = db3.overall_grades(MINIMUM)
        result = FaginA0().top_k(db3.session(), MINIMUM, 7)
        assert is_valid_top_k(result.items, truth, 7)

    def test_k_equals_n(self, tiny_db):
        result = FaginA0().top_k(tiny_db.session(), MINIMUM, 5)
        assert is_valid_top_k(
            result.items, tiny_db.overall_grades(MINIMUM), 5
        )

    def test_rejects_declared_non_monotone(self, tiny_db):
        bad = FunctionAggregation(
            lambda *g: 1.0 - min(g), "anti-min", monotone=False
        )
        with pytest.raises(ValueError, match="monotone"):
            FaginA0().top_k(tiny_db.session(), bad, 1)

    def test_trust_caller_override(self, tiny_db):
        """trust_caller lets a caller run a misdeclared aggregation."""
        secretly_fine = FunctionAggregation(
            lambda *g: min(g), "min-undeclared", monotone=False
        )
        result = FaginA0(trust_caller=True).top_k(
            tiny_db.session(), secretly_fine, 2
        )
        assert result.objects() == ("b", "a")


class TestCost:
    def test_sublinear_on_independent_lists(self):
        """The headline: ~2*sqrt(N*k) total vs naive's 2*N (m = 2)."""
        db = independent_database(2, 2000, seed=42)
        a0 = FaginA0().top_k(db.session(), MINIMUM, 10)
        naive = NaiveAlgorithm().top_k(db.session(), MINIMUM, 10)
        assert a0.stats.sum_cost < naive.stats.sum_cost / 3

    def test_sorted_cost_is_m_times_depth(self, db2):
        result = FaginA0().top_k(db2.session(), MINIMUM, 5)
        assert result.stats.sorted_cost == 2 * result.details["T"]

    def test_no_duplicate_random_accesses(self, db2):
        """Objects seen in list j by sorted access are not re-fetched."""
        result = FaginA0().top_k(db2.session(), MINIMUM, 5)
        seen = result.details["seen"]
        sorted_cost = result.stats.sorted_cost
        # Every random access fills a genuinely missing grade:
        # R = m * seen - (grades already known from sorted access).
        assert result.stats.random_cost == 2 * seen - sorted_cost

    def test_details_present(self, db2):
        result = FaginA0().top_k(db2.session(), MINIMUM, 3)
        assert result.details["matches"] >= 3
        assert result.details["T"] >= 1
        assert result.details["seen"] >= result.details["matches"]


class TestIncremental:
    def test_next_batches_concatenate_to_full_ranking(self, db2):
        inc = IncrementalFagin(db2.session(), MINIMUM)
        batches = [inc.next_batch(10) for _ in range(3)]
        combined = [it for batch in batches for it in batch.items]
        truth = db2.true_top_k(MINIMUM, 30)
        # Grades must agree position by position (objects may differ
        # only under ties).
        assert [it.grade for it in combined] == pytest.approx(
            [it.grade for it in truth]
        )

    def test_deep_paging_stays_exact(self):
        """Regression: a resumed sorted phase must not count an object
        random-filled by an earlier batch as matched on its first
        sorted delivery. That premature match stopped the phase early
        and broke the exact-prefix guarantee — but only at N large
        enough that pages keep extending the sorted phase."""
        from repro.workloads.skeletons import independent_database

        db = independent_database(3, 10_000, seed=42)
        truth = db.true_top_k(MINIMUM, 80)
        inc = IncrementalFagin(db.session(), MINIMUM)
        combined = []
        for _ in range(8):
            combined.extend(inc.next_batch(10).items)
        assert [it.grade for it in combined] == [it.grade for it in truth]

    def test_remaining_upper_equals_its_rescanned_definition(self):
        """remaining_upper() keeps the best unreturned seen grade as
        pages are cut. On every page of a 30-page trail it equals the
        bound rescanned from scratch: the larger of the best seen but
        unreturned grade and the unseen bound t(b_1..b_m), capped by
        the last returned grade."""
        from repro.workloads.skeletons import independent_database

        db = independent_database(3, 2_000, seed=1)
        overall = db.overall_grades(MINIMUM).as_dict()
        rankings = [db.ranking(i) for i in range(db.num_lists)]
        inc = IncrementalFagin(db.session(), MINIMUM)
        for _ in range(30):
            page = inc.next_batch(10)
            depth = page.details["T"]
            seen = {it.obj for ranking in rankings for it in ranking[:depth]}
            best_seen = max(
                (overall[obj] for obj in seen - set(inc.returned)),
                default=0.0,
            )
            rescanned = min(
                max(best_seen, inc.unseen_upper()), page.items[-1].grade
            )
            assert inc.remaining_upper() == rescanned

    def test_batches_do_not_repeat_objects(self, db2):
        inc = IncrementalFagin(db2.session(), MINIMUM)
        first = inc.next_batch(8)
        second = inc.next_batch(8)
        assert not set(first.objects()) & set(second.objects())

    def test_continuation_is_cheaper_than_restart(self, db2):
        """'Continue where we left off' reuses prior sorted progress."""
        inc = IncrementalFagin(db2.session(), MINIMUM)
        inc.next_batch(10)
        continuation = inc.next_batch(10)

        fresh = FaginA0().top_k(db2.session(), MINIMUM, 20)
        assert continuation.stats.sum_cost < fresh.stats.sum_cost

    def test_returned_tracking(self, db2):
        inc = IncrementalFagin(db2.session(), MINIMUM)
        batch = inc.next_batch(4)
        assert inc.returned == batch.objects()

    def test_exhausting_the_database(self, tiny_db):
        inc = IncrementalFagin(tiny_db.session(), MINIMUM)
        inc.next_batch(3)
        inc.next_batch(2)
        with pytest.raises(InsufficientObjectsError):
            inc.next_batch(1)

    def test_k_validation(self, tiny_db):
        inc = IncrementalFagin(tiny_db.session(), MINIMUM)
        with pytest.raises(ValueError):
            inc.next_batch(0)

    def test_requires_monotone(self, tiny_db):
        bad = FunctionAggregation(lambda *g: 0.5, "flat", monotone=False)
        with pytest.raises(ValueError):
            IncrementalFagin(tiny_db.session(), bad)
