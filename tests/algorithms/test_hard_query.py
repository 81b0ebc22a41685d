"""Tests for the Section 7 hard query Q AND NOT Q."""

import random

import pytest

from repro.access.scoring_database import ScoringDatabase
from repro.access.session import MiddlewareSession
from repro.access.source import MaterializedSource
from repro.algorithms.base import is_valid_top_k
from repro.algorithms.fa import FaginA0
from repro.algorithms.hard_query import (
    SelfNegatedScan,
    hard_query_depth,
    self_negated_lists,
)
from repro.algorithms.naive import NaiveAlgorithm
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.workloads.correlated import hard_query_database


class TestConstruction:
    def test_lists_are_negations(self, rng):
        q, not_q = self_negated_lists(50, rng)
        for obj in q:
            assert not_q[obj] == pytest.approx(1.0 - q[obj])

    def test_grades_distinct_and_fully_fuzzy(self, rng):
        q, _ = self_negated_lists(100, rng)
        values = list(q.values())
        assert len(set(values)) == 100
        assert all(0.0 < g < 1.0 for g in values)

    def test_database_skeleton_is_reversed(self, rng):
        db = hard_query_database(30, rng)
        sk = db.skeleton()
        assert sk.permutations[1] == tuple(reversed(sk.permutations[0]))

    def test_peak_grade_at_most_half(self, rng):
        """Section 7: 1/2 is the maximal possible value of Q AND NOT Q."""
        db = hard_query_database(60, rng)
        overall = db.overall_grades(MINIMUM)
        assert max(g for _, g in overall) <= 0.5

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            self_negated_lists(0, rng)


class TestHardQueryDepth:
    @pytest.mark.parametrize(
        "n,k,expected", [(100, 1, 51), (10, 1, 6), (100, 10, 55), (7, 1, 4)]
    )
    def test_closed_form(self, n, k, expected):
        assert hard_query_depth(n, k) == expected

    def test_matches_actual_skeleton(self, rng):
        db = hard_query_database(40, rng)
        assert db.skeleton().match_depth(1) == hard_query_depth(40, 1)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            hard_query_depth(5, 6)


class TestLinearCost:
    def test_a0_degrades_to_linear(self, rng):
        """A0 is correct here but must read past N/2 of each list."""
        n = 200
        db = hard_query_database(n, rng)
        result = FaginA0().top_k(db.session(), MINIMUM, 1)
        assert result.details["T"] >= n // 2
        assert result.stats.sum_cost >= n  # Theorem 7.1's Omega(N)

    def test_a0_still_correct(self, rng):
        db = hard_query_database(150, rng)
        truth = db.overall_grades(MINIMUM)
        result = FaginA0().top_k(db.session(), MINIMUM, 3)
        assert is_valid_top_k(result.items, truth, 3)

    def test_naive_cost_is_2n(self, rng):
        db = hard_query_database(100, rng)
        result = NaiveAlgorithm().top_k(db.session(), MINIMUM, 1)
        assert result.stats.sum_cost == 200


class TestSelfNegatedScan:
    def test_finds_the_peak(self, rng):
        db = hard_query_database(120, rng)
        truth = db.overall_grades(MINIMUM)
        result = SelfNegatedScan().top_k(db.session(), MINIMUM, 1)
        assert is_valid_top_k(result.items, truth, 1)

    def test_costs_exactly_n(self, rng):
        n = 80
        db = hard_query_database(n, rng)
        result = SelfNegatedScan().top_k(db.session(), MINIMUM, 1)
        assert result.stats.sorted_cost == n
        assert result.stats.random_cost == 0

    def test_top_k(self, rng):
        db = hard_query_database(90, rng)
        truth = db.overall_grades(MINIMUM)
        result = SelfNegatedScan().top_k(db.session(), MINIMUM, 5)
        assert is_valid_top_k(result.items, truth, 5)

    def test_verification_passes_on_honest_database(self, rng):
        db = hard_query_database(50, rng)
        result = SelfNegatedScan(verify=True).top_k(db.session(), MINIMUM, 2)
        assert result.k == 2

    def test_verification_catches_dishonest_database(self, rng):
        """List 2 is NOT the negation: the contract check must fire."""
        q, _ = self_negated_lists(30, rng)
        shuffled = dict(zip(q, random.Random(3).sample(list(q.values()), 30)))
        db = ScoringDatabase([q, shuffled])
        with pytest.raises(ValueError, match="negation"):
            SelfNegatedScan(verify=True).top_k(db.session(), MINIMUM, 1)

    def test_requires_min(self, rng):
        db = hard_query_database(30, rng)
        with pytest.raises(ValueError, match="min"):
            SelfNegatedScan().top_k(db.session(), ALGEBRAIC_PRODUCT, 1)

    def test_requires_two_lists(self, db3):
        with pytest.raises(ValueError, match="two lists"):
            SelfNegatedScan().top_k(db3.session(), MINIMUM, 1)

    def test_short_pages_still_scan_and_charge_n(self, rng):
        """A source paging over a wire may ship short batches before it
        runs out; the scan reads on until a batch comes back empty."""

        class ShortPages(MaterializedSource):
            def sorted_access_batch(self, count):
                return super().sorted_access_batch(min(count, 7))

        n = 60
        q, not_q = self_negated_lists(n, rng)
        paged = MiddlewareSession.over_sources(
            [ShortPages("Q", q), ShortPages("NOT Q", not_q)]
        )
        result = SelfNegatedScan().top_k(paged, MINIMUM, 3)
        assert result.stats.sorted_by_list == (n, 0)
        assert result.stats.random_cost == 0
        assert result.details["scanned"] == n
        whole = ScoringDatabase([q, not_q]).session()
        assert result.items == SelfNegatedScan().top_k(whole, MINIMUM, 3).items
