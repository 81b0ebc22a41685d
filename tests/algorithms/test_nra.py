"""Tests for the No-Random-Access algorithm (extension)."""

import pytest

from repro.access.session import MiddlewareSession
from repro.access.source import MaterializedSource, StreamOnlySource
from repro.algorithms.base import is_valid_top_k
from repro.algorithms.fa import FaginA0
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.exceptions import SubsystemCapabilityError
from repro.workloads.skeletons import independent_database


class TestCorrectness:
    def test_tiny_known_answers(self, tiny_db):
        result = NoRandomAccessAlgorithm().top_k(tiny_db.session(), MINIMUM, 2)
        assert result.objects() == ("b", "a")

    @pytest.mark.parametrize(
        "aggregation",
        [MINIMUM, ALGEBRAIC_PRODUCT, ARITHMETIC_MEAN],
        ids=lambda a: a.name,
    )
    def test_matches_ground_truth(self, db2, aggregation):
        truth = db2.overall_grades(aggregation)
        result = NoRandomAccessAlgorithm().top_k(db2.session(), aggregation, 10)
        assert is_valid_top_k(result.items, truth, 10)

    def test_three_lists(self, db3):
        truth = db3.overall_grades(MINIMUM)
        result = NoRandomAccessAlgorithm().top_k(db3.session(), MINIMUM, 6)
        assert is_valid_top_k(result.items, truth, 6)

    def test_many_seeds(self):
        for seed in range(20):
            db = independent_database(2, 70, seed=seed)
            truth = db.overall_grades(MINIMUM)
            result = NoRandomAccessAlgorithm().top_k(db.session(), MINIMUM, 5)
            assert is_valid_top_k(result.items, truth, 5), f"seed {seed}"

    def test_k_equals_n(self, tiny_db):
        result = NoRandomAccessAlgorithm().top_k(tiny_db.session(), MINIMUM, 5)
        assert is_valid_top_k(
            result.items, tiny_db.overall_grades(MINIMUM), 5
        )

    def test_rejects_non_monotone(self, tiny_db):
        bad = FunctionAggregation(lambda *g: 0.5, "flat", monotone=False)
        with pytest.raises(ValueError, match="monotone"):
            NoRandomAccessAlgorithm().top_k(tiny_db.session(), bad, 1)


class TestSortedOnlyContract:
    def test_zero_random_accesses(self, db2):
        result = NoRandomAccessAlgorithm().top_k(db2.session(), MINIMUM, 10)
        assert result.stats.random_cost == 0

    def test_runs_on_stream_only_sources(self, db2):
        """The whole point: works where random access raises."""
        raw = [
            StreamOnlySource(MaterializedSource(f"l{i}", db2.ranking(i)))
            for i in range(db2.num_lists)
        ]
        session = MiddlewareSession.over_sources(
            raw, num_objects=db2.num_objects
        )
        truth = db2.overall_grades(MINIMUM)
        result = NoRandomAccessAlgorithm().top_k(session, MINIMUM, 5)
        assert is_valid_top_k(result.items, truth, 5)

    def test_fa_fails_on_stream_only_sources(self, db2):
        raw = [
            StreamOnlySource(MaterializedSource(f"l{i}", db2.ranking(i)))
            for i in range(db2.num_lists)
        ]
        session = MiddlewareSession.over_sources(
            raw, num_objects=db2.num_objects
        )
        with pytest.raises(SubsystemCapabilityError):
            FaginA0().top_k(session, MINIMUM, 5)


class TestCostShape:
    def test_deeper_sorted_phase_than_fa(self, db2):
        """NRA must certify upper bounds, so it reads deeper than A0."""
        nra = NoRandomAccessAlgorithm().top_k(db2.session(), MINIMUM, 10)
        fa = FaginA0().top_k(db2.session(), MINIMUM, 10)
        assert nra.stats.max_sorted_depth() >= fa.details["T"]

    def test_often_cheaper_in_total_unweighted_cost(self):
        """Skipping the random phase usually wins at c1 = c2."""
        wins = 0
        for seed in range(10):
            db = independent_database(2, 800, seed=seed)
            nra = NoRandomAccessAlgorithm().top_k(db.session(), MINIMUM, 10)
            fa = FaginA0().top_k(db.session(), MINIMUM, 10)
            wins += nra.stats.sum_cost < fa.stats.sum_cost
        assert wins >= 7

    def test_details(self, db2):
        result = NoRandomAccessAlgorithm().top_k(db2.session(), MINIMUM, 5)
        assert result.details["exact"] >= 5
        assert result.details["seen"] >= result.details["exact"]
        assert result.details["rounds"] == result.stats.max_sorted_depth()

    def test_exhaustion_round_not_counted(self):
        """Regression: the final empty exchange (every list exhausted)
        performs no sorted accesses and must not inflate ``rounds`` —
        the twin of TA's test of the same name. The session claims more
        objects than the lists deliver, so certification never runs and
        the run ends on an exchange that delivers nothing."""
        n = 12
        grades = {i: (n - i) / (n + 1) for i in range(n)}
        session = MiddlewareSession.over_sources(
            [
                MaterializedSource("l0", dict(grades)),
                MaterializedSource("l1", dict(grades)),
            ],
            num_objects=n + 5,
        )
        result = NoRandomAccessAlgorithm().top_k(session, MINIMUM, n + 3)
        assert result.details["rounds"] == n
        assert result.stats.max_sorted_depth() == n
        assert result.details["seen"] == n
        assert result.details["exact"] == n
        assert len(result.items) == n

    def test_exhaustion_fallback(self):
        """Bound never certifies early on a 2-object database: still
        correct after exhausting the lists."""
        from repro.access.scoring_database import ScoringDatabase

        db = ScoringDatabase(
            [{"a": 0.9, "b": 0.8}, {"a": 0.8, "b": 0.9}]
        )
        truth = db.overall_grades(MINIMUM)
        result = NoRandomAccessAlgorithm().top_k(db.session(), MINIMUM, 2)
        assert is_valid_top_k(result.items, truth, 2)


class TestLatchedUnseenBound:
    def test_objects_first_seen_after_the_latch_reach_no_sweep(
        self, monkeypatch
    ):
        """Once t(b_1..b_m) is at or below the bar, an object first
        delivered later has a bottom as its only known grade, so its
        upper bound is at most the latched bound: it is certified at
        birth and no certification sweep receives it."""
        sweep = NoRandomAccessAlgorithm._certify_vectorized
        calls = []

        def spy(aggregation, grades_by_list, exact, bottoms, candidates,
                start, limit):
            seen = set().union(*grades_by_list)
            calls.append((seen, list(candidates[start:])))
            return sweep(
                aggregation, grades_by_list, exact, bottoms, candidates,
                start, limit,
            )

        monkeypatch.setattr(
            NoRandomAccessAlgorithm, "_certify_vectorized", staticmethod(spy)
        )
        db = independent_database(3, 200, seed=1)
        result = NoRandomAccessAlgorithm().top_k(
            db.session(), ALGEBRAIC_PRODUCT, 5
        )
        truth = db.overall_grades(ALGEBRAIC_PRODUCT)
        assert is_valid_top_k(result.items, truth, 5)
        # The first sweep runs in the round the latch passes.
        seen_at_latch = calls[0][0]
        assert len(calls) > 1 and result.details["seen"] > len(seen_at_latch)
        for _, swept in calls[1:]:
            assert set(swept) <= seen_at_latch
