"""Engine-level ε-approximate contracts: steering, certification,
access savings, ε=0 bit-parity, and the metrics/explain surfaces."""

from __future__ import annotations

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.engine.context import ExecutionContext
from repro.workloads.skeletons import independent_database

N, M, K = 400, 3, 10

EPSILONS = [0.0, 0.01, 0.05, 0.1, 0.2, 0.5]


@pytest.fixture()
def db():
    return independent_database(M, N, seed=31)


def answers_of(result):
    return [(item.obj, item.grade) for item in result.items]


def ledger_of(result):
    return (
        tuple(result.stats.sorted_by_list),
        tuple(result.stats.random_by_list),
    )


class TestEpsilonZeroParity:
    def test_epsilon_zero_is_bit_identical(self, db):
        """epsilon(0) must not perturb answers, ledger, or routing."""
        plain = Engine.over(db).query(MINIMUM).top(K)
        zero = Engine.over(db).query(MINIMUM).epsilon(0.0).top(K)
        assert answers_of(zero) == answers_of(plain)
        assert ledger_of(zero) == ledger_of(plain)
        assert zero.algorithm == plain.algorithm

    def test_context_epsilon_zero_is_default(self, db):
        plain = Engine.over(db).query(MINIMUM).top(K)
        ctx = Engine.over(db, ExecutionContext(epsilon=0.0))
        assert answers_of(ctx.query(MINIMUM).top(K)) == answers_of(plain)

    def test_exact_guarantee_recorded(self, db):
        result = Engine.over(db).query(MINIMUM).top(K)
        assert result.guarantee is not None
        assert result.guarantee.kind == "exact"


class TestEpsilonSteering:
    def test_epsilon_steers_to_ta(self, db):
        """ε > 0 must route to TA: A0's match-count stop cannot
        convert the slack into early termination."""
        result = Engine.over(db).query(MINIMUM).epsilon(0.2).top(K)
        assert result.algorithm == "TA"

    def test_forced_strategy_wins_over_steering(self, db):
        result = (
            Engine.over(db)
            .query(MINIMUM)
            .strategy("fagin")
            .epsilon(0.2)
            .top(K)
        )
        # Forced A0 runs to exact completion and says so.
        assert result.algorithm == "A0"
        assert result.guarantee.kind == "exact"

    def test_context_epsilon_applies_engine_wide(self, db):
        engine = Engine.over(db, ExecutionContext(epsilon=0.2))
        result = engine.query(MINIMUM).top(K)
        assert result.algorithm == "TA"

    def test_builder_epsilon_overrides_context(self, db):
        engine = Engine.over(db, ExecutionContext(epsilon=0.5))
        result = engine.query(MINIMUM).epsilon(0.0).top(K)
        assert result.guarantee.kind == "exact"

    def test_invalid_epsilon_rejected(self, db):
        with pytest.raises(ValueError):
            Engine.over(db).query(MINIMUM).epsilon(-0.1)
        with pytest.raises(ValueError):
            ExecutionContext(epsilon=float("nan"))

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_epsilon_past_float_range_is_a_value_error(self, db, sign):
        # float(10**400) overflows; the builder must still say ValueError.
        with pytest.raises(ValueError, match="epsilon"):
            Engine.over(db).query(MINIMUM).epsilon(sign * 10**400)


class TestCertifiedApproximation:
    @pytest.mark.parametrize("aggregation", [MINIMUM, ARITHMETIC_MEAN])
    def test_certificate_against_true_answers(self, db, aggregation):
        """Every ε run's k-th grade is within (1+ε) of the true k-th:
        the θ-approximation statement checked against a full oracle."""
        truth = db.true_top_k(aggregation, K)
        true_kth = truth[-1].grade
        for epsilon in EPSILONS:
            result = (
                Engine.over(db).query(aggregation).epsilon(epsilon).top(K)
            )
            got_kth = result.items[-1].grade
            assert (1.0 + epsilon) * got_kth >= true_kth - 1e-12
            if epsilon == 0.0:
                assert answers_of(result) == [
                    (item.obj, item.grade) for item in truth
                ]

    def test_access_counts_monotone_in_epsilon(self, db):
        """More slack can only stop earlier (forced TA keeps the
        routing fixed so only the stopping rule varies)."""
        totals = []
        for epsilon in EPSILONS:
            result = (
                Engine.over(db)
                .query(MINIMUM)
                .strategy("threshold")
                .epsilon(epsilon)
                .top(K)
            )
            totals.append(result.stats.sum_cost)
        assert totals == sorted(totals, reverse=True)
        assert totals[-1] < totals[0]  # ε=0.5 genuinely saves accesses

    def test_approximate_guarantee_recorded(self, db):
        result = (
            Engine.over(db)
            .query(MINIMUM)
            .strategy("threshold")
            .epsilon(0.2)
            .top(K)
        )
        assert result.guarantee.kind == "approximate"
        assert result.guarantee.epsilon == 0.2
        assert result.guarantee.threshold is not None
        # The certificate the guarantee states: (1+ε)·g_k ≥ τ.
        assert 1.2 * result.items[-1].grade >= result.guarantee.threshold


class TestBatchAndMetrics:
    def test_run_many_respects_context_epsilon(self, db):
        engine = Engine.over(db, ExecutionContext(epsilon=0.3))
        batch = engine.run_many([MINIMUM, ARITHMETIC_MEAN], k=K)
        for answer in batch:
            assert answer.guarantee.kind in ("approximate", "exact")
        # At least the TA-steered members certify the relaxation.
        assert any(a.guarantee.kind == "approximate" for a in batch)

    def test_quality_counters_in_metrics(self, db):
        engine = Engine.over(db)
        engine.query(MINIMUM).top(K)
        engine.query(MINIMUM).epsilon(0.3).top(K)
        quality = engine.metrics_snapshot()["quality"]
        assert quality["exact"] == 1
        assert quality["approximate"] == 1

    def test_explain_names_the_guarantee(self, db):
        text = Engine.over(db).query(MINIMUM).epsilon(0.25).explain()
        assert "guarantee" in text
        assert "0.25" in text
        exact_text = Engine.over(db).query(MINIMUM).explain()
        assert "exact" in exact_text
