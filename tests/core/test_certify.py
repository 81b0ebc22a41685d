"""Tests for ε, stopping rules and certified results (core/certify.py)."""

import math

import numpy as np
import pytest

from repro.core.certify import (
    EXACT_GUARANTEE,
    CertifiedResult,
    GradeBounds,
    Guarantee,
    StoppingRule,
    validate_epsilon,
)


class TestValidateEpsilon:
    def test_accepts_zero_and_positive(self):
        assert validate_epsilon(0) == 0.0
        assert validate_epsilon(0.25) == 0.25

    def test_normalises_to_float(self):
        value = validate_epsilon(1)
        assert isinstance(value, float) and value == 1.0

    @pytest.mark.parametrize(
        "scalar", [np.float64(0.25), np.float32(0.25), np.int64(0)]
    )
    def test_accepts_numpy_scalars(self, scalar):
        value = validate_epsilon(scalar)
        assert type(value) is float and value == float(scalar)

    @pytest.mark.parametrize(
        "bad",
        [
            -0.1,
            float("nan"),
            float("inf"),
            "x",
            "0.1",
            None,
            True,
            False,
            pytest.param(10**400, id="int-past-float-range"),
            pytest.param(-(10**400), id="negative-int-past-float-range"),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            validate_epsilon(bad)


class TestStoppingRule:
    def test_default_is_exact(self):
        rule = StoppingRule()
        assert rule.exact and rule.epsilon == 0.0
        assert rule.guarantee() is EXACT_GUARANTEE

    def test_relaxed_rule_carries_epsilon(self):
        rule = StoppingRule(0.1)
        assert not rule.exact
        assert rule.epsilon == 0.1
        assert rule.limit(1.0) == pytest.approx(1.1)
        guarantee = rule.guarantee()
        assert guarantee.kind == "approximate" and guarantee.epsilon == 0.1
        assert guarantee.threshold is None

    def test_exact_met_is_verbatim_comparison(self):
        rule = StoppingRule(0.0)
        assert rule.exact
        assert rule.met(0.5, 0.5)
        assert not rule.met(0.5, 0.5000001)

    def test_relaxed_met_stops_early(self):
        rule = StoppingRule(0.1)
        # (1.1)(0.5) = 0.55 >= 0.54: an exact rule would keep going.
        assert rule.met(0.5, 0.54)
        assert not StoppingRule(0.0).met(0.5, 0.54)

    def test_nra_viability_is_the_negation_of_met(self):
        # NRA keeps a candidate alive while ``upper > limit(kth)``; TA
        # stops on ``met(kth, upper)``. They must be one bar: a bound is
        # still viable exactly when ``met`` fails, at the bar itself too.
        for eps in (0.0, 0.05, 0.3):
            rule = StoppingRule(eps)
            for kth, upper in [(0.5, 0.52), (0.5, 0.5), (0.4, 0.9)]:
                for bound in (upper, rule.limit(kth)):
                    assert (bound > rule.limit(kth)) == (
                        not rule.met(kth, bound)
                    )

    def test_limit_identity_at_zero(self):
        # Bit-identity: the exact branch must return the value verbatim,
        # not 1.0 * value.
        value = 0.1 + 0.2  # a float with representation noise
        assert StoppingRule(0.0).limit(value) is value

    def test_limit_scales(self):
        assert StoppingRule(0.5).limit(0.4) == pytest.approx(0.6)

    def test_fagin_match_count_stop_never_relaxes(self):
        # A0's stop observes match counts, never grades: under ε = 0.5
        # it reads exactly what the exact run reads, returns the same
        # answers and certifies them as exact.
        from repro.algorithms.fa import FaginA0
        from repro.core.means import ARITHMETIC_MEAN
        from repro.core.tnorms import MINIMUM
        from repro.workloads.skeletons import independent_database

        db = independent_database(3, 200, seed=5)
        for aggregation in (MINIMUM, ARITHMETIC_MEAN):
            for k in (1, 10):
                exact = FaginA0().top_k(db.session(), aggregation, k)
                relaxed = FaginA0().top_k(db.session(), aggregation, k, 0.5)
                assert relaxed.items == exact.items
                assert relaxed.stats == exact.stats
                assert relaxed.details == exact.details
                assert relaxed.guarantee is EXACT_GUARANTEE

    def test_guarantee_exact(self):
        assert StoppingRule(0.0).guarantee() is EXACT_GUARANTEE

    def test_guarantee_approximate_records_threshold(self):
        guarantee = StoppingRule(0.2).guarantee(0.7)
        assert guarantee.kind == "approximate"
        assert guarantee.epsilon == 0.2
        assert guarantee.threshold == 0.7


class TestGuarantee:
    def test_exact_flag(self):
        assert EXACT_GUARANTEE.is_exact
        assert not Guarantee("approximate", 0.1).is_exact

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Guarantee("vibes")

    def test_approximate_as_dict(self):
        assert StoppingRule(0.2).guarantee().as_dict() == {
            "kind": "approximate",
            "epsilon": 0.2,
        }

    def test_as_dict_omits_missing_threshold(self):
        assert Guarantee("exact").as_dict() == {"kind": "exact", "epsilon": 0.0}
        assert Guarantee("anytime", 0.0, 0.8).as_dict() == {
            "kind": "anytime",
            "epsilon": 0.0,
            "threshold": 0.8,
        }


class TestGradeBounds:
    def test_interval(self):
        bounds = GradeBounds(0.2, 0.6)
        assert bounds.width == pytest.approx(0.4)
        assert bounds.contains(0.2) and bounds.contains(0.6)
        assert not bounds.contains(0.7)
        assert not bounds.exact

    def test_degenerate_is_exact(self):
        assert GradeBounds(0.5, 0.5).exact

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            GradeBounds(0.6, 0.2)


class TestCertifiedResult:
    def test_shape(self):
        from repro.access.types import GradedItem

        items = (GradedItem("a", 0.9), GradedItem("b", 0.8))
        result = CertifiedResult(
            items=items,
            guarantee=Guarantee("anytime", 0.0, threshold=0.7),
            bounds={"a": GradeBounds(0.9, 0.9), "b": GradeBounds(0.8, 0.8)},
        )
        assert result.answers == 2
        payload = result.as_dict()
        assert payload["guarantee"]["threshold"] == 0.7
        assert payload["bounds"]["a"] == (0.9, 0.9)
        assert math.isclose(payload["items"][0]["grade"], 0.9)
