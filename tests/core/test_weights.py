"""Tests for the Fagin-Wimmers weighted-conjunction formula ([FW97])."""

import itertools

import pytest

from repro.core.properties import check_monotone, check_strict
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.core.weights import FaginWimmersWeighting

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


class TestNormalisation:
    def test_normalise(self):
        assert FaginWimmersWeighting.normalise([2, 2]) == (0.5, 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FaginWimmersWeighting.normalise([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FaginWimmersWeighting.normalise([1, -0.5])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            FaginWimmersWeighting.normalise([0, 0])


class TestFormulaIdentities:
    def test_equal_weights_recover_base(self):
        """With theta_i = 1/m the formula collapses to t itself."""
        w = FaginWimmersWeighting(MINIMUM, [1, 1, 1])
        for gs in itertools.product(GRID, repeat=3):
            assert w(*gs) == pytest.approx(MINIMUM(*gs))

    def test_full_weight_on_one_conjunct_projects(self):
        """theta = (1, 0): the query degenerates to its first conjunct."""
        w = FaginWimmersWeighting(MINIMUM, [1, 0])
        for a, b in itertools.product(GRID, repeat=2):
            assert w(a, b) == pytest.approx(a)

    def test_two_conjunct_closed_form(self):
        """For m=2, theta1 >= theta2: f = (th1-th2)*x1 + 2*th2*min."""
        w = FaginWimmersWeighting(MINIMUM, [2, 1])  # thetas 2/3, 1/3
        for a, b in itertools.product(GRID, repeat=2):
            expected = (2 / 3 - 1 / 3) * a + 2 * (1 / 3) * min(a, b)
            assert w(a, b) == pytest.approx(expected)

    def test_color_twice_shape_example(self):
        """The paper's example: 'color is twice as important as shape'."""
        w = FaginWimmersWeighting(MINIMUM, [2, 1])
        # A perfect colour match with a weak shape match beats the reverse.
        assert w(1.0, 0.2) > w(0.2, 1.0)

    def test_weight_order_follows_arguments(self):
        w = FaginWimmersWeighting(MINIMUM, [1, 3])
        w_swapped = FaginWimmersWeighting(MINIMUM, [3, 1])
        assert w(0.9, 0.1) == pytest.approx(w_swapped(0.1, 0.9))

    def test_convex_combination_bounds(self):
        """f lies between min over prefixes and the top grade."""
        w = FaginWimmersWeighting(MINIMUM, [3, 2, 1])
        for gs in itertools.product(GRID, repeat=3):
            assert MINIMUM(*gs) - 1e-12 <= w(*gs) <= max(gs) + 1e-12


class TestProperties:
    def test_monotone(self):
        """[FW97]/Section 4: weighted conjunctions are monotone."""
        w = FaginWimmersWeighting(MINIMUM, [3, 1])
        assert check_monotone(w, 2)
        assert w.monotone

    def test_strict_with_positive_weights(self):
        w = FaginWimmersWeighting(MINIMUM, [3, 1])
        assert check_strict(w, 2)
        assert w.strict

    def test_not_strict_with_zero_weight(self):
        w = FaginWimmersWeighting(MINIMUM, [1, 0])
        assert not w.strict
        assert w(1.0, 0.5) == 1.0

    def test_works_with_other_tnorms(self):
        w = FaginWimmersWeighting(ALGEBRAIC_PRODUCT, [2, 1])
        assert check_monotone(w, 2)
        # equal weights sanity under product
        eq = FaginWimmersWeighting(ALGEBRAIC_PRODUCT, [1, 1])
        assert eq(0.5, 0.4) == pytest.approx(0.2)

    def test_rejects_fixed_arity_base(self):
        from repro.core.means import GymnasticsTrimmedMean

        with pytest.raises(ValueError, match="arity"):
            FaginWimmersWeighting(GymnasticsTrimmedMean(3), [1, 1, 1])

    def test_name_mentions_base_and_weights(self):
        w = FaginWimmersWeighting(MINIMUM, [2, 1])
        assert "min" in w.name


def textbook_fw97(base, weights, grades):
    """The formula as [FW97] states it, re-derived on every call: sort
    the (weight, grade) pairs by descending weight, then add
    i * (theta_i - theta_{i+1}) * t(x_1..x_i) over the non-zero
    coefficients."""
    ordered = sorted(zip(weights, grades), key=lambda wg: -wg[0])
    thetas = [w for w, _ in ordered] + [0.0]
    xs = [g for _, g in ordered]
    total = 0.0
    for i in range(1, len(xs) + 1):
        coeff = i * (thetas[i - 1] - thetas[i])
        if coeff == 0.0:
            continue
        total += coeff * base(*xs[:i])
    return min(1.0, max(0.0, total))


class TestPrecomputedTerms:
    @pytest.mark.parametrize("base", [MINIMUM, ALGEBRAIC_PRODUCT])
    @pytest.mark.parametrize(
        "weights",
        [[2, 1], [1, 3], [1, 0], [1, 1, 1], [3, 1, 1], [1, 0, 2],
         [0.26667928463625334, 2], [0.7, 3, 3, 0.69]],
    )
    def test_fixed_order_and_terms_give_the_textbook_bits(self, base, weights):
        """The order and terms fixed in __init__ are the ones the
        per-call sort derives, so every grade matches to the bit."""
        w = FaginWimmersWeighting(base, weights)
        for gs in itertools.product(GRID + (0.1, 0.9), repeat=len(weights)):
            assert w(*gs) == textbook_fw97(base, w.weights, gs), gs

    def test_ties_keep_argument_order_and_zero_terms_drop(self):
        w = FaginWimmersWeighting(MINIMUM, [1, 2, 1, 0])
        assert w.order == (1, 0, 2, 3)
        assert [size for _, size in w.terms] == [1, 3]
