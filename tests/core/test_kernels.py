"""Property-based parity: vectorized kernels vs the scalar evaluate path.

The tentpole contract of the kernel layer: for every registered
aggregation, scoring a grade matrix through
``AggregationFunction.evaluate_columns`` must agree with calling the
scalar ``evaluate_trusted`` fold column by column — bit for bit for
every kernel (min, max, product, Łukasiewicz, the arithmetic,
weighted-arithmetic, geometric, weighted-geometric and harmonic means,
median, the [FW97] weighted conjunction over a kernelled t-norm). The
geometric family folds its products in numpy and takes each power with
libm's ``pow``, as the scalar fold does; numpy's vectorised pow would
differ in the last bit on a few percent of inputs.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.aggregation import (
    AggregationFunction,
    FunctionAggregation,
    VectorizedAggregation,
)
from repro.core.kernels import (
    evaluate_columns,
    kernel_for,
    register_kernel,
)
from repro.core.means import (
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    HARMONIC_MEAN,
    MEDIAN,
    WeightedArithmeticMean,
    WeightedGeometricMean,
)
from repro.core.tconorms import BOUNDED_SUM, MAXIMUM
from repro.core.tnorms import (
    ALGEBRAIC_PRODUCT,
    BOUNDED_DIFFERENCE,
    EINSTEIN_PRODUCT,
    MINIMUM,
)
from repro.core.weights import FaginWimmersWeighting

#: (aggregation, bit_exact) — bit_exact pins == parity.
KERNELED = [
    (MINIMUM, True),
    (MAXIMUM, True),
    (ALGEBRAIC_PRODUCT, True),
    (BOUNDED_DIFFERENCE, True),
    (BOUNDED_SUM, True),
    (ARITHMETIC_MEAN, True),
    (HARMONIC_MEAN, True),
    (MEDIAN, True),
    (GEOMETRIC_MEAN, True),
]

grades = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def matrices(min_m=1, max_m=5, min_n=1, max_n=40):
    """Strategy for m-by-n grade matrices as lists of rows."""
    return st.integers(min_m, max_m).flatmap(
        lambda m: st.integers(min_n, max_n).flatmap(
            lambda n: st.lists(
                st.lists(grades, min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def scalar_scores(aggregation, rows):
    evaluate = aggregation.evaluate_trusted
    n = len(rows[0])
    return [evaluate([row[j] for row in rows]) for j in range(n)]


@pytest.mark.parametrize(
    "aggregation,bit_exact", KERNELED, ids=lambda a: getattr(a, "name", str(a))
)
@given(rows=matrices())
# numpy's vectorised pow rounds this geometric mean one ulp away from
# libm's (…617 against …618).
@example(rows=[[0.8], [0.8], [0.9]])
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_fold(aggregation, bit_exact, rows):
    expected = scalar_scores(aggregation, rows)
    actual = aggregation.evaluate_columns(rows)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert isinstance(got, float)
        if bit_exact:
            assert got == want, (aggregation.name, got, want)
        else:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@given(
    rows=matrices(min_m=3, max_m=3),
    raw_weights=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=3,
        max_size=3,
    ).filter(lambda ws: sum(ws) > 0),
)
@settings(max_examples=60, deadline=None)
def test_weighted_kernels_match_scalar_fold(rows, raw_weights):
    arithmetic = WeightedArithmeticMean(raw_weights)
    expected = scalar_scores(arithmetic, rows)
    for got, want in zip(arithmetic.evaluate_columns(rows), expected):
        assert got == want

    geometric = WeightedGeometricMean(raw_weights)
    expected = scalar_scores(geometric, rows)
    for got, want in zip(geometric.evaluate_columns(rows), expected):
        assert got == want


#: A grade is crisp, rounded to 0.1, or anywhere in [0, 1].
fw97_grades = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(0, 10).map(lambda tenths: round(tenths / 10, 1)),
    grades,
)
#: Zero and tied weights are drawn often; an all-zero list is rejected.
fw97_weights = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), grades)


@st.composite
def fw97_cases(draw):
    m = draw(st.integers(1, 5))
    weights = draw(
        st.lists(fw97_weights, min_size=m, max_size=m).filter(
            lambda ws: sum(ws) > 0
        )
    )
    n = draw(st.integers(1, 12))
    rows = draw(
        st.lists(
            st.lists(fw97_grades, min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return weights, rows


@pytest.mark.parametrize(
    "base",
    [MINIMUM, ALGEBRAIC_PRODUCT, BOUNDED_DIFFERENCE],
    ids=lambda b: b.name,
)
@given(case=fw97_cases())
# These weights' terms sum to 1.0000000000000002: the all-ones column
# pins the clip the kernel's callers apply, as __call__ clamps.
@example(case=([0.26667928463625334, 2.0], [[1.0, 0.5], [1.0, 1.0]]))
@settings(max_examples=80, deadline=None)
def test_fagin_wimmers_kernel_matches_scalar_bit_for_bit(base, case):
    weights, rows = case
    weighting = FaginWimmersWeighting(base, weights)
    columns = [[row[j] for row in rows] for j in range(len(rows[0]))]
    trusted = [weighting.evaluate_trusted(column) for column in columns]
    assert trusted == [weighting(*column) for column in columns]
    assert weighting.evaluate_columns(rows) == trusted
    assert kernel_for(weighting) is not None
    matrix = kernels.as_grade_matrix(rows)
    assert kernels.evaluate_matrix(weighting, matrix).tolist() == trusted


def test_fagin_wimmers_over_a_kernelless_tnorm_has_no_kernel():
    weighting = FaginWimmersWeighting(EINSTEIN_PRODUCT, [2, 1])
    assert kernel_for(weighting) is None
    rows = [[0.1, 0.5, 0.99], [0.7, 0.5, 0.98]]
    assert weighting.evaluate_columns(rows) == scalar_scores(weighting, rows)


def test_standard_aggregations_have_kernels():
    for aggregation, _ in KERNELED:
        assert kernel_for(aggregation) is not None, aggregation.name


def test_unregistered_aggregation_falls_back_to_scalar():
    """An aggregation without a kernel gets the scalar fold — and a
    subclass never inherits its parent's kernel (exact-type lookup)."""

    class ConstantMean(type(ARITHMETIC_MEAN)):
        def aggregate(self, grades):
            return 0.5  # deliberately NOT the mean

    constant = ConstantMean()
    assert kernel_for(constant) is None
    assert constant.evaluate_columns([[0.1, 0.9], [0.2, 0.3]]) == [0.5, 0.5]


def test_einstein_product_has_no_kernel_but_bulk_path_agrees():
    rows = [[0.1, 0.5, 0.99], [0.7, 0.5, 0.98]]
    assert kernel_for(EINSTEIN_PRODUCT) is None
    assert EINSTEIN_PRODUCT.evaluate_columns(rows) == scalar_scores(
        EINSTEIN_PRODUCT, rows
    )


def test_vectorized_aggregation_capability_wins_over_registry():
    import numpy as np

    class DoubledMin(VectorizedAggregation, AggregationFunction):
        name = "doubled-min"

        def aggregate(self, grades):
            return min(1.0, 2.0 * min(grades))

        def aggregate_columns(self, matrix):
            return 2.0 * np.minimum.reduce(matrix, axis=0)

    agg = DoubledMin()
    kernel = kernel_for(agg)
    assert kernel is not None
    rows = [[0.1, 0.6, 0.9], [0.2, 0.4, 0.8]]
    assert agg.evaluate_columns(rows) == scalar_scores(agg, rows)


def test_register_kernel_is_consulted_for_exact_type():
    class Halver(AggregationFunction):
        name = "halver"

        def aggregate(self, grades):
            return grades[0] / 2.0

    register_kernel(Halver, lambda agg: (lambda matrix: matrix[0] / 2.0))
    assert kernel_for(Halver()) is not None
    rows = [[0.2, 0.8]]
    assert Halver().evaluate_columns(rows) == [0.1, 0.4]


def test_evaluate_columns_helper_handles_fallback():
    # Direct use of the module-level helper, scalar route.
    rows = [[0.3, 0.9], [0.5, 0.1]]
    scores = evaluate_columns(EINSTEIN_PRODUCT, rows, 2)
    assert scores == scalar_scores(EINSTEIN_PRODUCT, rows)


def test_kernelless_aggregation_builds_no_grade_matrix(monkeypatch):
    """A kernel-less aggregation goes straight to the scalar fold: the
    (m, n) grade matrix is built only for a kernel to consume."""

    def no_matrix(rows):
        raise AssertionError("grade matrix built for a kernel-less aggregation")

    monkeypatch.setattr(kernels, "as_grade_matrix", no_matrix)
    spread = FunctionAggregation(lambda *gs: max(gs) - min(gs), "spread")
    rows = [[0.3, 0.9, 0.5], [0.5, 0.1, 0.5]]
    assert kernel_for(spread) is None
    expected = scalar_scores(spread, rows)
    assert spread.evaluate_columns(rows) == expected
    assert evaluate_columns(spread, rows, 3) == expected
