"""Vectorized aggregation kernels: the bulk computation phase.

The paper's cost model counts *accesses* (Section 5's c1*S + c2*R);
the computation phase — "Compute the grade mu_Q(x) = t(mu_A1(x), ...,
mu_Am(x)) for each object x that has been seen" (Section 4) — is free
in that model but very much not free on a real machine: evaluating an
aggregation one Python call per object dominates wall-clock once the
access layer is batched. This module evaluates the standard
aggregations over a whole *grade matrix* at once — one (m, N') float64
array in, one length-N' score vector out — with numpy doing the per-
object arithmetic in C.

Design constraints:

* **Access semantics untouched.** Kernels only ever see grades an
  algorithm already fetched through the instrumented sources; nothing
  here touches a source, so the Section 5 accounting is unchanged by
  construction.
* **Bit-for-bit parity.** Each kernel mirrors the exact operation
  order of its scalar counterpart — reductions over the list axis are
  sequential left-folds (numpy's ``reduce`` over axis 0 applies rows
  in order), so every kernel reproduces the scalar ``evaluate`` path
  to the last bit. The geometric-mean family folds its products in
  numpy but takes each power with libm's ``pow`` per element, the
  call the scalar ``aggregate`` makes through Python's float ``**``:
  numpy's vectorised ``pow`` differs from it in the last bit on a few
  percent of inputs, and an object's grade must not depend on which
  path scored it (TA switches to the kernel by batch size; shards and
  ``true_top_k`` score in bulk).
* **Scalar fold for kernel-less aggregations.** Without a registered
  kernel, :func:`evaluate_columns` falls back to the scalar
  ``evaluate_trusted`` fold — same answers, and the reference every
  kernel is tested against.

Kernels are looked up by *exact* aggregation type (a subclass that
overrides ``aggregate`` must not inherit a kernel that no longer
matches it); instances of
:class:`~repro.core.aggregation.VectorizedAggregation` supply their
own ``aggregate_columns`` and win over the registry.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.aggregation import AggregationFunction

__all__ = [
    "Kernel",
    "register_kernel",
    "kernel_for",
    "as_grade_matrix",
    "evaluate_matrix",
    "evaluate_columns",
]

#: A kernel maps an (m, n) grade matrix to a length-n score vector.
Kernel = Callable[["np.ndarray"], "np.ndarray"]

#: Exact-type registry: aggregation class -> kernel factory. A factory
#: receives the aggregation *instance* (weighted kernels close over its
#: weights) and returns a kernel, or None to decline.
_FACTORIES: dict[type, Callable[["AggregationFunction"], Kernel | None]] = {}


def register_kernel(
    aggregation_type: type,
    factory: Callable[["AggregationFunction"], Kernel | None],
) -> None:
    """Register a kernel factory for an exact aggregation class.

    Lookup is by ``type(aggregation)`` — deliberately *not* the MRO —
    so a subclass that redefines ``aggregate`` never silently inherits
    a kernel computing the parent's formula. Re-registration replaces
    the entry (module reloads stay safe).
    """
    _FACTORIES[aggregation_type] = factory


def kernel_for(aggregation: "AggregationFunction") -> Kernel | None:
    """The bulk kernel for ``aggregation``, or None (scalar fallback).

    Checks, in order: the
    :class:`~repro.core.aggregation.VectorizedAggregation` capability
    (an instance-supplied kernel), then the exact-type registry.
    """
    aggregate_columns = getattr(aggregation, "aggregate_columns", None)
    if aggregate_columns is not None:
        return aggregate_columns
    factory = _FACTORIES.get(type(aggregation))
    if factory is None:
        return None
    return factory(aggregation)


def as_grade_matrix(rows: Sequence[Sequence[float]]) -> "np.ndarray":
    """Stack m per-list grade rows into an (m, n) float64 matrix."""
    return _np.asarray(rows, dtype=_np.float64)


def evaluate_matrix(
    aggregation: "AggregationFunction", matrix: "np.ndarray"
) -> "np.ndarray | None":
    """Kernel-evaluate every column of ``matrix``, or None if no kernel.

    The result is clipped into the grade domain exactly as the scalar
    path's ``clamp_grade`` does (a no-op for in-range values, so parity
    is preserved bit for bit where the kernel itself is exact).
    """
    kernel = kernel_for(aggregation)
    if kernel is None:
        return None
    return _np.clip(kernel(matrix), 0.0, 1.0)


def evaluate_columns(
    aggregation: "AggregationFunction",
    rows: Sequence[Sequence[float]],
    num_columns: int,
) -> list[float]:
    """Scores for ``num_columns`` objects from m per-list grade rows.

    The bulk entry point algorithms use for their computation phase:
    kernel path when available, otherwise the same scalar
    ``evaluate_trusted`` fold the pre-vectorization code ran. The grade
    matrix is built only once a kernel is found to consume it. Always
    returns plain Python floats.
    """
    kernel = kernel_for(aggregation)
    if kernel is not None:
        return _np.clip(kernel(as_grade_matrix(rows)), 0.0, 1.0).tolist()
    evaluate = aggregation.evaluate_trusted
    return [
        evaluate([row[j] for row in rows]) for j in range(num_columns)
    ]


# ----------------------------------------------------------------------
# The standard kernels. Each mirrors its scalar fold's operation order;
# powers go through libm, per element (see _libm_pow).
# ----------------------------------------------------------------------


def _min_kernel(matrix: "np.ndarray") -> "np.ndarray":
    return _np.minimum.reduce(matrix, axis=0)


def _max_kernel(matrix: "np.ndarray") -> "np.ndarray":
    return _np.maximum.reduce(matrix, axis=0)


def _product_kernel(matrix: "np.ndarray") -> "np.ndarray":
    return _np.multiply.reduce(matrix, axis=0)


def _lukasiewicz_tnorm_kernel(matrix: "np.ndarray") -> "np.ndarray":
    # Same fold as BoundedDifference.pair iterated: (acc - 1) + row,
    # clamped at 0 per step (the Sterbenz-safe order of tnorms.py).
    acc = matrix[0]
    for row in matrix[1:]:
        acc = _np.maximum(0.0, (acc - 1.0) + row)
    return acc


def _lukasiewicz_conorm_kernel(matrix: "np.ndarray") -> "np.ndarray":
    # BoundedSum.pair iterated: min(1, acc + row) per step.
    acc = matrix[0]
    for row in matrix[1:]:
        acc = _np.minimum(1.0, acc + row)
    return acc


def _arithmetic_mean_kernel(matrix: "np.ndarray") -> "np.ndarray":
    # add.reduce over axis 0 is a sequential row fold — identical to
    # Python's sum() order, so the quotient matches bit for bit.
    return _np.add.reduce(matrix, axis=0) / matrix.shape[0]


def _libm_pow(bases: "np.ndarray", exponent: float) -> "np.ndarray":
    """``bases ** exponent`` by libm's ``pow`` per element, as Python's
    float ``**`` and ``math.pow`` compute it — numpy's vectorised pow
    may differ in the last bit."""
    return _np.fromiter(
        map(math.pow, bases.tolist(), repeat(exponent)),
        _np.float64,
        count=len(bases),
    )


def _geometric_mean_kernel(matrix: "np.ndarray") -> "np.ndarray":
    # The product fold is exact; the root is libm's, as in the scalar.
    return _libm_pow(
        _np.multiply.reduce(matrix, axis=0), 1.0 / matrix.shape[0]
    )


def _harmonic_mean_kernel(matrix: "np.ndarray") -> "np.ndarray":
    # Scalar: 0 if any grade is 0, else m / sum(1/g). 1/0 -> inf makes
    # the sum inf and m/inf exactly 0.0, so one expression covers both
    # branches; errstate silences the intentional division by zero and
    # the overflow a subnormal grade's reciprocal triggers (the scalar
    # path overflows to inf silently; values agree either way).
    with _np.errstate(divide="ignore", over="ignore"):
        return matrix.shape[0] / _np.add.reduce(
            _np.divide(1.0, matrix), axis=0
        )


def _median_kernel_factory(aggregation: "AggregationFunction"):
    def kernel(matrix: "np.ndarray") -> "np.ndarray":
        # The *lower* median, as Median.aggregate takes it — not
        # np.median, which averages the middle pair for even m.
        return _np.sort(matrix, axis=0)[(matrix.shape[0] - 1) // 2]

    return kernel


def _weighted_arithmetic_factory(aggregation):
    weights = list(aggregation.weights)

    def kernel(matrix: "np.ndarray") -> "np.ndarray":
        # Fold w_i * row_i sequentially (same order as the scalar
        # sum()); a BLAS dot could reassociate and break parity.
        acc = weights[0] * matrix[0]
        for w, row in zip(weights[1:], matrix[1:]):
            acc = acc + w * row
        return acc

    return kernel


def _weighted_geometric_factory(aggregation):
    weights = list(aggregation.weights)

    def kernel(matrix: "np.ndarray") -> "np.ndarray":
        # Scalar skips w == 0 terms and returns 0 on a zero grade with
        # positive weight; g ** w per element reproduces both (0 ** w is
        # exactly 0.0 for w > 0), and the product folds in list order.
        acc = None
        for w, row in zip(weights, matrix):
            if w == 0.0:
                continue
            term = _libm_pow(row, w)
            acc = term if acc is None else acc * term
        if acc is None:  # pragma: no cover - all-zero weights are rejected
            return _np.ones(matrix.shape[1])
        return acc

    return kernel


def _fagin_wimmers_factory(aggregation):
    base_kernel = kernel_for(aggregation.base)
    if base_kernel is None:
        return None  # e.g. Einstein, Hamacher, drastic: scalar fold
    order = list(aggregation.order)
    terms = aggregation.terms

    def kernel(matrix: "np.ndarray") -> "np.ndarray":
        # The scalar fold's order and terms, fixed in __init__: the
        # running sum starts at 0.0 and adds coeff * t(prefix) in term
        # order, each prefix clamped as ``base(...)`` clamps it.
        ordered = matrix[order]
        total = _np.zeros(matrix.shape[1])
        for coeff, size in terms:
            total = total + coeff * _np.clip(
                base_kernel(ordered[:size]), 0.0, 1.0
            )
        return total

    return kernel


def _simple(kernel: Kernel):
    """Factory for kernels that ignore the aggregation instance."""

    def factory(aggregation) -> Kernel:
        return kernel

    return factory


def _register_standard_kernels() -> None:
    from repro.core.means import (
        ArithmeticMean,
        GeometricMean,
        HarmonicMean,
        Median,
        WeightedArithmeticMean,
        WeightedGeometricMean,
    )
    from repro.core.tconorms import BoundedSum, MaximumTConorm
    from repro.core.tnorms import (
        AlgebraicProduct,
        BoundedDifference,
        MinimumTNorm,
    )
    from repro.core.weights import FaginWimmersWeighting

    register_kernel(MinimumTNorm, _simple(_min_kernel))
    register_kernel(MaximumTConorm, _simple(_max_kernel))
    register_kernel(AlgebraicProduct, _simple(_product_kernel))
    register_kernel(BoundedDifference, _simple(_lukasiewicz_tnorm_kernel))
    register_kernel(BoundedSum, _simple(_lukasiewicz_conorm_kernel))
    register_kernel(ArithmeticMean, _simple(_arithmetic_mean_kernel))
    register_kernel(GeometricMean, _simple(_geometric_mean_kernel))
    register_kernel(HarmonicMean, _simple(_harmonic_mean_kernel))
    register_kernel(Median, _median_kernel_factory)
    register_kernel(WeightedArithmeticMean, _weighted_arithmetic_factory)
    register_kernel(WeightedGeometricMean, _weighted_geometric_factory)
    register_kernel(FaginWimmersWeighting, _fagin_wimmers_factory)


_register_standard_kernels()
