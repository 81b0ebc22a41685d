"""Aggregation functions: the machinery of Section 3.

    "Let us define an m-ary aggregation function to be a function from
    [0, 1]^m to [0, 1]."

The paper cares about exactly two properties of an aggregation function:

* **Monotonicity** — ``t(x1..xm) <= t(x1'..xm')`` whenever ``xi <= xi'``
  for every i. Needed for the *upper bound* (correctness of algorithm A0,
  Theorem 4.2, and the cost analysis of Theorem 5.3).
* **Strictness** — ``t(x1..xm) = 1`` iff every ``xi = 1``. Needed for the
  *lower bound* (Theorem 6.4).

Concrete families live in :mod:`repro.core.tnorms`,
:mod:`repro.core.tconorms` and :mod:`repro.core.means`; this module
provides the base classes, the iteration of 2-ary functions to m-ary
ones ("an m-ary conjunction is almost always evaluated by using an
associative 2-ary function that is iterated"), and the t-norm/t-conorm
duality transform of [Al85]/[BD86].
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.core.grades import clamp_grade, standard_negation, validate_grade
from repro.exceptions import AggregationArityError


class AggregationFunction(ABC):
    """An m-ary aggregation function from [0, 1]^m to [0, 1].

    Subclasses implement :meth:`aggregate` on pre-validated grades and
    declare the paper's two key properties via :attr:`monotone` and
    :attr:`strict`. The declarations are *verified empirically* by the
    checkers in :mod:`repro.core.properties` (exercised in the tests),
    so a mis-declared subclass will fail its property tests.
    """

    #: Human-readable name used in error messages and benchmark tables.
    name: str = "aggregation"

    #: Fixed arity, or ``None`` when the function accepts any m >= 1.
    arity: int | None = None

    #: Declared monotonicity (Section 3).
    monotone: bool = True

    #: Declared strictness (Section 3).
    strict: bool = False

    @abstractmethod
    def aggregate(self, grades: Sequence[float]) -> float:
        """Combine already-validated grades; may return slight overshoot."""

    def __call__(self, *grades: float) -> float:
        validated = [validate_grade(g, context=self.name) for g in grades]
        m = len(validated)
        if m == 0:
            raise AggregationArityError(self.name, "at least 1", 0)
        if self.arity is not None and m != self.arity:
            raise AggregationArityError(self.name, self.arity, m)
        return clamp_grade(self.aggregate(validated))

    def evaluate_trusted(self, grades: Sequence[float]) -> float:
        """Combine grades the access layer has already validated.

        The top-k hot loops score thousands of objects whose grades all
        came through :class:`~repro.access.source.SortedRandomSource`
        (validated at the boundary), so the per-argument re-validation
        of :meth:`__call__` is pure overhead there. The arity check is
        kept — a fixed-arity aggregation fed the wrong number of lists
        must raise, not silently drop grades. Still clamps, because
        :meth:`aggregate` may overshoot by a rounding error. Same value
        as ``self(*grades)`` for in-range inputs.
        """
        if self.arity is not None and len(grades) != self.arity:
            raise AggregationArityError(self.name, self.arity, len(grades))
        return clamp_grade(self.aggregate(grades))

    def on_sequence(self, grades: Sequence[float]) -> float:
        """Apply to a sequence (convenience mirror of ``__call__``)."""
        return self(*grades)

    def evaluate_columns(self, rows: Sequence[Sequence[float]]) -> list[float]:
        """Bulk-evaluate m per-list grade rows into per-object scores.

        ``rows[i][j]`` is object j's (already validated) grade in list
        i; the result is one score per object, as plain Python floats.
        Vectorized through :func:`~repro.core.kernels.kernel_for`'s
        kernel when there is one, with the scalar ``evaluate_trusted``
        fold otherwise.
        """
        from repro.core.kernels import evaluate_columns

        if self.arity is not None and len(rows) != self.arity:
            raise AggregationArityError(self.name, self.arity, len(rows))
        return evaluate_columns(self, rows, len(rows[0]) if rows else 0)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class VectorizedAggregation:
    """Capability mix-in: an aggregation that ships its own bulk kernel.

    The standard families (min/max, the product and Łukasiewicz norms,
    the mean family and its weighted variants) get kernels from the
    registry in :mod:`repro.core.kernels`; a *user-defined* aggregation
    opts into the bulk path by also inheriting this class and
    implementing :meth:`aggregate_columns`. The contract mirrors
    :meth:`AggregationFunction.aggregate` lifted to matrices:

    * the input is an (m, n) float64 matrix of validated grades;
    * the output is a length-n vector; callers clip it into [0, 1]
      exactly as ``clamp_grade`` would;
    * column j's score must equal ``self.aggregate(matrix[:, j])`` (up
      to documented floating-point reassociation, which the property
      suite bounds at 1e-12).
    """

    def aggregate_columns(self, matrix):
        """Score every column of an (m, n) grade matrix at once."""
        raise NotImplementedError(
            f"{type(self).__name__} declares VectorizedAggregation but "
            "does not implement aggregate_columns"
        )


class BinaryAggregation(AggregationFunction):
    """A 2-ary aggregation function extended to m arguments by iteration.

    Section 3: "if 2-ary conjunction is defined by the 2-ary aggregation
    function t, then 3-ary conjunction can be defined by
    t(t(x1, x2), x3)" — i.e. a left fold. For associative functions
    (every t-norm / t-conorm) the fold order is immaterial.
    """

    @abstractmethod
    def pair(self, x: float, y: float) -> float:
        """Combine exactly two grades."""

    def aggregate(self, grades: Sequence[float]) -> float:
        result = grades[0]
        for g in grades[1:]:
            result = clamp_grade(self.pair(result, g))
        return result


class TNorm(BinaryAggregation):
    """A triangular norm [SS63, DP80] — the conjunction family of Section 3.

    Satisfies ∧-conservation (t(0,0)=0, t(x,1)=t(1,x)=x), monotonicity,
    commutativity and associativity. Every t-norm is bounded between the
    drastic product and min [DP80], which makes every iterated t-norm
    both monotone and strict — hence the paper's matching upper and
    lower bounds apply to all of them (Theorem 6.5).
    """

    monotone = True
    strict = True


class TConorm(BinaryAggregation):
    """A triangular co-norm [DP85] — the disjunction family of Section 3.

    Satisfies ∨-conservation (s(1,1)=1, s(x,0)=s(0,x)=x), monotonicity,
    commutativity and associativity. Co-norms are monotone but *not*
    strict in the paper's sense (e.g. max(1, 0) = 1 with an argument
    below 1), which is exactly why the lower bound fails for max and
    algorithm B0 can be so cheap (Remark 6.1).
    """

    monotone = True
    strict = False


class DualTConorm(TConorm):
    """The co-norm dual to a t-norm: ``s(x, y) = n(t(n(x), n(y)))``.

    With the standard negation this is the duality of [Al85]; [BD86]
    show the generalised De Morgan laws hold for suitable negations.
    """

    def __init__(
        self,
        tnorm: TNorm,
        negation: Callable[[float], float] = standard_negation,
    ) -> None:
        self._tnorm = tnorm
        self._negation = negation
        self.name = f"dual({tnorm.name})"

    def pair(self, x: float, y: float) -> float:
        n = self._negation
        return n(self._tnorm.pair(n(x), n(y)))


class DualTNorm(TNorm):
    """The t-norm dual to a co-norm: ``t(x, y) = n(s(n(x), n(y)))``."""

    def __init__(
        self,
        conorm: TConorm,
        negation: Callable[[float], float] = standard_negation,
    ) -> None:
        self._conorm = conorm
        self._negation = negation
        self.name = f"dual({conorm.name})"

    def pair(self, x: float, y: float) -> float:
        n = self._negation
        return n(self._conorm.pair(n(x), n(y)))


class ConstantAggregation(AggregationFunction):
    """The degenerate monotone aggregation of Section 4.

        "As an obvious example, let t be a constant function: then an
        arbitrary set of k objects (with their grades) can be taken to
        be the top k answers."

    Monotone (weakly) but not strict unless the constant is 1 — and even
    the constant-1 function is not strict, since it is 1 on arguments
    below 1. Useful as a worked counterexample in tests and docs.
    """

    strict = False

    def __init__(self, value: float) -> None:
        self._value = validate_grade(value, context="constant aggregation")
        self.name = f"const({self._value:g})"

    def aggregate(self, grades: Sequence[float]) -> float:
        return self._value


class FunctionAggregation(AggregationFunction):
    """Adapter wrapping a plain callable as an aggregation function.

    Lets users plug ad-hoc scoring rules into the algorithms without
    subclassing; the declared properties must be supplied explicitly
    (and can be validated with :mod:`repro.core.properties`).
    """

    def __init__(
        self,
        func: Callable[..., float],
        name: str,
        *,
        arity: int | None = None,
        monotone: bool = True,
        strict: bool = False,
    ) -> None:
        self._func = func
        self.name = name
        self.arity = arity
        self.monotone = monotone
        self.strict = strict

    def aggregate(self, grades: Sequence[float]) -> float:
        return self._func(*grades)


def iterated(binary: Callable[[float, float], float], name: str) -> FunctionAggregation:
    """Iterate a plain 2-ary callable into an m-ary aggregation."""

    def fold(*grades: float) -> float:
        result = grades[0]
        for g in grades[1:]:
            result = binary(result, g)
        return result

    return FunctionAggregation(fold, name)
