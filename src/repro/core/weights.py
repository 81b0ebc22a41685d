"""Weighted conjunctions: the Fagin-Wimmers formula of [FW97].

Section 4 of the paper notes that algorithm A0 "applies also when the
user can weight the relative importance of the conjuncts … since such
'weighted conjunctions' are also monotone", citing the companion paper
[FW97] ("A Formula for Incorporating Weights into Scoring Rules").

That formula: given an unweighted (symmetric, m-ary) aggregation t and
weights theta_1 >= theta_2 >= ... >= theta_m >= 0 summing to 1 (sort and
normalise first), define

    f_Theta(x_1, ..., x_m) =
        sum_{i=1..m}  i * (theta_i - theta_{i+1}) * t(x_1, ..., x_i)

with theta_{m+1} = 0, where the x's are listed in the weight order.
The coefficients i*(theta_i - theta_{i+1}) are non-negative and sum to
sum_i theta_i = 1, so f is a convex combination of t on weight-prefixes.
Consequences used here:

* equal weights recover t exactly;
* a weight-0 conjunct is ignored entirely;
* f is monotone whenever t is (so A0 applies — Theorem 5.4);
* f is strict iff t is strict and every weight is positive.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.aggregation import AggregationFunction

__all__ = ["FaginWimmersWeighting"]


class FaginWimmersWeighting(AggregationFunction):
    """The [FW97] weighted version of a base aggregation function.

    Parameters
    ----------
    base:
        The unweighted aggregation (typically a t-norm). Must accept
        any arity from 1 to ``len(weights)`` — every
        :class:`~repro.core.aggregation.BinaryAggregation` does.
    weights:
        Relative importances, non-negative, not all zero. They are
        normalised to sum to 1; order corresponds to argument order.

    Examples
    --------
    >>> from repro.core.tnorms import MINIMUM
    >>> w = FaginWimmersWeighting(MINIMUM, [2, 1])   # colour twice shape
    >>> round(w(0.5, 0.9), 6)                         # (1/3)*0.5 + (2/3)*min
    0.5
    >>> w(0.9, 0.5) == (1/3) * 0.9 + (2/3) * 0.5
    True
    """

    def __init__(
        self, base: AggregationFunction, weights: Sequence[float]
    ) -> None:
        if base.arity is not None:
            # The formula evaluates t on every weight-prefix of sizes
            # 1..m, so the base must accept any arity.
            raise ValueError(
                f"base aggregation {base.name!r} has fixed arity "
                f"{base.arity}, incompatible with prefix evaluation"
            )
        self.base = base
        self.weights = self.normalise(weights)
        self.arity = len(self.weights)
        self.monotone = base.monotone
        self.strict = base.strict and all(w > 0 for w in self.weights)
        self.name = f"fw97({base.name}; {', '.join(f'{w:g}' for w in self.weights)})"
        # Fix the formula once, for ``aggregate`` and the column kernel
        # alike: the argument order by descending weight (stable; tied
        # weights get a zero coefficient, so their order is immaterial
        # for any commutative base) and the non-zero terms
        # (i * (theta_i - theta_{i+1}), prefix size i).
        m = len(self.weights)
        self.order: tuple[int, ...] = tuple(
            sorted(range(m), key=lambda j: -self.weights[j])
        )
        thetas = [self.weights[j] for j in self.order] + [0.0]
        terms: list[tuple[float, int]] = []
        for i in range(1, m + 1):
            coeff = i * (thetas[i - 1] - thetas[i])
            if coeff != 0.0:
                terms.append((coeff, i))
        self.terms: tuple[tuple[float, int], ...] = tuple(terms)

    @staticmethod
    def normalise(weights: Sequence[float]) -> tuple[float, ...]:
        """Validate and normalise weights to sum to 1.

        Idempotent: weights already summing to 1 within floating-point
        tolerance are returned unchanged, so serialising and re-parsing
        a weighted query yields bit-identical weights.
        """
        if not weights:
            raise ValueError("weights must be non-empty")
        ws = [float(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError(f"weights must be non-negative, got {ws}")
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights must not all be zero")
        if abs(total - 1.0) <= 1e-12:
            return tuple(ws)
        return tuple(w / total for w in ws)

    def aggregate(self, grades: Sequence[float]) -> float:
        # sum of coeff * t(x_1..x_i) over the fixed terms, the x's in
        # weight order; each prefix is clamped, as ``base(...)`` does.
        xs = [grades[j] for j in self.order]
        total = 0.0
        for coeff, i in self.terms:
            total += coeff * self.base(*xs[:i])
        return total
