"""Empirical checkers for the properties Section 3 cares about.

The paper's theorems need exactly two properties of an aggregation
function: **monotonicity** (upper bound, Theorem 5.3 via Theorem 4.2)
and **strictness** (lower bound, Theorem 6.4). The t-norm/co-norm
definitions add ∧/∨-conservation, commutativity and associativity, and
[BD86] adds De Morgan duality.

These checkers evaluate a function on dense grids plus optional random
samples and report violations. They are used two ways:

* in the test-suite, to verify that every concrete aggregation's
  *declared* ``monotone`` / ``strict`` flags match its behaviour;
* by users, to classify a custom aggregation before trusting the
  strategy selection in :mod:`repro.engine.registry`.

A grid checker cannot *prove* a property, but for the rational-free
closed forms in this library a (17-point)^m grid with boundary points
included catches every violation the paper's analysis hinges on; the
tests additionally run randomized checks via hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.grades import clamp_grade

__all__ = [
    "PropertyReport",
    "grid_points",
    "check_monotone",
    "check_strict",
    "check_conjunction_conservation",
    "check_disjunction_conservation",
    "check_commutative",
    "check_associative",
    "check_de_morgan",
    "classify",
]

Binary = Callable[[float, float], float]
MAry = Callable[..., float]

#: Default 1-D grid: includes both endpoints and near-boundary points,
#: where conservation and strictness violations live.
DEFAULT_GRID: tuple[float, ...] = (
    0.0,
    1e-9,
    0.05,
    0.1,
    0.2,
    0.25,
    1 / 3,
    0.4,
    0.5,
    0.6,
    2 / 3,
    0.75,
    0.8,
    0.9,
    0.95,
    1.0 - 1e-9,
    1.0,
)


@dataclass
class PropertyReport:
    """Outcome of a property check: holds, plus any counterexamples."""

    property_name: str
    holds: bool
    counterexamples: list[tuple] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds

    def __repr__(self) -> str:
        status = "holds" if self.holds else f"fails ({len(self.counterexamples)} cx)"
        return f"<PropertyReport {self.property_name}: {status}>"


def grid_points(
    arity: int, grid: Sequence[float] = DEFAULT_GRID
) -> Iterable[tuple[float, ...]]:
    """All points of the ``arity``-dimensional grid (cartesian product)."""
    return itertools.product(grid, repeat=arity)


def _record(report: PropertyReport, example: tuple, max_examples: int = 5) -> None:
    report.holds = False
    if len(report.counterexamples) < max_examples:
        report.counterexamples.append(example)


def check_monotone(
    func: MAry,
    arity: int,
    grid: Sequence[float] = DEFAULT_GRID,
    tolerance: float = 1e-12,
) -> PropertyReport:
    """Check t(x) <= t(x') for every componentwise x <= x' pair on the grid.

    Rather than compare all grid-point pairs (quadratic blowup), we test
    single-coordinate increases along the sorted grid, which is
    equivalent for componentwise order on a product grid: any monotone
    violation between comparable grid points implies a violation along
    some single-coordinate step.
    """
    report = PropertyReport("monotone", True)
    ordered = sorted(set(grid))
    for point in itertools.product(ordered, repeat=arity):
        base = func(*point)
        for axis in range(arity):
            idx = ordered.index(point[axis])
            if idx + 1 >= len(ordered):
                continue
            bumped = list(point)
            bumped[axis] = ordered[idx + 1]
            if func(*bumped) < base - tolerance:
                _record(report, (tuple(point), tuple(bumped)))
    return report


def check_strict(
    func: MAry,
    arity: int,
    grid: Sequence[float] = DEFAULT_GRID,
    tolerance: float = 1e-12,
) -> PropertyReport:
    """Check t(x1..xm) = 1 iff every xi = 1 (Section 3's strictness)."""
    report = PropertyReport("strict", True)
    ones = (1.0,) * arity
    if abs(func(*ones) - 1.0) > tolerance:
        _record(report, (ones, func(*ones)))
    for point in grid_points(arity, grid):
        if all(x == 1.0 for x in point):
            continue
        value = func(*point)
        if value >= 1.0 - tolerance:
            _record(report, (point, value))
    return report


def check_conjunction_conservation(
    pair: Binary, tolerance: float = 1e-12, grid: Sequence[float] = DEFAULT_GRID
) -> PropertyReport:
    """∧-conservation: t(0, 0) = 0 and t(x, 1) = t(1, x) = x (Section 3)."""
    report = PropertyReport("conjunction-conservation", True)
    if abs(pair(0.0, 0.0)) > tolerance:
        _record(report, ((0.0, 0.0), pair(0.0, 0.0)))
    for x in grid:
        if abs(pair(x, 1.0) - x) > tolerance:
            _record(report, ((x, 1.0), pair(x, 1.0)))
        if abs(pair(1.0, x) - x) > tolerance:
            _record(report, ((1.0, x), pair(1.0, x)))
    return report


def check_disjunction_conservation(
    pair: Binary, tolerance: float = 1e-12, grid: Sequence[float] = DEFAULT_GRID
) -> PropertyReport:
    """∨-conservation: s(1, 1) = 1 and s(x, 0) = s(0, x) = x (Section 3)."""
    report = PropertyReport("disjunction-conservation", True)
    if abs(pair(1.0, 1.0) - 1.0) > tolerance:
        _record(report, ((1.0, 1.0), pair(1.0, 1.0)))
    for x in grid:
        if abs(pair(x, 0.0) - x) > tolerance:
            _record(report, ((x, 0.0), pair(x, 0.0)))
        if abs(pair(0.0, x) - x) > tolerance:
            _record(report, ((0.0, x), pair(0.0, x)))
    return report


def check_commutative(
    pair: Binary, tolerance: float = 1e-12, grid: Sequence[float] = DEFAULT_GRID
) -> PropertyReport:
    """Commutativity: t(x, y) = t(y, x) on the grid."""
    report = PropertyReport("commutative", True)
    for x, y in itertools.combinations(grid, 2):
        if abs(pair(x, y) - pair(y, x)) > tolerance:
            _record(report, ((x, y), pair(x, y), pair(y, x)))
    return report


def check_associative(
    pair: Binary, tolerance: float = 1e-9, grid: Sequence[float] = DEFAULT_GRID
) -> PropertyReport:
    """Associativity: t(t(x, y), z) = t(x, t(y, z)) on the grid.

    The tolerance is looser than elsewhere because nested rational
    forms (Einstein, Hamacher) accumulate floating-point error.
    """
    report = PropertyReport("associative", True)
    for x, y, z in itertools.product(grid, repeat=3):
        left = pair(clamp_grade(pair(x, y)), z)
        right = pair(x, clamp_grade(pair(y, z)))
        if abs(left - right) > tolerance:
            _record(report, ((x, y, z), left, right))
    return report


def check_de_morgan(
    tnorm: Binary,
    conorm: Binary,
    negation: Callable[[float], float],
    tolerance: float = 1e-9,
    grid: Sequence[float] = DEFAULT_GRID,
) -> PropertyReport:
    """The generalised De Morgan laws of [BD86]:

        s(x, y) = n(t(n(x), n(y)))   and   t(x, y) = n(s(n(x), n(y))).
    """
    report = PropertyReport("de-morgan", True)
    for x, y in itertools.product(grid, repeat=2):
        via_t = negation(tnorm(negation(x), negation(y)))
        if abs(conorm(x, y) - via_t) > tolerance:
            _record(report, ("s", (x, y), conorm(x, y), via_t))
        via_s = negation(conorm(negation(x), negation(y)))
        if abs(tnorm(x, y) - via_s) > tolerance:
            _record(report, ("t", (x, y), tnorm(x, y), via_s))
    return report


def classify(func: MAry, arity: int) -> dict[str, bool]:
    """Classify an m-ary aggregation on the two properties the paper needs.

    Returns ``{"monotone": ..., "strict": ...}`` — enough to decide
    which theorems apply: monotone => A0 is correct (Theorem 4.2);
    monotone and strict => A0 is also optimal (Theorem 6.5).
    """
    return {
        "monotone": bool(check_monotone(func, arity)),
        "strict": bool(check_strict(func, arity)),
    }
