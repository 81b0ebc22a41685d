"""Common contract for top-k algorithms (Section 4).

    "Assume that we are interested in obtaining the top k answers …
    This means that we want to obtain k objects with the highest grades
    on this query, along with their grades. If there are ties, then we
    want to arbitrarily obtain k objects and their grades such that for
    each y among these k objects and each z not among these k objects,
    mu_Q(y) >= mu_Q(z)."

Every algorithm consumes a :class:`~repro.access.session.MiddlewareSession`
(its only route to grades — so its access cost is measured by
construction) plus an aggregation function and k, and produces a
:class:`TopKResult`.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping, Sequence

from repro.access.cost import AccessStats
from repro.access.session import MiddlewareSession
from repro.access.source import tie_break_key
from repro.access.types import GradedItem, ObjectId
from repro.core.aggregation import AggregationFunction
from repro.core.certify import EXACT_GUARANTEE, Guarantee, validate_epsilon
from repro.core.graded_set import GradedSet
from repro.exceptions import InsufficientObjectsError

__all__ = ["TopKResult", "TopKAlgorithm", "is_valid_top_k"]


@dataclass(frozen=True, slots=True)
class TopKResult:
    """The graded answer of a top-k run, plus its measured access cost.

    Attributes
    ----------
    items:
        The k answers in descending grade order.
    stats:
        Access counts for the whole run (this run only — the session's
        tracker is snapshotted before and after).
    algorithm:
        Name of the algorithm that produced the result.
    details:
        Algorithm-specific diagnostics, e.g. A0's stopping depth ``T``
        or A0-prime's candidate-set size. Keys are documented by each
        algorithm.
    guarantee:
        The quality statement this run certifies. ``None`` from an
        algorithm body means "exact" (every algorithm but TA and NRA
        runs to exact completion); the template normalises it to
        :data:`~repro.core.certify.EXACT_GUARANTEE` so consumers can
        rely on the field.
    """

    items: tuple[GradedItem, ...]
    stats: AccessStats
    algorithm: str
    details: Mapping[str, object] = field(default_factory=dict)
    guarantee: Guarantee | None = None

    @property
    def k(self) -> int:
        return len(self.items)

    def as_graded_set(self) -> GradedSet:
        """The answers as a :class:`GradedSet` (the paper's output form)."""
        return GradedSet({item.obj: item.grade for item in self.items})

    def objects(self) -> tuple[ObjectId, ...]:
        return tuple(item.obj for item in self.items)

    def grades(self) -> tuple[float, ...]:
        return tuple(item.grade for item in self.items)

    def __repr__(self) -> str:
        return (
            f"TopKResult({self.algorithm}, k={self.k}, "
            f"S={self.stats.sorted_cost}, R={self.stats.random_cost})"
        )


class TopKAlgorithm(ABC):
    """Base class: argument validation + the run template."""

    name: str = "top-k-algorithm"

    def top_k(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float = 0.0,
    ) -> TopKResult:
        """Find the top k answers to ``Ft(A1, ..., Am)`` over the session.

        ``session.sources[i]`` is the graded result of atomic query
        ``A_{i+1}``; ``aggregation`` is the function t. Subclasses
        state their own correctness preconditions (e.g. A0 requires a
        monotone t — Theorem 4.2). ``epsilon`` is the approximation
        slack the caller accepts (0, the default, is exact); the
        returned result's ``guarantee`` states what was actually
        certified.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if k > session.num_objects:
            raise InsufficientObjectsError(k, session.num_objects)
        epsilon = validate_epsilon(epsilon)
        before = session.tracker.snapshot()
        result = self._run(session, aggregation, k, epsilon)
        # Re-derive this run's stats from the tracker delta so that
        # algorithms cannot under-report by snapshotting early.
        return TopKResult(
            result.items,
            session.tracker.snapshot() - before,
            result.algorithm,
            result.details,
            result.guarantee or EXACT_GUARANTEE,
        )

    @abstractmethod
    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        """Algorithm body; k, session and ``epsilon`` are validated.

        TA and NRA stop under ``StoppingRule(epsilon)``. Every other
        algorithm ignores ``epsilon`` and runs to exact completion,
        which satisfies any ε, and its guarantee says ``exact``.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def top_k_of(
    scored: Mapping[ObjectId, float] | Sequence[tuple[ObjectId, float]], k: int
) -> tuple[GradedItem, ...]:
    """The k highest-graded items with the deterministic tie-break.

    Selection, not sorting: ``heapq.nlargest`` over the bare grades
    (a mapping's values, or a pair sequence's second items) finds the
    k-th grade at C speed, then only the candidates at or above it (k
    objects plus any ties on the boundary) get the full
    ``(-grade, tie_break_key)`` ordering. Identical to the full
    descending sort truncated to k — same order, same ties — in
    O(n log k) and without minting :class:`GradedItem` objects for the
    losers.
    """
    if k <= 0:
        return ()
    if isinstance(scored, Mapping):
        pairs, grades = scored.items(), scored.values()
    else:
        pairs, grades = scored, map(itemgetter(1), scored)
    if len(scored) > k:
        kth = heapq.nlargest(k, grades)[-1]
        candidates = [(obj, grade) for obj, grade in pairs if grade >= kth]
    else:
        candidates = list(pairs)
    candidates.sort(key=lambda og: (-og[1], tie_break_key(og[0])))
    return tuple(GradedItem(obj, grade) for obj, grade in candidates[:k])


def is_valid_top_k(
    items: Sequence[GradedItem],
    overall: GradedSet,
    k: int,
    tolerance: float = 1e-9,
) -> bool:
    """Check a result against ground truth, honouring tie freedom.

    Valid iff (a) exactly k distinct objects are returned, (b) each
    returned grade equals the object's true overall grade, and (c) for
    every returned y and non-returned z, mu(y) >= mu(z) — Section 4's
    specification verbatim. Used by tests and by the adversarial
    lower-bound harness.
    """
    if len(items) != k:
        return False
    returned = {item.obj for item in items}
    if len(returned) != k:
        return False
    for item in items:
        if item.obj not in overall:
            return False
        if abs(item.grade - overall.grade(item.obj)) > tolerance:
            return False
    worst_returned = min(item.grade for item in items)
    best_excluded = max(
        (g for obj, g in overall.as_dict().items() if obj not in returned),
        default=0.0,
    )
    return worst_returned >= best_excluded - tolerance
