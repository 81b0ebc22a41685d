"""The provably hard query Q AND NOT Q (Section 7).

    "In this section, we consider the extreme case of negative
    correlation between queries, by considering queries Q AND NOT Q,
    for Q an atomic query. In standard propositional logic, such a
    query is unsatisfiable. But the situation is different if Q is
    'fully fuzzy' …

    Then mu_{Q AND NOT Q}(x) = 1/2 when mu_Q(x) = 1/2. Furthermore, it
    is easy to see that 1/2 is the maximal possible value …

    [Theorem 7.1] The middleware cost for finding the top answer to
    the standard fuzzy conjunction Q AND NOT Q, where Q is fully fuzzy,
    is Theta(N)."

This module provides the constructions and algorithms around that
result:

* :func:`self_negated_lists` — the two-list scoring database (pi for Q,
  the reversed permutation with grades 1 - g for NOT Q), with all
  grades distinct as the section assumes;
* :func:`hard_query_depth` — the closed-form match depth, showing why
  A0 degrades to linear cost on this input;
* :class:`SelfNegatedScan` — the essentially-optimal linear algorithm:
  one full sorted scan of the Q list, deriving mu_{NOT Q} = 1 - mu_Q
  (N accesses instead of the generic naive's 2N; still Theta(N), as
  Theorem 7.1 proves unavoidable).
"""

from __future__ import annotations

import random

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.tnorms import MinimumTNorm

__all__ = ["self_negated_lists", "hard_query_depth", "SelfNegatedScan"]


def self_negated_lists(
    num_objects: int, rng: random.Random
) -> tuple[dict[int, float], dict[int, float]]:
    """Grade assignments for Q and NOT Q over objects 1..N.

    Q's grades are N distinct values in (0, 1) (distinctness is the
    Section 7 convention — "we restrict our attention … to scoring
    databases where mu_Q(x) != mu_Q(y) whenever x and y are distinct");
    NOT Q's grade of x is 1 - mu_Q(x), so the sorted order of the
    second list is exactly the reverse of the first — the paper's
    (pi_Q, pi_notQ) skeleton.
    """
    if num_objects < 1:
        raise ValueError(f"need at least one object, got {num_objects}")
    grades: set[float] = set()
    while len(grades) < num_objects:
        g = rng.random()
        if 0.0 < g < 1.0 and (1.0 - g) != g:
            grades.add(g)
    ordered = sorted(grades, reverse=True)
    q = {obj: g for obj, g in zip(range(1, num_objects + 1), ordered)}
    not_q = {obj: 1.0 - g for obj, g in q.items()}
    return q, not_q


def hard_query_depth(num_objects: int, k: int = 1) -> int:
    """The uniform depth T at which A0 finds k matches on the hard query.

    The prefixes are {pi(1..T)} and {pi(N-T+1..N)}; they intersect in
    max(0, 2T - N) objects, so k matches require T = ceil((N + k) / 2)
    — A0's sorted cost alone is 2T ~ N + k, i.e. linear, consistent
    with Theorem 7.1's lower bound.

    >>> hard_query_depth(100, 1)
    51
    """
    if k > num_objects:
        raise ValueError(f"k={k} exceeds N={num_objects}")
    return (num_objects + k + 1) // 2


class SelfNegatedScan(TopKAlgorithm):
    """Linear evaluation of Q AND NOT Q exploiting the known negation.

    Scans list 1 (the Q list) fully under sorted access and computes
    min(g, 1 - g) for every object — the second list is never touched
    because mu_{NOT Q} is determined by mu_Q. Cost: exactly N sorted
    accesses. Theorem 7.1 shows Omega(N) is required, so this is
    optimal up to the constant (the generic naive algorithm pays 2N).

    Only sound when list 2 really is the pointwise negation of list 1;
    the run verifies the contract on the returned answers via spot
    random accesses when ``verify`` is set.
    """

    name = "self-negated-scan"

    def __init__(self, verify: bool = False) -> None:
        self._verify = verify

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        if not isinstance(aggregation, MinimumTNorm):
            raise ValueError(
                "Section 7 evaluates the standard fuzzy semantics "
                f"(min); got {aggregation.name!r}"
            )
        if session.num_lists != 2:
            raise ValueError(
                f"the hard query has exactly two lists (Q, NOT Q); "
                f"got {session.num_lists}"
            )
        q_source = session.sources[0]
        scored: dict[object, float] = {}
        # Read to exhaustion in batches; a paged source may ship short
        # pages before it runs out, so only an empty batch ends the scan.
        while True:
            objects, grades = q_source.sorted_access_batch(session.num_objects)
            if not objects:
                break
            for obj, grade in zip(objects, grades):
                scored[obj] = min(grade, 1.0 - grade)
        items = top_k_of(scored, k)
        if self._verify:
            # Spot-check the negation contract on the returned answers:
            # with mu_notQ(x) = 1 - mu_Q(x), the returned grade
            # min(mu_Q, 1 - mu_Q) must equal min(mu_notQ, 1 - mu_notQ).
            for it in items:
                actual_not_q = session.sources[1].random_access(it.obj)
                if abs(min(actual_not_q, 1.0 - actual_not_q) - it.grade) > 1e-9:
                    raise ValueError(
                        f"list 2 is not the negation of list 1 at object "
                        f"{it.obj!r}: grade {it.grade} inconsistent with "
                        f"mu_notQ = {actual_not_q}"
                    )
        return TopKResult(
            items=items,
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"scanned": len(scored)},
        )
