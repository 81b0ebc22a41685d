"""The median algorithm of Remark 6.1.

    "Another aggregation function that is not strict is the median.
    Again, our lower bound fails in this case. For example, assume that
    m = 3 … We now give an algorithm that finds the top k answers to
    this query. The algorithm is based on the fact that

        median(a1, a2, a3)
            = max(min(a1, a2), min(a1, a3), min(a2, a3)).    (13)

    1. Find the top k answers for the query that evaluates
       min(mu_A1(x), mu_A2(x)) … by using algorithm A0. …
    2. [same for (A1, A3)] 3. [same for (A2, A3)]
    4. Output the k objects in X_{1,2} ∪ X_{1,3} ∪ X_{2,3} with the
       highest median scores, along with these scores.

    … This algorithm has middleware cost O(sqrt(N k)), with arbitrarily
    high probability, and so the lower bound (12) with m = 3 fails."

Identity (13) generalises to any arity: the r-th largest of m values
equals the max over all r-subsets of the min of the subset. The (lower)
median of m values is the r-th largest for r = floor(m/2) + 1, so the
same construction — run A0-with-min on every r-subset of the lists,
union the answer sets, complete grades by random access, rank by
median — works for every m >= 3 (at C(m, r) pairwise-A0 runs; the
m = 3 case of the paper does 3 runs over pairs).
"""

from __future__ import annotations

import itertools

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.algorithms.fa import FaginA0
from repro.core.aggregation import AggregationFunction
from repro.core.means import Median
from repro.core.tnorms import MINIMUM

__all__ = ["MedianTopK", "median_subset_size"]


def median_subset_size(m: int) -> int:
    """r such that the (lower) median of m values is the r-th largest.

    >>> median_subset_size(3)
    2
    >>> median_subset_size(5)
    3
    """
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return m // 2 + 1


class MedianTopK(TopKAlgorithm):
    """Remark 6.1's algorithm: median via pairwise (r-subset) min runs.

    Correctness: suppose x is among the true top k by median but x is
    outside the A0 answer set of *every* r-subset. median(x) equals
    min over some r-subset S of x's grades (identity 13 achieves its
    max at some subset). Since x is not in the top k for subset S,
    there are k objects y with min_S(y) >= min_S(x) = median(x); each
    such y has median(y) >= min_S(y) >= median(x). So at least k
    objects weakly dominate x, and the union of the answer sets always
    contains a valid top-k — ranking the union by true median (grades
    completed by random access) returns one.

    Result ``details``: ``subset_runs`` (number of A0 sub-runs),
    ``candidates`` (size of the union).
    """

    name = "median-topk"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        if not isinstance(aggregation, Median):
            raise ValueError(
                "MedianTopK evaluates the median aggregation "
                f"(Remark 6.1); got {aggregation.name!r}"
            )
        m = session.num_lists
        if m < 3:
            raise ValueError(
                f"the median construction needs at least 3 lists, got {m}"
            )
        r = median_subset_size(m)
        inner = FaginA0()
        # The union of the answer sets, in first-seen order.
        candidates: dict[object, None] = {}
        runs = 0
        for subset in itertools.combinations(range(m), r):
            sub = session.subsession(subset, restart=True)
            result = inner.top_k(sub, MINIMUM, k)
            candidates.update(dict.fromkeys(result.objects()))
            runs += 1

        # Complete every candidate's grades by random access — one bulk
        # lookup per list — then rank by the true median. (Random
        # accesses here are charged like any other; the paper's
        # O(sqrt(Nk)) bound absorbs the O(k) completions.)
        objs = list(candidates)
        rows = [source.random_access_many(objs) for source in session.sources]
        scored = list(zip(objs, aggregation.evaluate_columns(rows)))
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"subset_runs": runs, "candidates": len(candidates)},
        )


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import StrategyCapabilities, register_strategy


def _select_median(aggregation, num_lists, random_access, cost_model):
    if random_access and isinstance(aggregation, Median) and num_lists >= 3:
        return (
            "median aggregation: the Remark 6.1 subset-min construction "
            "beats the strict-query lower bound"
        )
    return None


register_strategy(
    "median",
    MedianTopK,
    StrategyCapabilities(
        monotone_only=True,
        needs_random_access=True,
        min_lists=3,
        aggregation_guard=lambda agg, m: isinstance(agg, Median),
    ),
    priority=30,
    selector=_select_median,
    aliases=("median-topk",),
    summary="Remark 6.1: median via pairwise subset-min A0 runs",
)
