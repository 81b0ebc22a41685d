"""Ullman's algorithm (Section 9, "Exploiting Other Information").

    "Assume that we are evaluating the standard fuzzy conjunction
    A1 AND A2 (where t is min). We now give an algorithm that finds the
    top answer …

    1. Give subsystem 1 the query A1 under sorted access. …
    2. As each pair (x, mu_A1(x)) is output from subsystem 1, do random
       access to subsystem 2 to obtain mu_A2(x).
    3. Stop if and when an object x is found such that
       mu_A2(x) >= mu_A1(x); if such an object x is never found, then
       continue until all objects have been seen.
    4. For all of the objects x that have been seen, let x0 be the
       object with the highest overall grade … The output is then
       (x0, g0)."

Performance (Section 9): if the grades under A1 are bounded above by
0.9 and A2's grades are uniform, the expected number of objects seen
is at most 10 — *constant in N*; if both lists are uniform, Ariel
Landau showed the expected stopping time is Theta(sqrt(N)) — no better
than A0. Experiment E8 regenerates both regimes.

Two generalisations are provided beyond the paper's literal k = 1 /
min statement, both clearly flagged:

* top-k for any k (maintain the k best; stop when the k-th best
  overall grade reaches the stopping threshold);
* any monotone aggregation t with t(x, 1) = x — the unseen-object
  bound becomes t(a1_last, 1) = a1_last exactly as for min.
"""

from __future__ import annotations

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.exceptions import ExhaustedSourceError

__all__ = ["UllmanAlgorithm"]


class UllmanAlgorithm(TopKAlgorithm):
    """Sorted access on one list, random access on the others.

    Parameters
    ----------
    sorted_list:
        Which list to stream under sorted access (default 0). Section 9
        motivates choosing a list whose grades are expected to fall
        fast (e.g. bounded below 1).
    stop_rule:
        ``"threshold"`` (default) stops as soon as the k-th best
        overall grade is at least the last sorted grade — the tightest
        sound rule, since every unseen object x has
        t(mu_A1(x), ...) <= mu_A1(x) <= last sorted grade by
        monotonicity and conservation. ``"paper"`` reproduces the
        literal Section 9 rule for k = 1: stop only when the *current*
        object satisfies mu_A2(x) >= mu_A1(x). The literal rule is what
        the Section 9 expected-cost statements are about; the threshold
        rule never stops later.
    """

    name = "ullman"

    def __init__(self, sorted_list: int = 0, stop_rule: str = "threshold") -> None:
        if stop_rule not in ("threshold", "paper"):
            raise ValueError(
                f"stop_rule must be 'threshold' or 'paper', got {stop_rule!r}"
            )
        self._sorted_list = sorted_list
        self._stop_rule = stop_rule

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        if not aggregation.monotone:
            raise ValueError(
                "Ullman's algorithm requires a monotone aggregation; "
                f"{aggregation.name!r} is declared non-monotone"
            )
        if self._stop_rule == "paper" and k != 1:
            raise ValueError(
                "the literal Section 9 stop rule is defined for k = 1; "
                "use stop_rule='threshold' for general k"
            )
        m = session.num_lists
        lead = self._sorted_list
        if not 0 <= lead < m:
            raise ValueError(
                f"sorted_list={lead} out of range for {m} lists"
            )
        others = [j for j in range(m) if j != lead]
        lead_source = session.sources[lead]

        scored: dict[object, float] = {}
        seen = 0
        while True:
            try:
                item = lead_source.next_sorted()
            except ExhaustedSourceError:
                break
            seen += 1
            grades = [0.0] * m
            grades[lead] = item.grade
            for j in others:
                grades[j] = session.sources[j].random_access(item.obj)
            scored[item.obj] = aggregation(*grades)

            if self._stop_rule == "paper":
                # Stop when the current object's other-list grades all
                # dominate its sorted-list grade (for m = 2 this is the
                # literal "mu_A2(x) >= mu_A1(x)").
                if all(grades[j] >= item.grade for j in others):
                    break
            else:
                if len(scored) >= k:
                    kth_best = sorted(scored.values(), reverse=True)[k - 1]
                    # Unseen objects have lead-list grade <= item.grade,
                    # and t(g_lead, g_rest) <= t(g_lead, 1, ..., 1) =
                    # g_lead by monotonicity + conservation.
                    ceiling = aggregation(
                        *[item.grade if j == lead else 1.0 for j in range(m)]
                    )
                    if kth_best >= ceiling:
                        break

        return TopKResult(
            items=top_k_of(scored, min(k, len(scored))),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"objects_seen": seen, "stop_rule": self._stop_rule},
        )


# ----------------------------------------------------------------------
# Registry self-registration (manual-only: Section 9's algorithm shines
# on skewed grade distributions; the paper does not put it in the
# general selection table.)
# ----------------------------------------------------------------------

from repro.engine.registry import StrategyCapabilities, register_strategy

register_strategy(
    "ullman",
    UllmanAlgorithm,
    StrategyCapabilities(
        monotone_only=True, needs_random_access=True, min_lists=2
    ),
    summary="Section 9: sorted access on one list, random on the rest",
)
