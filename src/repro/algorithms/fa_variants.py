"""The "minor improvements" to A0 sketched in Section 4.

    "There are various minor improvements we can make to algorithm A0
    to improve its performance slightly. … For example, instead of
    using a uniform value of T, we might find Ti <= T for each i such
    that the intersection of the X^i_{Ti} contains k members. We could
    then replace all occurrences of [the union of prefixes] in
    algorithm A0 by [the union of the shorter prefixes], which could
    lead to fewer random accesses. Ait-Bouziad and Kassel [AK98] give
    another such improvement."

Two variants are implemented:

* :class:`EarlyStopFagin` — stop the sorted phase the instant the k-th
  match appears, even mid-round (saves up to m-1 sorted accesses).
* :class:`ShrunkenFagin` — after the sorted phase, shrink each list's
  effective prefix to per-list depths T_i (chosen so the prefix
  intersection still has k members) before the random access phase, so
  fewer seen objects need their grades completed.

Both inherit A0's correctness argument: the shrunken prefixes X^i_{Ti}
are still upwards closed with respect to A_i and their intersection
still has >= k members, which is all Proposition 4.1 / Theorem 4.2 use.
Experiment E11 quantifies the (constant-factor) savings.
"""

from __future__ import annotations

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.algorithms.fa import (
    fill_missing_grades,
    run_sorted_phase,
    score_objects,
)
from repro.core.aggregation import AggregationFunction

__all__ = ["EarlyStopFagin", "ShrunkenFagin"]


class EarlyStopFagin(TopKAlgorithm):
    """A0 with a mid-round stop in the sorted phase."""

    name = "A0-early-stop"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        if not aggregation.monotone:
            raise ValueError(
                "A0 variants require a monotone aggregation (Theorem 4.2); "
                f"{aggregation.name!r} is declared non-monotone"
            )
        state = run_sorted_phase(session, k, stop_mid_round=True)
        fill_missing_grades(session, state)
        scored = score_objects(aggregation, state, list(state.deliveries))
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"T": state.depth, "matches": len(state.matched)},
        )


class ShrunkenFagin(TopKAlgorithm):
    """A0 with per-list prefix depths T_i shrunk after the sorted phase.

    The shrink is computed as follows: rank the matched objects by the
    depth at which they completed their match (the max of their ranks
    across lists) and keep the k earliest-matching ones; then T_i is
    the deepest rank any kept object has in list i. The k kept objects
    are in every shrunken prefix by construction, so the intersection
    of the X^i_{Ti} has >= k members and the A0 correctness argument
    goes through unchanged.

    The sorted cost is already paid when the shrink happens, so the
    saving is entirely in random accesses (exactly the paper's claim).

    Result ``details``: ``T`` (uniform depth actually read), ``Ti``
    (the per-list shrunken depths), ``seen_after_shrink``.
    """

    name = "A0-shrunken"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        if not aggregation.monotone:
            raise ValueError(
                "A0 variants require a monotone aggregation (Theorem 4.2); "
                f"{aggregation.name!r} is declared non-monotone"
            )
        state = run_sorted_phase(session, k)
        m = session.num_lists

        rank_in_list: list[dict[object, int]] = [
            {obj: r + 1 for r, obj in enumerate(order)}
            for order in state.order_by_list
        ]

        def match_depth(obj) -> int:
            return max(rank_in_list[i][obj] for i in range(m))

        keep = sorted(state.matched, key=lambda obj: (match_depth(obj), repr(obj)))
        keep = keep[:k]
        depths = [
            max(rank_in_list[i][obj] for obj in keep) for i in range(m)
        ]

        surviving = list(
            dict.fromkeys(
                obj
                for order, depth in zip(state.order_by_list, depths)
                for obj in order[:depth]
            )
        )
        fill_missing_grades(session, state, objs=surviving)
        scored = score_objects(aggregation, state, surviving)
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={
                "T": state.depth,
                "Ti": tuple(depths),
                "seen_after_shrink": len(surviving),
            },
        )


# ----------------------------------------------------------------------
# Registry self-registration (manual-only: Section 4's "minor
# improvements" on A0, benchmarked by E11.)
# ----------------------------------------------------------------------

from repro.engine.registry import StrategyCapabilities, register_strategy

register_strategy(
    "early-stop",
    EarlyStopFagin,
    StrategyCapabilities(monotone_only=True, needs_random_access=True),
    aliases=("A0-early-stop",),
    summary="A0 with a mid-round stop in the sorted phase",
)

register_strategy(
    "shrunken",
    ShrunkenFagin,
    StrategyCapabilities(monotone_only=True, needs_random_access=True),
    aliases=("A0-shrunken",),
    summary="A0 with per-list prefix depths shrunk before random access",
)
