"""Algorithm A0' — the candidates refinement for t = min (Section 4).

    "Let i0 and x0 be as in Proposition 4.3. Let g0 = mu_Q(x0).
    Intuitively, i0 is a subsystem that has shown the smallest grade g0
    in the sorted access phase of algorithm A0, and x0 is an object
    with this smallest grade g0 in subsystem i0. By the min rule, x0
    has overall grade g0. Define the candidates to be the objects
    x in X^{i0}_T with mu_{Ai0}(x) >= g0. … algorithm A0' has better
    performance than A0, since we do random access only for the
    candidates, each of which is a member of X^{i0}_T, rather than for
    all of U_i X^i_T."

Correct for the standard fuzzy conjunction, i.e. t = min
(Theorem 4.4, via the strengthened upward-closure Proposition 4.3).
The improvement over A0 is a constant factor in random accesses —
quantified empirically by experiment E11.
"""

from __future__ import annotations

from repro.access.session import MiddlewareSession
from repro.access.source import tie_break_key
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.algorithms.fa import (
    fill_missing_grades,
    run_sorted_phase,
    score_objects,
)
from repro.core.aggregation import AggregationFunction
from repro.core.tnorms import MinimumTNorm

__all__ = ["FaginA0Min"]


class FaginA0Min(TopKAlgorithm):
    """Algorithm A0' of Section 4 — requires the min aggregation.

    Result ``details``: ``T``, ``matches``, ``candidates`` (size of the
    candidate set), ``i0`` and ``g0`` from Proposition 4.3.
    """

    name = "A0-prime"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        if not isinstance(aggregation, MinimumTNorm):
            raise ValueError(
                "A0' is only correct for the standard fuzzy conjunction "
                f"(t = min, Theorem 4.4); got {aggregation.name!r}. "
                "Use FaginA0 for other monotone aggregations."
            )
        # Sorted access phase: identical to A0's.
        state = run_sorted_phase(session, k)
        grades = state.grades

        # Random access phase (A0' version). Every member of L has been
        # seen in all m lists, so its overall min-grade is known without
        # any random access; pick x0 minimising it. The min-grades are
        # memoised so the x0 scan evaluates each matched object once.
        overall = {
            obj: min(grades_i[obj] for grades_i in grades)
            for obj in state.matched
        }
        x0 = min(
            state.matched, key=lambda obj: (overall[obj], tie_break_key(obj))
        )
        g0 = overall[x0]
        i0 = next(j for j, grades_j in enumerate(grades) if grades_j[x0] == g0)

        grades_i0 = grades[i0]
        candidates = [
            obj for obj in state.order_by_list[i0] if grades_i0[obj] >= g0
        ]
        fill_missing_grades(session, state, objs=candidates, skip_list=i0)

        # Computation phase, restricted to the candidates.
        scored = score_objects(aggregation, state, candidates)
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={
                "T": state.depth,
                "matches": len(state.matched),
                "candidates": len(candidates),
                "i0": i0,
                "g0": g0,
            },
        )


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import (
    StrategyCapabilities,
    envelope_depth,
    register_strategy,
)


def _select_fa_min(aggregation, num_lists, random_access, cost_model):
    if random_access and isinstance(aggregation, MinimumTNorm):
        return (
            "standard fuzzy conjunction: A0' restricts random access to "
            "the candidates (Theorem 4.4)"
        )
    return None


register_strategy(
    "fagin-min",
    FaginA0Min,
    StrategyCapabilities(
        monotone_only=True,
        needs_random_access=True,
        aggregation_guard=lambda agg, m: isinstance(agg, MinimumTNorm),
    ),
    priority=40,
    selector=_select_fa_min,
    aliases=("A0-prime", "fa-min"),
    summary="Theorem 4.4: A0' for the standard min conjunction",
    # A0's envelope with Theorem 4.4's constant-factor saving on the
    # random phase (only candidates, not every seen object).
    cost_estimate=lambda n, m, k: (
        min(m * envelope_depth(n, m, k), m * n),
        min((m - 1) * 0.6 * m * envelope_depth(n, m, k), (m - 1) * n),
    ),
)
