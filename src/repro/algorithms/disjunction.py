"""Algorithm B0 — top-k for the standard fuzzy disjunction (Section 4).

    "We now give an algorithm (called algorithm B0) that returns the
    top k answers for the standard fuzzy disjunction A1 OR ... OR Am of
    atomic queries A1, ..., Am. Algorithm B0 has only two phases: a
    sorted access phase and a computation phase.

    Sorted access phase: For each i, use sorted access to subsystem i
    to find the set X^i_k containing the top k answers to the query Ai.

    Computation phase: For each x in U_i X^i_k, let
    h(x) = max_{i | x in X^i_k} mu_Ai(x). Let Y be a set containing the
    k members x of U_i X^i_k with the highest values of h(x) …"

Cost: exactly m*k sorted accesses and **zero** random accesses —
independent of the database size N. This is Remark 6.1's point: max is
monotone but *not strict*, so the Omega(N^((m-1)/m) k^(1/m)) lower
bound does not apply, "and in fact, in the case of max, the lower
bound fails. Algorithm B0 … has middleware cost only mk, independent
of the size N of the database!" Experiment E5 verifies both the
correctness and the flat cost curve.
"""

from __future__ import annotations

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.tconorms import MaximumTConorm

__all__ = ["DisjunctionB0"]


class DisjunctionB0(TopKAlgorithm):
    """Algorithm B0 of Section 4 — requires the max aggregation.

    Why the computed h(x) equals the true grade mu_Q(x) for every
    *returned* object (so the output grades are exact even though h can
    under-estimate for non-returned objects): if some returned y had
    mu_Q(y) > h(y) coming from a list j where y is outside X^j_k, then
    all k members of X^j_k would have h at least mu_Aj(y) > h(y),
    contradicting y's membership in the top k by h.
    """

    name = "B0"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        if not isinstance(aggregation, MaximumTConorm):
            raise ValueError(
                "B0 is only correct for the standard fuzzy disjunction "
                f"(max, Theorem 4.5); got {aggregation.name!r}"
            )
        best_seen: dict[object, float] = {}
        for source in session.sources:
            # X^i_k through the batch protocol; a source paging over a
            # wire may ship less than asked, so ask again until k
            # objects arrive or the list runs out.
            wanted = k
            while wanted > 0:
                objects, grades = source.sorted_access_batch(wanted)
                if not objects:
                    break
                wanted -= len(objects)
                for obj, grade in zip(objects, grades):
                    current = best_seen.get(obj)
                    if current is None or grade > current:
                        best_seen[obj] = grade
        return TopKResult(
            items=top_k_of(best_seen, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"union_size": len(best_seen)},
        )


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import StrategyCapabilities, register_strategy


def _select_b0(aggregation, num_lists, random_access, cost_model):
    if isinstance(aggregation, MaximumTConorm):
        return (
            "standard fuzzy disjunction: B0 costs m*k with sorted access "
            "only, independent of N (Theorem 4.5, Remark 6.1)"
        )
    return None


register_strategy(
    "b0",
    DisjunctionB0,
    StrategyCapabilities(
        monotone_only=True,
        needs_random_access=False,
        aggregation_guard=lambda agg, m: isinstance(agg, MaximumTConorm),
    ),
    priority=10,
    selector=_select_b0,
    aliases=("B0", "disjunction"),
    summary="Theorem 4.5: max-disjunctions in m*k sorted accesses",
    # Theorem 4.5 exactly: k sorted accesses per list, nothing else.
    cost_estimate=lambda n, m, k: (float(m * k), 0.0),
)
