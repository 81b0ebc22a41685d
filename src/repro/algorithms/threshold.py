"""The Threshold Algorithm (TA) — extension beyond the paper.

The paper's related-work line ([Fa98], and later Fagin-Lotem-Naor,
"Optimal aggregation algorithms for middleware", PODS 2001) replaced A0
with the Threshold Algorithm, which interleaves random access into the
sorted phase and stops by comparing against an aggregation of the last
grades seen under sorted access. We implement it as the natural
"future work" extension and use it for the E15 ablation (FA vs TA):
TA's stopping rule adapts to the data instead of waiting for k full
matches, so its access cost is never more than a constant factor worse
and often far better — while A0 remains the algorithm the paper's
probabilistic guarantees are stated for.

Algorithm (for a monotone aggregation t):

1. Do sorted access in parallel to each of the m lists. As an object x
   is seen under sorted access in some list, do random access to the
   other lists to find all its grades and compute t(x). Remember the k
   highest-graded objects seen so far.
2. After each round at depth d, let b_i be the grade of the d-th object
   in list i and define the threshold tau = t(b_1, ..., b_m). By
   monotonicity no unseen object can have grade above tau.
3. Halt when k seen objects have grades >= tau, or when every list is
   exhausted (then all objects have been seen).
"""

from __future__ import annotations

import heapq

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.certify import EXACT, QualityContract
from repro.core.kernels import kernel_for

__all__ = ["ThresholdAlgorithm"]

#: Pending batches smaller than this are scored by the scalar fold even
#: when a kernel exists: a (m, n) numpy round-trip costs more than n
#: scalar evaluations for tiny n, and post-warm-up TA rounds surface at
#: most m new objects each. Warm-up chunks (k not yet reached) are the
#: batches the kernel sweep is for.
_KERNEL_MIN_PENDING = 16


def _seed_grades(m: int, first_list: int, grade: float) -> list[float]:
    """A grade vector with only the first-sighting list filled in."""
    grades = [0.0] * m
    grades[first_list] = grade
    return grades


class ThresholdAlgorithm(TopKAlgorithm):
    """TA over the same session interface as A0.

    Result ``details``: ``rounds`` (sorted depth reached),
    ``threshold`` (final tau), ``seen`` (distinct objects graded).

    TA honours quality contracts: under an ε-approximate contract the
    stop check relaxes to the FLN θ-approximation — halt once
    ``(1 + ε) * kth_best >= tau``. The certificate is immediate from
    monotonicity: every unreturned object z (seen or unseen) has
    ``mu(z) <= tau <= (1 + ε) * kth_best <= (1 + ε) * mu(y)`` for
    every returned y. At ε=0 the rule takes the historical exact
    comparison verbatim, so answers and access ledgers stay
    bit-identical.
    """

    name = "TA"
    supports_contracts = True

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
    ) -> TopKResult:
        return self._run_certified(session, aggregation, k, EXACT)

    def _run_certified(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        contract: QualityContract,
    ) -> TopKResult:
        if not aggregation.monotone:
            raise ValueError(
                "TA requires a monotone aggregation; "
                f"{aggregation.name!r} is declared non-monotone"
            )
        m = session.num_lists
        sources = session.sources
        rule = contract.stopping_rule()
        scored: dict[object, float] = {}
        # Min-heap of the k best grades seen so far: an object's grade
        # never changes once scored, so the k-th best is maintained
        # incrementally instead of re-selected from all grades per round.
        best: list[float] = []
        bottoms = [1.0] * m
        rounds = 0
        tau = 1.0
        vectorized = kernel_for(aggregation) is not None
        while True:
            # The stop check needs k scored objects first, and a round of
            # m sorted accesses surfaces at most m new objects — so while
            # |scored| < k, ceil((k - |scored|)/m) lockstep rounds can be
            # fetched as one batch per list without moving the stopping
            # point. Afterwards the check runs after every single round.
            if len(scored) < k:
                chunk = -(-(k - len(scored)) // m)
            else:
                chunk = 1
            batches = [sources[i].sorted_access_batch(chunk) for i in range(m)]
            delivered = max(len(objects) for objects, _ in batches)
            if delivered == 0:
                # Every list exhausted: all objects seen and graded. The
                # exhaustion probe performed no sorted accesses, so it is
                # not a round — ``rounds`` reports only depths actually
                # reached (== the per-list maximum sorted depth).
                break
            rounds += delivered
            # Replay the chunk round-major so "which list saw the object
            # first" — and with it the per-list random-access counts —
            # matches the unit-step interleaving exactly.
            pending: dict[object, tuple[int, float]] = {}
            for r in range(delivered):
                for i in range(m):
                    batch_objects, batch_grades = batches[i]
                    if r >= len(batch_objects):
                        continue
                    grade = batch_grades[r]
                    bottoms[i] = grade
                    obj = batch_objects[r]
                    if obj not in scored and obj not in pending:
                        pending[obj] = (i, grade)
            if pending:
                # Bulk random access, grouped per target list: every new
                # object is looked up in each list other than the one
                # that first delivered it, exactly as the unit loop does.
                grades_by_obj = {
                    obj: _seed_grades(m, i, grade)
                    for obj, (i, grade) in pending.items()
                }
                for j in range(m):
                    objs = [o for o, (i, _) in pending.items() if i != j]
                    if not objs:
                        continue
                    looked_up = sources[j].random_access_many(objs)
                    for obj, grade in zip(objs, looked_up):
                        grades_by_obj[obj][j] = grade
                if vectorized and len(pending) >= _KERNEL_MIN_PENDING:
                    # Kernel sweep: transpose the per-object grade
                    # vectors into (m, n) rows — column idx is the
                    # idx-th pending object in first-seen order — and
                    # score the whole batch in one matrix evaluation
                    # (warm-up chunks are the large batches this is
                    # for; the zip transpose is C-speed).
                    rows = list(zip(*grades_by_obj.values()))
                    scores = aggregation.evaluate_columns(rows)
                else:
                    # Scalar fallback: no kernel, or a batch too small
                    # to amortise the numpy round-trip.
                    evaluate = aggregation.evaluate_trusted
                    scores = [
                        evaluate(grades)
                        for grades in grades_by_obj.values()
                    ]
                for obj, grade in zip(grades_by_obj, scores):
                    scored[obj] = grade
                    if len(best) < k:
                        heapq.heappush(best, grade)
                    elif grade > best[0]:
                        heapq.heapreplace(best, grade)
            tau = aggregation.evaluate_trusted(bottoms)
            if len(scored) >= k:
                kth_best = best[0]
                if rule.met(kth_best, tau):
                    break

        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"rounds": rounds, "threshold": tau, "seen": len(scored)},
            guarantee=rule.guarantee(tau),
        )


# ----------------------------------------------------------------------
# Registry self-registration (manual-only: TA postdates the paper, so
# auto-selection keeps reproducing the paper's table; force it with
# ``.strategy("threshold")`` or benchmark E15.)
# ----------------------------------------------------------------------

from repro.engine.registry import (
    StrategyCapabilities,
    envelope_depth,
    register_strategy,
)

register_strategy(
    "threshold",
    ThresholdAlgorithm,
    StrategyCapabilities(monotone_only=True, needs_random_access=True),
    aliases=("TA",),
    summary="Threshold Algorithm (FLN 2001 successor); adaptive stopping",
    # TA stops no later than A0 (instance optimality); on independent
    # lists its depth tracks the same envelope, with every seen object
    # random-probed in the other lists as it surfaces.
    cost_estimate=lambda n, m, k: (
        min(m * envelope_depth(n, m, k), m * n),
        min((m - 1) * 0.87 * m * envelope_depth(n, m, k), (m - 1) * n),
    ),
)
