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

:class:`ThresholdAlgorithm` runs steps 2 and 3 after every round but
defers step 1's random accesses until a round could stop; its
docstring gives the argument that the stopping round, the answers and
the access ledger stay those of the algorithm as stated.
"""

from __future__ import annotations

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.certify import StoppingRule
from repro.core.kernels import kernel_for

__all__ = ["ThresholdAlgorithm"]

#: Completion batches smaller than this are scored by the scalar fold
#: even when a kernel exists: a (m, n) numpy round-trip costs more than
#: n scalar evaluations for tiny n. A round that could stop completes
#: every object held since the last completion, so the warm-up's batch
#: and the batches that build up over rounds that could not stop are
#: the ones the kernel sweep is for.
_KERNEL_MIN_PENDING = 16


class ThresholdAlgorithm(TopKAlgorithm):
    """TA over the same session interface as A0.

    Result ``details``: ``rounds`` (sorted depth reached),
    ``threshold`` (final tau), ``seen`` (distinct objects graded).

    Sorted access, tau and the stop test run every round, as in the
    unit-step algorithm; the random accesses that complete a newly seen
    object are deferred until a round could stop. With u seen objects
    not yet completed, at most u of the k best seen objects are among
    them, so the k-th best seen grade is at most the (k - u)-th best
    completed grade. While the stop test fails for that bound, the
    round cannot stop and nothing is completed. Otherwise every held
    object is completed — one ``random_access_many`` per list over the
    held objects that list did not surface first, scored in one sweep —
    and the exact test runs. An object is completed in every list but
    the one that surfaced it, even a list that has since delivered it
    under sorted access, so each seen object costs m - 1 random
    accesses exactly as in the unit-step run: the stopping round, the
    answers and the per-list ledger are the unit-step algorithm's.

    Until k objects are seen, the rounds that cannot stop are fetched in
    one batch per list; every later round reads one
    ``sorted_access_next`` pair per list.

    TA honours ε: with ``epsilon > 0`` the stop check relaxes to the
    FLN θ-approximation — halt once ``(1 + ε) * kth_best >= tau``. The
    certificate is immediate from monotonicity: every unreturned
    object z (seen or unseen) has
    ``mu(z) <= tau <= (1 + ε) * kth_best <= (1 + ε) * mu(y)`` for
    every returned y. At ε=0 the rule takes the historical exact
    comparison verbatim, so answers and access ledgers stay
    bit-identical. Both tests are monotone in the k-th grade, so the
    deferral's bound is sound under either.
    """

    name = "TA"

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        if not aggregation.monotone:
            raise ValueError(
                "TA requires a monotone aggregation; "
                f"{aggregation.name!r} is declared non-monotone"
            )
        m = session.num_lists
        sources = session.sources
        rule = StoppingRule(epsilon)
        scored: dict[object, float] = {}
        # The k best completed grades, ascending: ``best[0]`` is the
        # k-th best once k objects are complete, and with u objects
        # held, ``best[len(best) + u - k]`` is the (k - u)-th best — the
        # bound on the k-th best seen grade.
        best: list[float] = []
        # Seen objects not yet completed, in first-seen order, with the
        # list that surfaced each and its grade there.
        held: dict[object, tuple[int, float]] = {}
        bottoms = [1.0] * m
        rounds = 0
        tau = 1.0
        vectorized = kernel_for(aggregation) is not None
        reads = [source.sorted_access_next for source in sources]
        while True:
            # The stop check needs k seen objects first, and a round of m
            # sorted accesses surfaces at most m new objects — so while
            # fewer than k are seen, ceil((k - seen)/m) lockstep rounds
            # can be fetched as one batch per list without moving the
            # stopping point. Afterwards the check runs after every round,
            # and each round reads one pair per list.
            seen = len(scored) + len(held)
            if seen < k:
                chunk = -(-(k - seen) // m)
                batches = [sources[i].sorted_access_batch(chunk) for i in range(m)]
                delivered = max(len(objects) for objects, _ in batches)
                # Replay the chunk round-major so "which list saw the
                # object first" — and with it the per-list random-access
                # counts — matches the unit-step interleaving exactly.
                for r in range(delivered):
                    for i in range(m):
                        batch_objects, batch_grades = batches[i]
                        if r >= len(batch_objects):
                            continue
                        grade = batch_grades[r]
                        bottoms[i] = grade
                        obj = batch_objects[r]
                        if obj not in scored and obj not in held:
                            held[obj] = (i, grade)
            else:
                delivered = 0
                for i, read in enumerate(reads):
                    pair = read()
                    if pair is None:
                        continue
                    delivered = 1
                    obj, grade = pair
                    bottoms[i] = grade
                    if obj not in scored and obj not in held:
                        held[obj] = (i, grade)
            if delivered == 0:
                # Every list exhausted: all objects seen. The exhaustion
                # probe performed no sorted accesses, so it is not a
                # round — ``rounds`` reports only depths actually
                # reached (== the per-list maximum sorted depth).
                break
            rounds += delivered
            tau = aggregation.evaluate_trusted(bottoms)
            bound_at = len(best) + len(held) - k
            if bound_at < 0:
                continue  # fewer than k objects seen
            if bound_at < len(best) and not rule.met(best[bound_at], tau):
                continue  # not even the bound stops: keep holding
            if held:
                _complete(sources, aggregation, vectorized, held, scored, best, k)
            if rule.met(best[0], tau):
                break
        if held:
            _complete(sources, aggregation, vectorized, held, scored, best, k)

        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"rounds": rounds, "threshold": tau, "seen": len(scored)},
            guarantee=rule.guarantee(tau),
        )


def _complete(sources, aggregation, vectorized, held, scored, best, k):
    """Complete and score every held object, then release them.

    Each list j is looked up, in one ``random_access_many``, for the
    held objects it did not surface first; the grade that surfaced an
    object fills its own list's row. The (m, n) rows — column idx is
    the idx-th held object in first-seen order — are scored in one
    kernel sweep when the batch is large enough to amortise the numpy
    round-trip, by the scalar fold otherwise (the kernels equal it bit
    for bit), and merged into ``scored`` and ``best``.
    """
    firsts = [first for first, _ in held.values()]
    seeds = [grade for _, grade in held.values()]
    rows = []
    for j, source in enumerate(sources):
        lookups = [obj for obj, first in zip(held, firsts) if first != j]
        fetched = iter(source.random_access_many(lookups) if lookups else ())
        rows.append(
            [seed if first == j else next(fetched)
             for first, seed in zip(firsts, seeds)]
        )
    if vectorized and len(held) >= _KERNEL_MIN_PENDING:
        scores = aggregation.evaluate_columns(rows)
    else:
        evaluate = aggregation.evaluate_trusted
        scores = [evaluate(list(grades)) for grades in zip(*rows)]
    scored.update(zip(held, scores))
    best.extend(scores)
    best.sort()
    del best[:-k]
    held.clear()


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
