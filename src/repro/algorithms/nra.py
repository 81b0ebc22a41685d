"""NRA — top-k with **no random access** (extension).

Section 4 assumes the subsystems support random access, with a telling
footnote: "We are assuming that QBIC can do such 'random accesses'
(which, in fact, it can)." Subsystems that *cannot* — streaming
engines, remote ranked feeds — motivated the No-Random-Access
algorithm of the paper's successor line (Fagin-Lotem-Naor, PODS 2001).
We implement the **exact-grades** variant, which fits this library's
answer contract (Section 4 requires the output grades to be the true
grades):

1. Do sorted access in lockstep rounds over the m lists, maintaining
   for every seen object its known grades and, per list i, the bottom
   grade ``b_i`` seen so far.
2. For any object x, the true grade is bounded above by
   ``B(x) = t(g_1', ..., g_m')`` where ``g_i'`` is x's known grade in
   list i, or ``b_i`` if unknown (monotonicity); unseen objects are
   bounded by ``t(b_1, ..., b_m)``.
3. An object seen in *every* list has its exact grade. Stop as soon as
   k exactly-known objects have grades >= every other object's upper
   bound (including the unseen bound); output those k.

Compared with A0: zero random accesses, but the sorted phase runs past
A0's stopping depth (it must wait until upper bounds fall below the
k-th exact grade, not merely for k matches). The E16 benchmark
quantifies the trade under both cheap and expensive random access.
"""

from __future__ import annotations

import heapq

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.algorithms.fa import SortedPhaseState, run_sorted_phase, score_objects
from repro.core.aggregation import AggregationFunction
from repro.core.certify import EXACT, QualityContract
from repro.core.kernels import as_grade_matrix, evaluate_matrix, kernel_for
from repro.exceptions import InsufficientObjectsError

__all__ = ["NoRandomAccessAlgorithm"]


class NoRandomAccessAlgorithm(TopKAlgorithm):
    """Top-k via sorted access only, for monotone aggregations.

    Result ``details``: ``rounds`` (sorted depth reached), ``seen``
    (distinct objects encountered), ``exact`` (objects whose grade was
    fully resolved when the run stopped).

    NRA's state is A0's :class:`~repro.algorithms.fa.SortedPhaseState`:
    one grade map per list and the per-object count of sorted
    deliveries. An object delivered by every list has its exact grade,
    so NRA's exact objects are A0's matches, and its warm-up — lockstep
    chunks until k grades are exact — is A0's sorted phase run to k
    matches; the warm-up's matches are scored in one sweep. Later rounds
    read one ``sorted_access_next`` pair per list into the same maps and
    certify after each. The unseen-bound test stays passed once it
    passes (see the forever-certified invariant below), so it is not
    re-evaluated.

    NRA honours quality contracts: under an ε-approximate contract
    both upper-bound comparisons (the unseen bound and the candidate
    sweep) run against the relaxed bar ``(1 + ε) * kth_best`` instead
    of ``kth_best``. The forever-certified pruning invariant survives
    the relaxation — the bar is monotone non-decreasing (the k-th best
    exact grade only rises) while upper bounds only fall, so an object
    certified under the bar stays certified. At ε=0 the bar *is*
    ``kth_best`` (no float round-trip), keeping exact runs
    bit-identical.
    """

    name = "NRA"
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
                "NRA requires a monotone aggregation; "
                f"{aggregation.name!r} is declared non-monotone"
            )
        m = session.num_lists
        sources = session.sources
        rule = contract.stopping_rule()
        evaluate = aggregation.evaluate_trusted
        # Certification needs k exact grades first, and a round of m
        # sorted accesses completes at most m objects — exactly A0's
        # sorted phase, which fetches its provably consumed rounds as
        # one batch per list. When the lists run out first (the session
        # claims more objects than they deliver), every grade that can
        # become exact is exact, and NRA returns what it has.
        state = SortedPhaseState()
        try:
            run_sorted_phase(session, k, state)
            exhausted = False
        except InsufficientObjectsError:
            exhausted = True
        grades_by_list = state.grades
        deliveries = state.deliveries
        exact = dict(
            score_objects(
                aggregation,
                state,
                [obj for obj, count in deliveries.items() if count == m],
            )
        )
        # Min-heap of the k best exact grades (an ascending list is one):
        # exact grades never change, so the k-th best is maintained
        # incrementally instead of re-selected per certification round.
        best = sorted(exact.values())[-k:]
        # b_i: the last grade list i delivered (1.0 before its first).
        bottoms = [
            grades_i[order[-1]] if order else 1.0
            for grades_i, order in zip(grades_by_list, state.order_by_list)
        ]
        rounds = state.depth
        # Partially-seen objects whose upper bound might still exceed
        # the k-th best exact grade, in first-seen order. Upper bounds
        # only ever *fall* (bottoms decrease; a discovered grade is at
        # most the bottom it replaced) and the k-th best only ever
        # rises, so an object that once certified (upper <= k-th best)
        # stays certified — the scan may skip it in every later round.
        # ``cand_start`` is the shared scan head: everything before it
        # is certified forever (or exact), so a certification round
        # that fails at its head costs O(1), not O(|seen|).
        candidates = list(deliveries)
        cand_start = 0
        vectorized = kernel_for(aggregation) is not None
        # The unseen bound t(b_1..b_m) only falls and the bar only
        # rises, so once the bound is at or below the bar it stays
        # there: the test is latched rather than re-evaluated.
        unseen_certified = False
        reads = [source.sorted_access_next for source in sources]

        while not exhausted:
            # The certification bar: ``kth_best`` exactly, or the
            # contract's relaxed ``(1 + ε) * kth_best``.
            limit = rule.limit(best[0])
            # Upper bound for unseen objects first; then the surviving
            # partially-seen objects. (Exactly-known objects are covered
            # by kth_best itself; previously-certified objects stay
            # certified — see the monotonicity note at ``candidates``.)
            # Advance the scan head past resolved objects first:
            # amortised O(1), since the head only moves forward
            # between sweeps.
            if unseen_certified or evaluate(bottoms) <= limit:
                unseen_certified = True
                while (
                    cand_start < len(candidates)
                    and candidates[cand_start] in exact
                ):
                    cand_start += 1
                if cand_start >= len(candidates):
                    break  # no partially-seen object is left uncertified
                if vectorized:
                    certified, candidates, cand_start = (
                        self._certify_vectorized(
                            aggregation, grades_by_list, exact, bottoms,
                            candidates, cand_start, limit,
                        )
                    )
                else:
                    certified, cand_start = self._certify_scalar(
                        aggregation, grades_by_list, exact, bottoms,
                        candidates, cand_start, limit,
                    )
                if certified:
                    break
            # One more lockstep round into the same maps, one pair per
            # list.
            progressed = False
            for i, read in enumerate(reads):
                pair = read()
                if pair is None:
                    continue
                progressed = True
                obj, grade = pair
                bottoms[i] = grade
                grades_by_list[i][obj] = grade
                count = deliveries.get(obj, 0) + 1
                deliveries[obj] = count
                if count == 1 and not unseen_certified:
                    # After the latch a new object is certified at
                    # birth: its known grade is a bottom, so its upper
                    # bound is the latched t(b_1..b_m), and it only
                    # falls. No sweep needs to see it.
                    candidates.append(obj)
                if count == m:
                    overall = exact[obj] = evaluate(
                        [grades_j[obj] for grades_j in grades_by_list]
                    )
                    if overall > best[0]:
                        heapq.heapreplace(best, overall)
            if not progressed:
                break  # every list exhausted: all grades exact
            rounds += 1

        return TopKResult(
            items=top_k_of(exact, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={
                "rounds": rounds,
                "seen": len(deliveries),
                "exact": len(exact),
            },
            guarantee=rule.guarantee(
                rule.limit(best[0]) if len(best) >= k else None
            ),
        )

    @staticmethod
    def _certify_vectorized(
        aggregation, grades_by_list, exact, bottoms, candidates, start, limit
    ):
        """One kernel evaluation certifies (or prunes) every candidate.

        Returns ``(certified, candidates, start)``. Rounds that cannot
        certify are the common case deep in a run, and the scalar loop
        dismissed them at its *first* violator; the bulk path must not
        pay a full matrix build to learn the same thing.
        ``candidates[start]`` is last round's first violator, so one
        scalar probe of it restores the early exit — only when the
        probe passes is the vectorized sweep worth building: the
        candidates' upper-bound matrix (known grades where available,
        the current per-list bottom otherwise), scored in one call.
        The sweep's survivors — exactly the objects still above the
        certification bar (the k-th best exact grade, ε-relaxed under
        an approximate contract) — become the new candidate list;
        everything else is certified forever.
        """
        head = candidates[start]
        if (
            aggregation.evaluate_trusted(
                [
                    grades_j.get(head, bottom)
                    for grades_j, bottom in zip(grades_by_list, bottoms)
                ]
            )
            > limit
        ):
            return False, candidates, start
        pending = [
            obj for obj in candidates[start:] if obj not in exact
        ]
        rows = [
            [grades_j.get(obj, bottom) for obj in pending]
            for grades_j, bottom in zip(grades_by_list, bottoms)
        ]
        uppers = evaluate_matrix(aggregation, as_grade_matrix(rows))
        assert uppers is not None  # kernel_for gated the vectorized path
        violations = uppers > limit
        if not violations.any():
            return True, [], 0
        survivors = [
            obj
            for obj, violating in zip(pending, violations.tolist())
            if violating
        ]
        return False, survivors, 0

    @staticmethod
    def _certify_scalar(
        aggregation, grades_by_list, exact, bottoms, candidates, start, limit
    ):
        """Scalar fallback: early-exit scan behind the shared head.

        Returns ``(certified, start)``. Candidates checked before the
        first violation are certified — the head advances past them
        forever; the violator and the unchecked tail survive in place
        (no per-round list rebuilds).
        """
        evaluate = aggregation.evaluate_trusted
        for idx in range(start, len(candidates)):
            obj = candidates[idx]
            if obj in exact:
                continue
            upper = evaluate(
                [
                    grades_j.get(obj, bottom)
                    for grades_j, bottom in zip(grades_by_list, bottoms)
                ]
            )
            if upper > limit:
                return False, idx
        return True, len(candidates)


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import (
    EXPENSIVE_RANDOM_ACCESS_RATIO,
    StrategyCapabilities,
    envelope_depth,
    register_strategy,
)


def _select_nra(aggregation, num_lists, random_access, cost_model):
    if not aggregation.monotone:
        return None
    if not random_access:
        return (
            "a subsystem lacks random access: NRA evaluates monotone "
            "queries from sorted streams alone (successor of "
            "Section 4's footnote-5 assumption)"
        )
    if (
        cost_model is not None
        and cost_model.random_weight
        >= EXPENSIVE_RANDOM_ACCESS_RATIO * cost_model.sorted_weight
    ):
        return (
            f"random access costs c2/c1 = "
            f"{cost_model.random_weight / cost_model.sorted_weight:.0f}x "
            "a sorted access: the sorted-only NRA avoids that spend "
            "(heuristic calibrated by benchmark E16)"
        )
    return None


register_strategy(
    "nra",
    NoRandomAccessAlgorithm,
    StrategyCapabilities(monotone_only=True, needs_random_access=False),
    priority=20,
    selector=_select_nra,
    aliases=("NRA",),
    summary="sorted-access-only top-k for monotone queries (FLN successor)",
    # Sorted-only: runs a small constant factor deeper than A0's
    # sorted phase (benchmark E16) but pays zero random accesses.
    cost_estimate=lambda n, m, k: (
        min(1.05 * m * envelope_depth(n, m, k), m * n),
        0.0,
    ),
)
