"""Algorithm A0 — Fagin's Algorithm (Section 4).

    "The algorithm consists of three phases: sorted access, random
    access, and computation.

    Sorted access phase: For each i, give subsystem i the query Ai
    under sorted access. … Wait until there are at least k 'matches';
    that is, wait until there is a set L of at least k objects such
    that each subsystem has output all of the members of L.

    Random access phase: For each object x that has been seen, do
    random access to each subsystem j to find mu_Aj(x).

    Computation phase: Compute the grade mu_Q(x) = t(mu_A1(x), ...,
    mu_Am(x)) for each object x that has been seen. Let Y be a set
    containing the k objects that have been seen with highest grades
    (ties are broken arbitrarily). The output is then the graded set
    {(x, mu_Q(x)) | x in Y}."

Correct for every *monotone* query (Theorem 4.2, via the
upward-closure Proposition 4.1); middleware cost
O(N^((m-1)/m) * k^(1/m)) with arbitrarily high probability when the
atomic queries are independent (Theorem 5.3), which is optimal for
monotone-and-strict queries (Theorem 6.5).

This module also provides :class:`IncrementalFagin`, implementing the
paper's observation that "after finding the top k answers, in order to
find the next k best answers we can 'continue where we left off.'"
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.access.session import MiddlewareSession
from repro.access.types import ObjectId
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.exceptions import InsufficientObjectsError

__all__ = ["SortedPhaseState", "run_sorted_phase", "FaginA0", "IncrementalFagin"]


@dataclass(slots=True)
class SortedPhaseState:
    """Everything A0's sorted access phase discovers.

    The one state of A0, A0-prime (:mod:`repro.algorithms.fa_min`), the
    variants (:mod:`repro.algorithms.fa_variants`) and
    :class:`IncrementalFagin`, which differ only in how they use it
    once the phase stops.

    Attributes
    ----------
    grades:
        One map per list, object -> grade. It receives the sorted
        deliveries, and the random phase (:func:`fill_missing_grades`)
        fills in the missing grades in place, so ``obj in grades[i]``
        means the grade is *known*, not that list i's prefix delivered
        the object.
    order_by_list:
        X^i_T in delivery order — ``order_by_list[i][r]`` is the object
        at rank ``r + 1`` of list i.
    deliveries:
        How many lists have delivered each object under *sorted*
        access, in first-seen order; its keys are the seen objects.
        This is the match criterion — it must stay separate from
        ``grades`` because a matched object needs ``mu_i(x) >= b_i``
        in every list (it was inside every prefix), which grades
        merely known from random access do not establish. Without it,
        a resumed phase would count an object random-filled by a
        previous batch as matched on its first sorted delivery and
        stop too early.
    matched:
        L — the objects output by *every* list under sorted access (at
        least k of them once the phase ends).
    depth:
        T — the uniform number of sorted accesses made to each list.
    """

    grades: list[dict[ObjectId, float]] = field(default_factory=list)
    order_by_list: list[list[ObjectId]] = field(default_factory=list)
    deliveries: dict[ObjectId, int] = field(default_factory=dict)
    matched: set[ObjectId] = field(default_factory=set)
    depth: int = 0


def run_sorted_phase(
    session: MiddlewareSession,
    k: int,
    state: SortedPhaseState | None = None,
    stop_mid_round: bool = False,
) -> SortedPhaseState:
    """Run (or resume) A0's sorted access phase until |L| >= k.

    Lists are advanced in lockstep, one object per list per round, so
    all lists reach the same depth T — matching the algorithm as
    stated. With ``stop_mid_round`` the phase returns as soon as the
    k-th match appears, even mid-round (one of Section 4's "minor
    improvements"; saves at most m-1 accesses per round).

    Resuming with an existing ``state`` continues where the previous
    phase left off (sources keep their cursors), which is what
    :class:`IncrementalFagin` uses for next-k queries.
    """
    if state is None:
        state = SortedPhaseState()
    m = session.num_lists
    if not state.grades:
        state.grades = [{} for _ in range(m)]
        state.order_by_list = [[] for _ in range(m)]
    sources = session.sources
    grades_by_list = state.grades
    order_by_list = state.order_by_list
    deliveries = state.deliveries
    matched = state.matched
    depth = state.depth

    while len(matched) < k:
        # Each sorted access completes at most one object, so a round of
        # m accesses adds at most m matches: with |L| matches so far, at
        # least ceil((k - |L|)/m) further *full* rounds must run before
        # the phase can stop. Those provably-consumed rounds are fetched
        # in one batch per list — identical access counts, a fraction of
        # the per-access overhead. With ``stop_mid_round`` the stop can
        # land inside the last such round, so that round is held back
        # and read one access per list, checking after each list.
        rounds = -(-(k - len(matched)) // m)
        check_each_list = stop_mid_round and rounds == 1
        if stop_mid_round and rounds > 1:
            rounds -= 1
        progressed = 0
        for i in range(m):
            objects, grades = sources[i].sorted_access_batch(rounds)
            if not objects:
                continue
            if len(objects) > progressed:
                progressed = len(objects)
            order_by_list[i].extend(objects)
            grades_i = grades_by_list[i]
            for obj, grade in zip(objects, grades):
                grades_i[obj] = grade
                delivered = deliveries.get(obj, 0) + 1
                deliveries[obj] = delivered
                if delivered == m:
                    matched.add(obj)
            if check_each_list and len(matched) >= k:
                break
        depth += progressed
        state.depth = depth
        if not progressed:
            # All lists exhausted: every object has been seen in every
            # list, so |matched| = N < k — the caller asked for more
            # answers than objects exist.
            raise InsufficientObjectsError(k, len(matched))
    return state


def fill_missing_grades(
    session: MiddlewareSession,
    state: SortedPhaseState,
    objs: "list[ObjectId] | None" = None,
    skip_list: int | None = None,
) -> None:
    """A0's random access phase: fill in every missing grade.

    "For each object x that has been seen, do random access to each
    subsystem j to find mu_Aj(x)." Grades already known are not
    re-fetched ("if x in X^j_T, then mu_Aj(x) has already been
    determined, so random access is not needed"). Missing pairs are
    grouped per list and fetched with one ``random_access_many`` call
    each — the same pairs a unit loop fetches, charged identically; a
    list whose map already holds every seen object is skipped without
    a scan. ``objs`` restricts the phase to those seen objects (A0'
    completes only its candidates, :class:`IncrementalFagin` only the
    objects a page surfaced); ``skip_list`` is a list known to
    need no lookups (A0''s i0, which delivered every candidate).
    """
    deliveries = state.deliveries
    for j, grades_j in enumerate(state.grades):
        if j == skip_list or len(grades_j) == len(deliveries):
            continue
        missing = [
            obj
            for obj in (deliveries if objs is None else objs)
            if obj not in grades_j
        ]
        if missing:
            fetched = session.sources[j].random_access_many(missing)
            grades_j.update(zip(missing, fetched))


def score_objects(
    aggregation: AggregationFunction,
    state: SortedPhaseState,
    objs: "list[ObjectId]",
) -> list[tuple[ObjectId, float]]:
    """A0's computation phase: ``(obj, mu_Q(obj))`` for each of ``objs``.

    Every grade came through the access layer, so the objects are
    scored in one bulk sweep — the vectorized kernel when the
    aggregation has one (one numpy reduction instead of one Python
    call per object), the trusted scalar fold otherwise. Either way no
    per-argument re-validation.
    """
    rows = [[grades_i[obj] for obj in objs] for grades_i in state.grades]
    return list(zip(objs, aggregation.evaluate_columns(rows)))


class FaginA0(TopKAlgorithm):
    """Algorithm A0, exactly as given in Section 4.

    Correctness requires the aggregation to be monotone
    (Theorem 4.2) — this is asserted against the aggregation's
    declared flag unless ``trust_caller`` is set (the cost experiments
    never need to disable it; the flag exists so users can run A0 on
    aggregations they have classified themselves).

    Result ``details``: ``T`` (sorted depth), ``matches`` (|L|),
    ``seen`` (number of distinct objects accessed).

    A0 ignores ε: its stop observes *match counts*, never grades,
    and any certificate about the k-th grade needs k certified
    grades — which A0 only has once it has matched k objects, i.e.
    once it has already stopped. Under every ε A0 therefore runs to
    exact completion and honestly delivers the ``exact`` guarantee
    (stronger than asked). Callers who want real ε-savings get
    steered to TA by the engine's strategy selection.
    """

    name = "A0"

    def __init__(self, trust_caller: bool = False) -> None:
        self._trust_caller = trust_caller

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        if not aggregation.monotone and not self._trust_caller:
            raise ValueError(
                f"A0 is only guaranteed correct for monotone queries "
                f"(Theorem 4.2); {aggregation.name!r} is declared "
                "non-monotone. Pass trust_caller=True to override."
            )
        state = run_sorted_phase(session, k)
        fill_missing_grades(session, state)
        scored = score_objects(aggregation, state, list(state.deliveries))
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={
                "T": state.depth,
                "matches": len(state.matched),
                "seen": len(state.deliveries),
            },
        )


class IncrementalFagin:
    """Resumable A0: repeated next-k batches over one session.

    The paper: "the algorithm has the nice feature that after finding
    the top k answers, in order to find the next k best answers we can
    'continue where we left off.'"

    Each :meth:`next_batch` call extends the sorted phase until the
    match set is large enough to certify the next batch, runs the random
    phase over only the objects that extension surfaced (every earlier
    one was completed by the batch that surfaced it, so no known grade
    is fetched or looked for again), and excludes the already-returned
    answers.

    >>> # doctest-style sketch; see examples/quickstart.py for a runnable one
    >>> # inc = IncrementalFagin(session, MINIMUM)
    >>> # first10 = inc.next_batch(10); next10 = inc.next_batch(10)
    """

    def __init__(
        self, session: MiddlewareSession, aggregation: AggregationFunction
    ) -> None:
        if not aggregation.monotone:
            raise ValueError(
                "IncrementalFagin requires a monotone aggregation "
                "(Theorem 4.2)"
            )
        self._session = session
        self._aggregation = aggregation
        self._state = SortedPhaseState()
        self._returned: list[ObjectId] = []
        #: Overall grades of the seen objects not yet returned. An
        #: object's grades are complete after its first random phase,
        #: so its aggregate never changes: it is scored once, by the
        #: batch that completes it, and leaves this map when returned.
        self._unreturned: dict[ObjectId, float] = {}
        #: How many seen objects, a prefix of ``deliveries`` in
        #: first-seen order, have been scored.
        self._scored = 0
        #: The best unreturned seen grade and the last returned grade,
        #: kept as pages are cut so remaining_upper() scans nothing.
        self._best_unreturned = 0.0
        self._last_returned = 0.0

    @property
    def returned(self) -> tuple[ObjectId, ...]:
        """Objects already output, in output order."""
        return tuple(self._returned)

    def frontier(self) -> list[float]:
        """Per-list bottom grades at the current sorted depth.

        ``frontier()[i]`` is the grade of the deepest object list i has
        delivered under sorted access (1.0 before any access — grades
        live in [0, 1], so the top of the range is the trivial bound).
        This is exactly NRA's ``b_i`` bookkeeping, mined from the A0
        sorted-phase state the cursor already keeps.
        """
        state = self._state
        if not state.order_by_list:
            return [1.0] * self._session.num_lists
        return [
            grades_i[order[-1]] if order else 1.0
            for grades_i, order in zip(state.grades, state.order_by_list)
        ]

    def unseen_upper(self) -> float:
        """A certified upper bound on every *unseen* object's grade:
        ``t(b_1, ..., b_m)`` by monotonicity (NRA's unseen bound)."""
        return self._aggregation.evaluate_trusted(self.frontier())

    def remaining_upper(self) -> float:
        """A certified upper bound on every not-yet-returned grade.

        Three facts compose. Every *seen* object's aggregate is exact
        after its random phase, so the best unreturned seen grade is
        known outright; every *unseen* object is bounded by
        ``t(b_1..b_m)`` (monotonicity); and the returned prefix is an
        exact top-r (Proposition 4.1), so nothing unreturned can
        exceed the last returned grade. The bound is the min of the
        third with the max of the first two — it tightens monotonically
        as paging deepens, which is what makes the cursor *anytime*.
        """
        upper = max(self._best_unreturned, self.unseen_upper())
        if self._returned:
            upper = min(upper, self._last_returned)
        return upper

    def next_batch(self, k: int) -> TopKResult:
        """The next ``k`` best answers after those already returned.

        Correctness: once |L| >= r + k (r answers already returned),
        Proposition 4.1 puts the true top r + k objects inside the seen
        set; the previously returned objects are exactly a valid top-r,
        so ranking the remaining seen objects yields a valid next-k.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        total_needed = len(self._returned) + k
        if total_needed > self._session.num_objects:
            raise InsufficientObjectsError(
                total_needed, self._session.num_objects
            )
        session, state = self._session, self._state
        before = session.tracker.snapshot()
        run_sorted_phase(session, total_needed, state=state)
        unreturned = self._unreturned
        if len(state.deliveries) > self._scored:
            # Complete and score only the objects this batch surfaced:
            # every earlier one was completed by the batch that surfaced
            # it, and its aggregate is kept, not re-derived.
            fresh = list(islice(state.deliveries, self._scored, None))
            fill_missing_grades(session, state, fresh)
            unreturned.update(score_objects(self._aggregation, state, fresh))
            self._scored = len(state.deliveries)
        # One selection past the page: in the same total order, its
        # first k items are the page and the extra one carries the best
        # unreturned seen grade.
        ranked = top_k_of(unreturned, k + 1)
        items = ranked[:k]
        for item in items:
            del unreturned[item.obj]
        self._best_unreturned = ranked[k].grade if len(ranked) > k else 0.0
        self._last_returned = items[-1].grade
        batch_start = len(self._returned)
        self._returned.extend(item.obj for item in items)
        return TopKResult(
            items=items,
            stats=session.tracker.snapshot() - before,
            algorithm="A0-incremental",
            details={"T": state.depth, "batch_start": batch_start},
        )


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import (
    StrategyCapabilities,
    envelope_depth,
    register_strategy,
)


def _select_fagin(aggregation, num_lists, random_access, cost_model):
    if random_access and aggregation.monotone:
        return (
            "monotone query: A0 is correct (Theorem 4.2) and optimal when "
            "also strict (Theorem 6.5)"
        )
    return None


def _estimate_fagin(n: int, m: int, k: int) -> tuple[float, float]:
    # Sorted phase: m lists read to Theorem 5.3's expected depth; the
    # random phase then completes the grades of the distinct objects
    # seen (~87% of the sorted reads on independent lists, benchmark
    # E1) in each of the other m - 1 lists.
    depth = envelope_depth(n, m, k)
    est_sorted = m * depth
    est_random = (m - 1) * 0.87 * est_sorted
    return (min(est_sorted, m * n), min(est_random, (m - 1) * n))


register_strategy(
    "fagin",
    FaginA0,
    StrategyCapabilities(monotone_only=True, needs_random_access=True),
    priority=50,
    selector=_select_fagin,
    aliases=("A0", "fa"),
    summary="Theorem 4.2: Fagin's Algorithm for any monotone query",
    cost_estimate=_estimate_fagin,
)
