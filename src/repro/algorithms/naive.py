"""The naive linear algorithm (Section 4).

    "There is an obvious naive algorithm:
     1. Have the subsystem dealing with color … output explicitly the
        graded set consisting of all pairs (x, mu_A1(x)) for every
        object x.
     2. Have the subsystem dealing with shape … output … all pairs
        (x, mu_A2(x)) …
     3. Use this information to compute mu_{A1 AND A2}(x) =
        min(mu_A1(x), mu_A2(x)) for every object x. For the k objects x
        with the top grades, output the object along with its grade."

Cost: exactly m*N sorted accesses, 0 random accesses — "the naive
algorithm must retrieve a number of elements that is linear in the
database size" (Abstract). It is, however, correct for *every*
aggregation function (monotone or not), which makes it both the
baseline of experiment E9 and the ground-truth oracle in tests, and —
by Theorem 7.1 — essentially optimal for the hard query of Section 7.
"""

from __future__ import annotations

import numpy as _np

from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKAlgorithm, TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.kernels import evaluate_columns

__all__ = ["NaiveAlgorithm"]


class NaiveAlgorithm(TopKAlgorithm):
    """Full scan of every list; correct for any aggregation function."""

    name = "naive"

    #: Sorted accesses fetched per batch while draining a list. The scan
    #: is unconditional (every list is read to the end), so any chunk
    #: size yields the same m*N access count; this one keeps batches
    #: comfortably cache-sized.
    SCAN_BATCH = 4096

    def _run(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        k: int,
        epsilon: float,
    ) -> TopKResult:
        # Drain every list, keeping each list's delivery as parallel
        # (object, grade) columns — the cheapest possible shape to
        # re-align by object afterwards.
        deliveries: list[tuple[list, list]] = []
        for source in session.sources:
            objs: list = []
            grades: list[float] = []
            while True:
                batch_objects, batch_grades = source.sorted_access_batch(
                    self.SCAN_BATCH
                )
                if not batch_objects:
                    break
                objs.extend(batch_objects)
                grades.extend(batch_grades)
            deliveries.append((objs, grades))

        m = session.num_lists
        # Intern objects in first-seen order (list 0's delivery order,
        # then anything later lists add) — the same iteration order the
        # dict-of-dicts implementation produced.
        index: dict[object, int] = {}
        for objs, _ in deliveries:
            for obj in objs:
                if obj not in index:
                    index[obj] = len(index)
        n = len(index)

        if any(len(objs) != n for objs, _ in deliveries):
            self._raise_missing(deliveries, index, m)

        scored = self._score(aggregation, deliveries, index, n, m)

        # top_k_of selects with heapq.nlargest semantics — no full sort
        # of all N aggregate grades, no GradedItem minting for losers.
        return TopKResult(
            items=top_k_of(scored, k),
            stats=session.tracker.snapshot(),
            algorithm=self.name,
            details={"objects_scanned": n},
        )

    def _score(self, aggregation, deliveries, index, n, m):
        """Aggregate the aligned grade matrix into (object, score) pairs."""
        matrix = _np.empty((m, n), dtype=_np.float64)
        for i, (objs, grades) in enumerate(deliveries):
            positions = _np.fromiter(
                map(index.__getitem__, objs), dtype=_np.intp, count=n
            )
            covered = _np.zeros(n, dtype=bool)
            covered[positions] = True
            if not covered.all():
                # n items but not n distinct objects: a duplicate is
                # hiding a missing (object, list) pair.
                self._raise_missing(deliveries, index, m)
            matrix[i, positions] = grades
        return list(zip(index, evaluate_columns(aggregation, matrix, n)))

    @staticmethod
    def _raise_missing(deliveries, index, m):
        """Replicate the dict-based error for a short list.

        An object missing from some list violates the Section 5 model
        (every list grades all N objects); surface it — with the same
        message the pre-vectorization implementation raised — rather
        than silently grading 0.
        """
        by_object: dict[object, dict[int, float]] = {obj: {} for obj in index}
        for i, (objs, grades) in enumerate(deliveries):
            for obj, grade in zip(objs, grades):
                by_object[obj][i] = grade
        for obj, by_list in by_object.items():
            if len(by_list) != m:
                missing = [i for i in range(m) if i not in by_list]
                raise ValueError(
                    f"object {obj!r} missing from list(s) {missing}; "
                    "scoring databases must grade every object in every list"
                )
        raise AssertionError(  # pragma: no cover - lists disagreed in size
            "list lengths diverged without a missing (object, list) pair"
        )


# ----------------------------------------------------------------------
# Registry self-registration
# ----------------------------------------------------------------------

from repro.engine.registry import StrategyCapabilities, register_strategy


def _select_naive(aggregation, num_lists, random_access, cost_model):
    # Monotone workloads are claimed upstream (B0/NRA/median/A0'/A0);
    # the naive scan is the guaranteed-correct fallback for the rest.
    if aggregation.monotone:
        return None
    if not random_access:
        return "non-monotone query without random access: full sorted scan"
    return (
        "non-monotone aggregation: only the naive full scan is guaranteed "
        "correct (cf. the Theta(N) hard query of Theorem 7.1)"
    )


register_strategy(
    "naive",
    NaiveAlgorithm,
    StrategyCapabilities(monotone_only=False, needs_random_access=False),
    priority=100,
    selector=_select_naive,
    summary="full scan; the only fully-general strategy (Theorem 7.1)",
    # Exact, not an envelope: the scan reads every list end to end.
    cost_estimate=lambda n, m, k: (float(m * n), 0.0),
)
