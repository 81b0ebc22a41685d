"""Result cursors: incremental paging through a graded answer.

Section 4: "the algorithm has the nice feature that after finding the
top k answers, in order to find the next k best answers we can
'continue where we left off.'" :class:`ResultCursor` is that feature as
an API object: open a monotone query once, then pull ``next_k`` pages,
each reusing every sorted- and random-access result of the previous
pages. The union of the pages equals what a single one-shot ``top_k``
with the combined k would return (same grades; ties may resolve to
either valid answer set), which is what makes paging honest.
"""

from __future__ import annotations

import operator

from repro.access.cost import AccessStats, CostModel, UNWEIGHTED
from repro.access.session import MiddlewareSession
from repro.algorithms.base import TopKResult
from repro.algorithms.fa import IncrementalFagin
from repro.core.aggregation import AggregationFunction
from repro.core.certify import (
    CertifiedResult,
    GradeBounds,
    Guarantee,
    validate_epsilon,
)
from repro.core.query import Query
from repro.exceptions import EngineConfigurationError, PlanningError

__all__ = ["ResultCursor", "validate_k"]


def validate_k(k: object, what: str = "k") -> int:
    """``k`` as a positive built-in int, or a clear boundary error.

    ``bool`` is an int subclass (``True < 1`` is False), so without
    the explicit rejection ``k=True`` would silently run as k=1; a
    float k would instead fail deep in the paging machinery. Anything
    implementing ``__index__`` (numpy integers included) is accepted
    and normalised.
    """
    if isinstance(k, bool):
        raise ValueError(f"{what} must be an integer, got {k!r}")
    try:
        k = operator.index(k)
    except TypeError:
        raise ValueError(
            f"{what} must be an integer, got {type(k).__name__}"
        ) from None
    if k < 1:
        raise ValueError(f"{what} must be at least 1, got {k}")
    return k


class ResultCursor:
    """A pageable answer stream for one monotone query.

    Created via ``Engine.query(...).cursor()`` (or directly over a
    session for library-level use). Built on
    :class:`~repro.algorithms.fa.IncrementalFagin`, so every page
    "continues where we left off".

    Parameters
    ----------
    session:
        The instrumented sources the cursor may read.
    aggregation:
        The monotone aggregation t of ``Ft(A1..Am)``.
    default_k:
        Page size when :meth:`next_k` is called without one.
    query:
        Optional query AST, for provenance/repr only.
    cost_model:
        Pricing for :meth:`total_cost`.
    on_page:
        Optional observer called with each fetched page's
        :class:`~repro.algorithms.base.TopKResult`. The engine wires
        its serving ledger here so cursor traffic shows up in
        :meth:`~repro.engine.engine.Engine.metrics_snapshot`; the
        callback runs on the fetching thread, after the page is
        recorded, and must not raise.
    epsilon:
        The approximation slack the caller would accept. Incremental
        paging is *exact* per page (Proposition 4.1), so every page
        over-delivers on any ε — the slack is recorded so the cursor's
        certified snapshots state the ε that was asked for.
    """

    def __init__(
        self,
        session: MiddlewareSession,
        aggregation: AggregationFunction,
        *,
        default_k: int = 10,
        query: Query | None = None,
        cost_model: CostModel = UNWEIGHTED,
        on_page=None,
        epsilon: float = 0.0,
    ) -> None:
        if not aggregation.monotone:
            raise PlanningError(
                "cursors require a monotone aggregation (Theorem 4.2)"
            )
        default_k = validate_k(default_k, "default page size")
        self.query = query
        self._session = session
        self._aggregation = aggregation
        self._default_k = default_k
        self._cost_model = cost_model
        self._epsilon = validate_epsilon(epsilon)
        self._incremental = IncrementalFagin(session, aggregation)
        self._pages: list[TopKResult] = []
        self._on_page = on_page
        self._last_bounds: dict | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Paging
    # ------------------------------------------------------------------

    def next_k(self, k: int | None = None) -> TopKResult:
        """The next ``k`` best answers after everything already paged.

        The page's :class:`~repro.algorithms.base.TopKResult` carries
        the *incremental* access cost — what this page added on top of
        the previous pages' work.

        ``k`` must be positive: the cursor validates it up front (a
        clear error at the API boundary) rather than relying on the
        paging machinery to reject it mid-flight.

        Each page's ``details`` carries a ``certified`` block — the
        anytime bound state *as of that page* (answers certified so
        far, the last certified grade, and the certified upper bound
        on everything unreturned) — and the page's ``guarantee``
        records the anytime guarantee. The same snapshot is readable
        from :meth:`live_bounds`.
        """
        if self._closed:
            raise EngineConfigurationError(
                "cursor is stopped: stop() sealed it with a certified "
                "partial answer; open a new cursor to page further"
            )
        if k is not None:
            k = validate_k(k)
        page = self._incremental.next_batch(
            self._default_k if k is None else k
        )
        certified = self._certified_block(
            page.items[-1].grade if page.items else None
        )
        page = TopKResult(
            items=page.items,
            stats=page.stats,
            algorithm=page.algorithm,
            details={**page.details, "certified": certified},
            guarantee=self._page_guarantee(certified),
        )
        self._pages.append(page)
        self._last_bounds = certified
        if self._on_page is not None:
            self._on_page(page)
        return page

    def stop(self) -> CertifiedResult:
        """Seal the cursor and certify everything fetched so far.

        Returns a :class:`~repro.core.certify.CertifiedResult` whose
        items are the pages already fetched (an exact top-r by
        Proposition 4.1), whose per-item bounds are degenerate (the
        grades are exact), and whose guarantee's ``threshold`` is the
        certified upper bound on every answer *not* returned — the
        anytime guarantee: "here is a correct prefix, and nothing you
        are missing grades above θ". Subsequent :meth:`next_k` calls
        raise; :meth:`stop` itself is idempotent.
        """
        self._closed = True
        certified = (
            self._last_bounds
            if self._last_bounds is not None
            else self._certified_block(None)
        )
        items = self.fetched
        return CertifiedResult(
            items=items,
            guarantee=self._page_guarantee(certified),
            bounds={
                item.obj: GradeBounds(item.grade, item.grade)
                for item in items
            },
            details={
                "certified": certified,
                "pages": self.pages_fetched,
                "algorithm": "A0-incremental",
            },
        )

    # ------------------------------------------------------------------
    # Certified bound state
    # ------------------------------------------------------------------

    def _certified_block(self, last_grade: float | None) -> dict:
        """The anytime bound state right now, as a plain dict."""
        return {
            "kind": "anytime",
            "epsilon": self._epsilon,
            "answers_certified": len(self._incremental.returned),
            "last_grade": last_grade,
            "remaining_upper": self._incremental.remaining_upper(),
        }

    def _page_guarantee(self, certified: dict) -> Guarantee:
        return Guarantee(
            "anytime",
            epsilon=0.0,  # pages are exact; ε is over-delivered
            threshold=certified["remaining_upper"],
        )

    def live_bounds(self) -> dict | None:
        """The certified bound state after the most recent page.

        ``None`` before the first page. Otherwise a dict with
        ``answers_certified`` (r — the prefix is an exact top-r),
        ``last_grade`` (the r-th certified grade), and
        ``remaining_upper`` (certified upper bound on every unreturned
        object's grade). ``remaining_upper`` tightens monotonically as
        pages are pulled — watching it fall is the anytime story.
        """
        return dict(self._last_bounds) if self._last_bounds else None

    @property
    def guarantee(self) -> Guarantee | None:
        """The guarantee of the answer-so-far (None before any page)."""
        if self._last_bounds is None:
            return None
        return self._page_guarantee(self._last_bounds)

    @property
    def epsilon(self) -> float:
        """The slack requested at open time (pages stay exact)."""
        return self._epsilon

    @property
    def closed(self) -> bool:
        """True once :meth:`stop` sealed the cursor."""
        return self._closed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def default_k(self) -> int:
        """Page size used when :meth:`next_k` is called without one."""
        return self._default_k

    @property
    def pages_fetched(self) -> int:
        return len(self._pages)

    @property
    def answers_fetched(self) -> int:
        return len(self._incremental.returned)

    @property
    def remaining(self) -> int:
        """Answers the population can still yield (N minus fetched).

        Paging past this raises ``InsufficientObjectsError``; iterators
        (e.g. the async facade's ``async for``) use it to clamp the
        final page and stop cleanly instead.
        """
        return self._session.num_objects - len(self._incremental.returned)

    @property
    def fetched(self) -> tuple:
        """Every answer paged so far, in page order."""
        return tuple(
            item for page in self._pages for item in page.items
        )

    def total_stats(self) -> AccessStats:
        """Accesses spent across all pages (sum of the page deltas)."""
        if not self._pages:
            return AccessStats(
                (0,) * self._session.num_lists,
                (0,) * self._session.num_lists,
            )
        total = self._pages[0].stats
        for page in self._pages[1:]:
            total = total + page.stats
        return total

    def total_cost(self) -> float:
        """c1*S + c2*R spent so far, under the cursor's cost model."""
        return self.total_stats().middleware_cost(self._cost_model)

    def __repr__(self) -> str:
        return (
            f"ResultCursor(pages={self.pages_fetched}, "
            f"answers={self.answers_fetched})"
        )
