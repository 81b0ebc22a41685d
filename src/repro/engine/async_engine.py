"""The async facade: embed the engine in an event-loop server.

The paper's middleware is a *serving* layer — Garlic answering many
users' fuzzy queries over autonomous subsystems. Modern server
frameworks (asyncio, ASGI apps) want that surface awaitable:

    async with AsyncEngine(engine, max_workers=8) as serving:
        result = await serving.top_k(MINIMUM, k=10)
        batch = await serving.run_many([MINIMUM, MEDIAN], k=10)
        async for page in serving.cursor(MINIMUM, page_size=25):
            ...

:class:`AsyncEngine` owns a :class:`~concurrent.futures.ThreadPoolExecutor`
and delegates every call to the wrapped (synchronous)
:class:`~repro.engine.engine.Engine` on it, so the event loop never
blocks on a sorted-access drain. Concurrency safety comes from the
engine's serving architecture, not from magic here: the backing stores
are shared read-only, every query run mints its own session, and the
subsystem ranking caches are single-flight — see DESIGN.md's
"Concurrency model". The one stateful object, a paging cursor, is
wrapped in :class:`AsyncResultCursor`, which serialises its page
fetches behind an :class:`asyncio.Lock` (a cursor is single-consumer
by contract).
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable

from repro.core.aggregation import AggregationFunction
from repro.engine.batch import BatchResult
from repro.engine.cursor import ResultCursor
from repro.engine.engine import Engine
from repro.exceptions import EngineConfigurationError

__all__ = ["AsyncEngine", "AsyncResultCursor", "POOL_PARALLELISM"]

#: Sentinel default for :meth:`AsyncEngine.run_many`'s ``parallel``:
#: "use the facade's own worker count". Distinct from ``None``, which
#: the engine defines as the serial batch path.
POOL_PARALLELISM = object()

#: Default worker count for the facade's pool — a small multiple of a
#: typical request fan-out, not of the core count: the work is mostly
#: lock-free reads over shared stores, and the pool also bounds how
#: many sessions a burst of requests mints at once.
DEFAULT_MAX_WORKERS = 8


class AsyncEngine:
    """Awaitable wrapper over an :class:`~repro.engine.engine.Engine`.

    Parameters
    ----------
    engine:
        The synchronous engine to serve. Every backing is safe to run
        queries on from several threads: stores and ranking caches are
        shared read-only, and each run mints its own session.
    max_workers:
        Size of the facade's thread pool — the maximum number of
        queries in flight at once.
    """

    def __init__(
        self, engine: Engine, *, max_workers: int = DEFAULT_MAX_WORKERS
    ) -> None:
        if max_workers < 1:
            raise ValueError(
                f"max_workers must be at least 1, got {max_workers}"
            )
        self.engine = engine
        self.max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-async-engine"
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "AsyncEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Shut the pool down (idempotent); in-flight queries finish.

        Also releases the wrapped engine's owned execution resources —
        for a sharded engine, its worker processes and shared-memory
        segments — after the drain, so no in-flight query loses its
        substrate (``Engine.close`` is a no-op on other backings).
        """
        if not self._closed:
            self._closed = True
            pool = self._pool
            # shutdown(wait=True) blocks until drained — keep that off
            # the event loop.
            await asyncio.get_running_loop().run_in_executor(
                None, functools.partial(pool.shutdown, wait=True)
            )
            await asyncio.get_running_loop().run_in_executor(
                None, self.engine.close
            )

    def close(self) -> None:
        """Synchronous shutdown, for non-async teardown paths."""
        self._closed = True
        self._pool.shutdown(wait=True)
        self.engine.close()

    async def _call(self, fn, /, *args, **kwargs):
        if self._closed:
            raise EngineConfigurationError(
                "this AsyncEngine is closed; create a new one"
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )

    # ------------------------------------------------------------------
    # Query surface
    # ------------------------------------------------------------------

    def _builder(
        self, query, strategy, conjunction, adaptive=None, epsilon=None
    ):
        builder = self.engine.query(query)
        if strategy is not None:
            builder.strategy(strategy)
        if conjunction is not None:
            builder.conjunction(conjunction)
        if adaptive is not None:
            builder.adaptive(adaptive)
        if epsilon is not None:
            builder.epsilon(epsilon)
        return builder

    async def top_k(
        self,
        query: "str | object | AggregationFunction | None" = None,
        k: int | None = None,
        *,
        strategy: object | None = None,
        conjunction: str | None = None,
        adaptive: "bool | None" = None,
        epsilon: "float | None" = None,
    ):
        """``engine.query(query).top(k)``, off the event loop.

        ``query`` is a string/AST for catalog-backed engines or an
        aggregation function for source-backed ones — the same
        contract as :meth:`Engine.query`. ``adaptive=False`` opts this
        query out of the engine's adaptive planning layer; ``epsilon``
        accepts a certified ε-approximate answer (the θ/(1+ε)
        stopping rule), overriding the context default.
        """
        return await self._call(
            lambda: self._builder(
                query, strategy, conjunction, adaptive, epsilon
            ).top(k)
        )

    async def run_many(
        self,
        queries: Iterable[object],
        k: int | None = None,
        parallel: "int | None" = POOL_PARALLELISM,
    ) -> BatchResult:
        """``engine.run_many``, off the event loop.

        ``parallel`` defaults to :data:`POOL_PARALLELISM` — the
        facade's worker count, so one awaited batch saturates the pool
        it already owns. Pass an explicit ``parallel=None`` to request
        the engine's *serial* batch (members one after another), or any
        positive int to size the batch's own worker pool.

        Note the batch runs on a pool of its own inside
        ``Engine.run_many`` while one facade worker awaits it — a
        deliberate simplicity tradeoff (thread spawn is microseconds
        against a batch's milliseconds of access work; sharing the
        facade pool would deadlock once batches queued behind their
        own members).
        """
        if parallel is POOL_PARALLELISM:
            # Sharded engines refuse an explicit parallel= (their
            # worker-process pool is the parallelism); the facade's
            # default resolves to the engine-default batch path there.
            parallel = (
                None if self.engine.sharding is not None else self.max_workers
            )
        return await self._call(
            self.engine.run_many, list(queries), k=k, parallel=parallel
        )

    async def explain(self, query: object, conjunction: str | None = None):
        """``engine.explain`` (catalog-backed engines), off the loop."""
        return await self._call(self.engine.explain, query, conjunction)

    async def metrics_snapshot(self) -> dict:
        """``engine.metrics_snapshot``, off the event loop.

        The snapshot itself is a cheap locked read, but it is routed
        through the pool like every other engine call so a closed
        facade refuses it consistently and the lock is never taken on
        the event loop thread.
        """
        return await self._call(self.engine.metrics_snapshot)

    def cursor(
        self,
        query: "str | object | AggregationFunction | None" = None,
        *,
        conjunction: str | None = None,
        page_size: int | None = None,
        epsilon: "float | None" = None,
    ) -> "AsyncResultCursor":
        """An async paging cursor: ``await next_k`` / ``async for``.

        Nothing touches a subsystem until the first page is awaited
        (opening the cursor mints sources, so it happens on the pool).
        Each awaited page carries the live anytime bound state (see
        :meth:`AsyncResultCursor.live_bounds`), and :meth:`stop` seals
        the cursor into a certified partial answer.
        """
        if page_size is not None and page_size < 1:
            raise ValueError(
                f"page size must be at least 1, got {page_size}"
            )
        return AsyncResultCursor(
            self,
            opener=lambda: self._builder(
                query, None, conjunction, epsilon=epsilon
            ).cursor(),
            page_size=page_size,
        )

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"workers={self.max_workers}"
        return f"AsyncEngine({self.engine!r}, {state})"


class AsyncResultCursor:
    """Async wrapper over :class:`~repro.engine.cursor.ResultCursor`.

    Pages with ``await cursor.next_k(k)`` or ``async for page in
    cursor`` (pages of ``page_size``, ending cleanly when the
    population is exhausted). A cursor is single-consumer: an
    :class:`asyncio.Lock` serialises page fetches, so two concurrent
    awaits cannot interleave the underlying incremental state.
    """

    def __init__(self, owner: AsyncEngine, opener, page_size: int | None) -> None:
        self._owner = owner
        self._opener = opener
        self._page_size = page_size
        self._cursor: ResultCursor | None = None
        self._fetch_lock = asyncio.Lock()

    async def _ensure_open(self) -> ResultCursor:
        if self._cursor is None:
            self._cursor = await self._owner._call(self._opener)
        return self._cursor

    async def next_k(self, k: int | None = None):
        """The next ``k`` best answers (one serialised page fetch).

        Without an explicit ``k`` the cursor's configured ``page_size``
        applies (falling back to the engine context's default page), so
        ``next_k()`` and ``async for`` page at the same size.
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if k is None:
            k = self._page_size  # None falls through to the default
        async with self._fetch_lock:
            cursor = await self._ensure_open()
            return await self._owner._call(cursor.next_k, k)

    async def next_page(self, k: int | None = None):
        """The next page of up to ``k`` answers (``page_size`` by
        default), clamped to what the population has left — how
        ``async for`` and the HTTP cursor page.

        The clamp runs in the same pool call that opens the cursor, so
        a fresh cursor pages exactly like one that has already served a
        page. Only an exhausted cursor still raises
        ``InsufficientObjectsError``.
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        async with self._fetch_lock:
            return await self._owner._call(self._clamped_page, k)

    def _clamped_page(self, k: int | None):
        # Runs on the pool, under the fetch lock.
        if self._cursor is None:
            self._cursor = self._opener()
        cursor = self._cursor
        if k is None:
            k = self._page_size or cursor.default_k
        if cursor.remaining > 0:
            k = min(k, cursor.remaining)
        return cursor.next_k(k)

    def __aiter__(self) -> "AsyncResultCursor":
        return self

    async def __anext__(self):
        async with self._fetch_lock:
            cursor = await self._ensure_open()
            if cursor.remaining <= 0 or cursor.closed:
                raise StopAsyncIteration
            return await self._owner._call(self._clamped_page, None)

    # ------------------------------------------------------------------
    # Introspection (safe without await: plain reads of paged state)
    # ------------------------------------------------------------------

    @property
    def pages_fetched(self) -> int:
        return 0 if self._cursor is None else self._cursor.pages_fetched

    @property
    def answers_fetched(self) -> int:
        return 0 if self._cursor is None else self._cursor.answers_fetched

    @property
    def remaining(self) -> int | None:
        """Answers the population can still yield, mirroring
        :attr:`~repro.engine.cursor.ResultCursor.remaining` so paging
        clients can stop cleanly instead of provoking
        ``InsufficientObjectsError`` on a final over-page.

        ``None`` until the first page has been awaited: an unopened
        cursor has not minted its session yet, so the population size
        is not known (and opening it here would mean subsystem work on
        the event loop thread).
        """
        return None if self._cursor is None else self._cursor.remaining

    def live_bounds(self) -> dict | None:
        """The certified anytime bound state after the last page.

        Mirrors :meth:`~repro.engine.cursor.ResultCursor.live_bounds`:
        ``None`` until a page has been awaited, then a dict whose
        ``remaining_upper`` tightens monotonically as paging deepens.
        A plain read of already-paged state — safe without await.
        """
        return None if self._cursor is None else self._cursor.live_bounds()

    @property
    def guarantee(self):
        """The guarantee of the answer-so-far (None before any page)."""
        return None if self._cursor is None else self._cursor.guarantee

    async def stop(self):
        """Seal the cursor into a certified partial answer.

        Serialised behind the fetch lock so an in-flight page completes
        (and its bounds land) before the cursor is certified — the
        returned :class:`~repro.core.certify.CertifiedResult` always
        covers everything actually fetched. An unopened cursor is
        opened first, certifying the honest empty prefix.
        """
        async with self._fetch_lock:
            cursor = await self._ensure_open()
            return await self._owner._call(cursor.stop)

    def total_stats(self):
        """Accesses spent across all pages (zero-page cursors excluded)."""
        if self._cursor is None:
            raise EngineConfigurationError(
                "no pages fetched yet; await next_k() first"
            )
        return self._cursor.total_stats()

    def __repr__(self) -> str:
        if self._cursor is None:
            return "AsyncResultCursor(unopened)"
        return f"Async{self._cursor!r}"
