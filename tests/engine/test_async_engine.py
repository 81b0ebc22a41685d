"""The async facade: awaitable top-k, batches, and cursor paging.

No pytest-asyncio dependency: each test drives its coroutine with
``asyncio.run`` — the facade is the thing under test, not the runner.
"""

import asyncio
import time

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.engine import AsyncEngine, Engine
from repro.exceptions import EngineConfigurationError
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.workloads.skeletons import independent_database

N = 120


@pytest.fixture(scope="module")
def db():
    return independent_database(3, N, seed=5)


class SlowStore:
    """A store whose ``session()`` blocks ``delay_s`` before minting,
    so every query on the pool takes at least that long."""

    def __init__(self, db, delay_s: float) -> None:
        self.db = db
        self.delay_s = delay_s

    def session(self):
        time.sleep(self.delay_s)
        return self.db.session()


def _catalog_engine():
    objs = [f"o{i}" for i in range(30)]
    engine = Engine()
    engine.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Artist": "Beatles" if i < 4 else f"a{i % 5}"}
                for i, o in enumerate(objs)
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "img",
            {"Color": {o: (i / 30, 0.2, 0.1) for i, o in enumerate(objs)}},
        )
    )
    return engine


class TestTopK:
    def test_source_backed_matches_sync(self, db):
        sync = Engine.over(db).query(MINIMUM).top(8)

        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                return await serving.top_k(MINIMUM, k=8)

        result = asyncio.run(run())
        assert result.items == sync.items
        assert result.stats == sync.stats

    def test_catalog_backed_matches_sync(self):
        engine = _catalog_engine()
        sync = engine.query('Color ~ "red"').top(5)

        async def run():
            async with AsyncEngine(engine) as serving:
                return await serving.top_k('Color ~ "red"', k=5)

        result = asyncio.run(run())
        assert result.items == sync.items

    def test_concurrent_awaits_are_independent(self, db):
        """Many queries in flight at once: each gets its own session,
        so answers and per-query stats match solo runs exactly."""
        aggs = [MINIMUM, ARITHMETIC_MEAN] * 4
        solos = [Engine.over(db).query(a).top(6) for a in aggs]

        async def run():
            async with AsyncEngine(Engine.over(db), max_workers=8) as serving:
                return await asyncio.gather(
                    *(serving.top_k(a, k=6) for a in aggs)
                )

        results = asyncio.run(run())
        for solo, got in zip(solos, results):
            assert got.items == solo.items
            assert got.stats == solo.stats

    def test_strategy_passthrough(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                return await serving.top_k(MINIMUM, k=5, strategy="fagin")

        assert asyncio.run(run()).algorithm.startswith("A0")


class TestRunMany:
    def test_delegates_with_pool_parallelism(self, db):
        serial = Engine.over(db).run_many([MINIMUM, ARITHMETIC_MEAN], k=6)

        async def run():
            async with AsyncEngine(Engine.over(db), max_workers=4) as serving:
                return await serving.run_many([MINIMUM, ARITHMETIC_MEAN], k=6)

        batch = asyncio.run(run())
        assert batch.details["parallel"] == 4
        assert [a.items for a in batch] == [a.items for a in serial]
        assert batch.total_sorted == serial.total_sorted
        assert batch.total_random == serial.total_random


class TestCursor:
    def test_async_for_pages_the_whole_population(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                pages = []
                async for page in serving.cursor(MINIMUM, page_size=50):
                    pages.append(page)
                return pages

        pages = asyncio.run(run())
        assert sum(len(p.items) for p in pages) == N
        assert [len(p.items) for p in pages] == [50, 50, 20]
        fetched = [item.obj for page in pages for item in page.items]
        assert len(set(fetched)) == N  # no duplicates across pages

    def test_pages_match_sync_cursor(self, db):
        sync_cursor = Engine.over(db).query(MINIMUM).cursor()
        sync_pages = [sync_cursor.next_k(25) for _ in range(3)]

        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                cursor = serving.cursor(MINIMUM)
                return [await cursor.next_k(25) for _ in range(3)]

        async_pages = asyncio.run(run())
        for sync_page, async_page in zip(sync_pages, async_pages):
            assert async_page.items == sync_page.items
            assert async_page.stats == sync_page.stats

    def test_concurrent_page_fetches_serialise(self, db):
        """Two awaits racing on one cursor must not interleave the
        incremental state: together they page exactly 2×k answers."""

        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                cursor = serving.cursor(MINIMUM)
                first, second = await asyncio.gather(
                    cursor.next_k(10), cursor.next_k(10)
                )
                return cursor, first, second

        cursor, first, second = asyncio.run(run())
        assert cursor.answers_fetched == 20
        fetched = {item.obj for page in (first, second) for item in page.items}
        assert len(fetched) == 20

    def test_rejects_nonpositive_page_sizes(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                with pytest.raises(ValueError, match="k must be at least 1"):
                    await serving.cursor(MINIMUM).next_k(0)
                with pytest.raises(ValueError, match="page size"):
                    serving.cursor(MINIMUM, page_size=0)

        asyncio.run(run())


class TestLifecycle:
    def test_closed_facade_refuses_queries(self, db):
        async def run():
            serving = AsyncEngine(Engine.over(db))
            await serving.aclose()
            with pytest.raises(EngineConfigurationError, match="closed"):
                await serving.top_k(MINIMUM, k=3)

        asyncio.run(run())

    def test_sync_close_is_idempotent(self, db):
        serving = AsyncEngine(Engine.over(db))
        serving.close()
        serving.close()

    def test_rejects_nonpositive_workers(self, db):
        with pytest.raises(ValueError, match="max_workers"):
            AsyncEngine(Engine.over(db), max_workers=0)


class TestRunManySerialOptOut:
    """parallel=None through the facade reaches the engine's serial
    batch (the sentinel default, not None, means "use the pool
    width")."""

    def test_explicit_none_gets_shared_session(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db), max_workers=4) as serving:
                return await serving.run_many(
                    [MINIMUM, ARITHMETIC_MEAN], k=6, parallel=None
                )

        batch = asyncio.run(run())
        serial = Engine.over(db).run_many([MINIMUM, ARITHMETIC_MEAN], k=6)
        assert "parallel" not in batch.details
        assert (batch.total_sorted, batch.total_random) == (
            serial.total_sorted,
            serial.total_random,
        )

    def test_explicit_worker_count_overrides_pool(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db), max_workers=4) as serving:
                return await serving.run_many([MINIMUM], k=6, parallel=2)

        assert asyncio.run(run()).details["parallel"] == 2


class TestCursorPageSizeDefault:
    def test_next_k_without_k_uses_configured_page_size(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                cursor = serving.cursor(MINIMUM, page_size=5)
                return await cursor.next_k()

        assert len(asyncio.run(run()).items) == 5


class TestErrorPaths:
    """Serving-layer hardening: the facade's failure modes are clean,
    deterministic, and leave the shared store untouched."""

    def test_invalid_k_surfaces_as_value_error(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                with pytest.raises(ValueError):
                    await serving.top_k(MINIMUM, k=-3)
                # The facade is still usable after a client error.
                return await serving.top_k(MINIMUM, k=3)

        assert len(asyncio.run(run()).items) == 3

    def test_cursor_rejects_invalid_page_requests(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                with pytest.raises(ValueError, match="page size"):
                    serving.cursor(MINIMUM, page_size=0)
                cursor = serving.cursor(MINIMUM, page_size=5)
                with pytest.raises(ValueError, match="k must be"):
                    await cursor.next_k(0)

        asyncio.run(run())

    def test_closed_facade_refuses_everything(self, db):
        async def run():
            serving = AsyncEngine(Engine.over(db))
            cursor = serving.cursor(MINIMUM, page_size=5)
            await serving.aclose()
            with pytest.raises(EngineConfigurationError, match="closed"):
                await serving.top_k(MINIMUM, k=3)
            with pytest.raises(EngineConfigurationError, match="closed"):
                await serving.metrics_snapshot()
            with pytest.raises(EngineConfigurationError, match="closed"):
                await cursor.next_k(5)

        asyncio.run(run())

    def test_cancelled_top_k_leaves_engine_healthy(self, db):
        """Cancelling an in-flight await abandons delivery only; the
        per-query session means no shared state is left inconsistent."""
        solo = Engine.over(db).query(MINIMUM).top(6)

        async def run():
            async with AsyncEngine(Engine.over(SlowStore(db, 0.2))) as serving:
                task = asyncio.ensure_future(serving.top_k(MINIMUM, k=6))
                await asyncio.sleep(0.02)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                return await serving.top_k(MINIMUM, k=6)

        after = asyncio.run(run())
        assert after.items == solo.items
        assert after.stats == solo.stats

    def test_deadline_cancelled_cursor_page_keeps_store_consistent(self, db):
        """A timed-out page fetch (the serving layer's 504 path) must
        not corrupt the shared store: later queries and a fresh cursor
        still produce bit-identical answers."""
        solo = Engine.over(db).query(MINIMUM).top(6)

        async def run():
            async with AsyncEngine(Engine.over(SlowStore(db, 0.2))) as serving:
                cursor = serving.cursor(MINIMUM, page_size=6)
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(cursor.next_k(6), 0.02)
                fresh = serving.cursor(MINIMUM, page_size=6)
                page = await fresh.next_k(6)
                result = await serving.top_k(MINIMUM, k=6)
                return page, result

        page, result = asyncio.run(run())
        assert page.items == solo.items
        assert result.items == solo.items
        assert result.stats == solo.stats


class TestRemainingPassthrough:
    def test_none_before_first_page_then_counts_down(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                cursor = serving.cursor(MINIMUM, page_size=10)
                before = cursor.remaining
                await cursor.next_k(10)
                return before, cursor.remaining

        before, after = asyncio.run(run())
        assert before is None
        assert after == N - 10


class TestMetricsSnapshotPassthrough:
    def test_matches_sync_ledger(self, db):
        async def run():
            async with AsyncEngine(Engine.over(db)) as serving:
                await serving.top_k(MINIMUM, k=5)
                return serving.engine, await serving.metrics_snapshot()

        engine, snapshot = asyncio.run(run())
        assert snapshot == engine.metrics_snapshot()
        assert snapshot["queries"] == 1
        assert snapshot["access"]["total"] > 0
