"""Engine.metrics_snapshot(): the cumulative serving ledger.

The snapshot is the process-wide counterpart of a single result's
AccessStats — every completed query, batch member, and cursor page
adds its accesses; catalog engines additionally report per-subsystem
RankingCache counters.
"""

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.workloads.skeletons import independent_database

N = 150


@pytest.fixture()
def db():
    return independent_database(3, N, seed=7)


def catalog_engine() -> Engine:
    objs = [f"o{i}" for i in range(40)]
    return (
        Engine()
        .register(
            RelationalSubsystem(
                "rel",
                {o: {"Artist": f"a{i % 4}"} for i, o in enumerate(objs)},
            )
        )
        .register(
            QbicSubsystem(
                "img",
                {
                    "Color": {
                        o: (i / 40, 0.3, 0.2) for i, o in enumerate(objs)
                    }
                },
            )
        )
    )


class TestSourceBacked:
    def test_fresh_engine_all_zero(self, db):
        snap = Engine.over(db).metrics_snapshot()
        assert snap["backing"] == "source"
        assert snap["queries"] == 0
        assert snap["cursor_pages"] == 0
        assert snap["access"] == {"sorted": 0, "random": 0, "total": 0}
        assert snap["ranking_caches"] == {}
        assert snap["cache_totals"] == {"hits": 0, "misses": 0}

    def test_query_adds_its_stats_exactly(self, db):
        engine = Engine.over(db)
        result = engine.query(MINIMUM).top(5)
        snap = engine.metrics_snapshot()
        assert snap["queries"] == 1
        assert snap["access"]["sorted"] == result.stats.sorted_cost
        assert snap["access"]["random"] == result.stats.random_cost
        assert snap["access"]["total"] == result.stats.sum_cost

    def test_queries_accumulate(self, db):
        engine = Engine.over(db)
        first = engine.query(MINIMUM).top(5)
        second = engine.query(ARITHMETIC_MEAN).top(5)
        snap = engine.metrics_snapshot()
        assert snap["queries"] == 2
        assert (
            snap["access"]["sorted"]
            == first.stats.sorted_cost + second.stats.sorted_cost
        )

    def test_cursor_pages_counted_separately(self, db):
        engine = Engine.over(db)
        cursor = engine.query(MINIMUM).cursor()
        pages = [cursor.next_k(10) for _ in range(3)]
        snap = engine.metrics_snapshot()
        assert snap["queries"] == 0
        assert snap["cursor_pages"] == 3
        assert snap["access"]["sorted"] == sum(
            page.stats.sorted_cost for page in pages
        )

    def test_run_many_counts_each_member(self, db):
        engine = Engine.over(db)
        batch = engine.run_many([MINIMUM, ARITHMETIC_MEAN, MINIMUM], k=4)
        snap = engine.metrics_snapshot()
        assert snap["queries"] == 3
        assert snap["access"]["sorted"] == batch.total_sorted
        assert snap["access"]["random"] == batch.total_random

    def test_parallel_run_many_matches_serial_ledger(self, db):
        serial_engine = Engine.over(db)
        serial_engine.run_many([MINIMUM, ARITHMETIC_MEAN] * 3, k=4)
        parallel_engine = Engine.over(db)
        parallel_engine.run_many(
            [MINIMUM, ARITHMETIC_MEAN] * 3, k=4, parallel=4
        )
        serial = serial_engine.metrics_snapshot()
        parallel = parallel_engine.metrics_snapshot()
        assert serial["access"] == parallel["access"]
        assert serial["queries"] == parallel["queries"] == 6

    def test_snapshot_is_json_safe(self, db):
        import json

        engine = Engine.over(db)
        engine.query(MINIMUM).top(3)
        json.dumps(engine.metrics_snapshot())


class TestPlannerBlock:
    def test_planner_block_reports_adaptive_state(self, db):
        engine = Engine.over(db)
        engine.query(MINIMUM).top(5)
        planner = Engine.over(db).metrics_snapshot()["planner"]
        assert planner["enabled"] is True
        assert set(planner) == {"enabled", "plan_cache", "chooser"}
        planner = engine.metrics_snapshot()["planner"]
        assert planner["chooser"]["decisions"] == 1

    def test_plan_cache_counters_flow_through(self):
        engine = catalog_engine()
        engine.query('Color ~ "red"').top(5)
        engine.query('Color ~ "blue"').top(5)
        cache = engine.metrics_snapshot()["planner"]["plan_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] == 1
        assert cache["entries"] == 1

    def test_disabled_context_reports_enabled_false(self, db):
        from repro.engine.context import ExecutionContext

        engine = Engine.over(db, ExecutionContext(adaptive=False))
        engine.query(MINIMUM).top(5)
        assert engine.metrics_snapshot()["planner"] == {"enabled": False}

    def test_planner_block_is_json_safe(self, db):
        import json

        engine = Engine.over(db)
        for _ in range(6):
            engine.query(MINIMUM).top(5)
        json.dumps(engine.metrics_snapshot()["planner"])


class TestCatalogBacked:
    def test_reports_per_subsystem_caches(self):
        engine = catalog_engine()
        engine.query('Color ~ "red"').top(5)
        snap = engine.metrics_snapshot()
        assert snap["backing"] == "catalog"
        assert set(snap["ranking_caches"]) == {"rel", "img"}
        img = snap["ranking_caches"]["img"]
        assert img["misses"] >= 1
        assert img["entries"] >= 1
        assert snap["cache_totals"]["misses"] >= 1

    def test_repeat_query_shows_cache_hits(self):
        engine = catalog_engine()
        engine.query('Color ~ "red"').top(5)
        engine.query('Color ~ "red"').top(5)
        snap = engine.metrics_snapshot()
        assert snap["cache_totals"]["hits"] >= 1
        assert snap["queries"] == 2

    def test_reports_admission_rejections(self):
        """A capacity-1 cache declines an atom requested less often than
        its resident one; the snapshot shows it beside hits and misses,
        and ``cache_totals`` keeps its two keys."""
        objs = [f"o{i}" for i in range(40)]
        engine = Engine().register(
            QbicSubsystem(
                "img",
                {"Color": {o: (i / 40, 0.3, 0.2) for i, o in enumerate(objs)}},
                cache_capacity=1,
            )
        )
        for colour in ("red", "red", "blue"):
            engine.query(f'Color ~ "{colour}"').top(5)
        snap = engine.metrics_snapshot()
        assert snap["ranking_caches"]["img"] == {
            "hits": 1, "misses": 2, "rejected": 1, "entries": 1, "capacity": 1,
        }
        assert snap["cache_totals"] == {"hits": 1, "misses": 2}

    def test_snapshot_does_not_mint_caches(self):
        """Reporting must peek, never create: a fresh catalog engine's
        snapshot reports zeros without instantiating RankingCaches."""
        engine = catalog_engine()
        snap = engine.metrics_snapshot()
        for counters in snap["ranking_caches"].values():
            assert counters["hits"] == 0
            assert counters["misses"] == 0
            assert counters["rejected"] == 0
            assert counters["entries"] == 0
        for subsystem in engine.catalog.subsystems:
            assert "_ranking_cache" not in subsystem.__dict__
