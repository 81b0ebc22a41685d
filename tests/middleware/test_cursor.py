"""Tests for cursors over federated queries (paged answers)."""

import pytest

from repro.engine import Engine, ExecutionContext
from repro.exceptions import PlanningError
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem


@pytest.fixture
def engine():
    import random

    rng = random.Random(11)
    objs = [f"o{i}" for i in range(100)]
    g = Engine()
    g.register(
        QbicSubsystem(
            "qbic",
            {
                "Color": {o: (rng.random(), rng.random(), rng.random())
                          for o in objs},
                "Shape": {o: (rng.random(),) for o in objs},
            },
            named_targets={"Shape": {"round": (1.0,)}},
        )
    )
    g.register(
        RelationalSubsystem(
            "rel", {o: {"Tag": "x" if i < 5 else "y"}
                    for i, o in enumerate(objs)}
        )
    )
    return g


QUERY = '(Color ~ "red") AND (Shape ~ "round")'


class TestPaging:
    def test_pages_match_one_shot_query(self, engine):
        cursor = engine.query(QUERY).cursor()
        page1 = cursor.next_k(5)
        page2 = cursor.next_k(5)
        combined_grades = list(page1.grades()) + list(page2.grades())

        one_shot = engine.query(QUERY).top(10)
        assert combined_grades == pytest.approx(
            list(one_shot.result.grades())
        )

    def test_pages_disjoint(self, engine):
        cursor = engine.query(QUERY).cursor()
        p1 = set(cursor.next_k(7).objects())
        p2 = set(cursor.next_k(7).objects())
        assert not p1 & p2

    def test_counters(self, engine):
        cursor = engine.query(QUERY).cursor()
        assert cursor.pages_fetched == 0
        cursor.next_k(4)
        cursor.next_k(4)
        assert cursor.pages_fetched == 2
        assert cursor.answers_fetched == 8

    def test_second_page_cheaper_than_fresh_query(self, engine):
        cursor = engine.query(QUERY).cursor()
        cursor.next_k(10)
        second = cursor.next_k(10)
        fresh = engine.query(QUERY).top(20)
        assert second.stats.sum_cost < fresh.result.stats.sum_cost

    def test_repr(self, engine):
        cursor = engine.query(QUERY).cursor()
        cursor.next_k(3)
        assert "pages=1" in repr(cursor)


class TestCursorEligibility:
    def test_disjunction_not_cursorable(self, engine):
        # Plans to B0 (an AlgorithmPlan) but with the max aggregation —
        # still monotone, so actually fine? B0 uses max which is
        # monotone; the cursor machinery is A0's and works for any
        # monotone aggregation, max included.
        cursor = engine.query('(Color ~ "red") OR (Shape ~ "round")').cursor()
        page = cursor.next_k(3)
        assert page.k == 3

    def test_filtered_plan_not_cursorable(self, engine):
        from repro.middleware.planner import PlannerOptions

        strict = Engine(
            ExecutionContext(planner=PlannerOptions(selectivity_threshold=0.5))
        )
        for sub in engine.catalog.subsystems:
            strict.register(sub)
        with pytest.raises(PlanningError, match="cursor"):
            strict.query('(Tag = "x") AND (Color ~ "red")').cursor()

    def test_full_scan_not_cursorable(self, engine):
        negated = 'NOT (Tag = "x") AND (Color ~ "red")'
        assert engine.query(negated).top(3).result.algorithm == "naive"

        def cache_counters():
            caches = engine.metrics_snapshot()["ranking_caches"]
            return {
                name: (cache["hits"], cache["misses"])
                for name, cache in caches.items()
            }

        before = cache_counters()
        with pytest.raises(PlanningError, match="monotone"):
            engine.query(negated).cursor()
        # Refused before any atom was evaluated: no cache was asked.
        assert cache_counters() == before
