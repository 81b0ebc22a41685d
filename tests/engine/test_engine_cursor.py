"""ResultCursor paging vs one-shot top_k — the Section 4 promise."""

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.core.aggregation import FunctionAggregation
from repro.engine import Engine
from repro.engine.cursor import ResultCursor
from repro.exceptions import InsufficientObjectsError, PlanningError
from repro.workloads.skeletons import independent_database


@pytest.fixture(scope="module")
def db():
    return independent_database(2, 400, seed=21)


class TestPagingEquivalence:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_next_k_matches_one_shot_top_k(self, db, k):
        """Acceptance: paged answers equal a one-shot top-k on the
        independent workload, for k in {1, 5, 20}."""
        engine = Engine.over(db)
        one_shot = engine.query(MINIMUM).top(k)
        cursor = engine.query(MINIMUM).cursor()
        page = cursor.next_k(k)
        assert {i.obj for i in page.items} == {
            i.obj for i in one_shot.items
        }
        assert sorted(page.grades()) == pytest.approx(
            sorted(one_shot.grades())
        )

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_many_small_pages_match_one_shot(self, db, k):
        engine = Engine.over(db)
        one_shot = engine.query(MINIMUM).top(k)
        cursor = engine.query(MINIMUM).cursor()
        paged = []
        while len(paged) < k:
            paged.extend(cursor.next_k(min(2, k - len(paged))).items)
        assert {i.obj for i in paged} == {i.obj for i in one_shot.items}

    def test_pages_are_disjoint_and_ordered(self, db):
        cursor = Engine.over(db).query(ARITHMETIC_MEAN).cursor()
        first = cursor.next_k(10)
        second = cursor.next_k(10)
        first_objs = {i.obj for i in first.items}
        assert first_objs.isdisjoint(i.obj for i in second.items)
        assert min(first.grades()) >= max(second.grades()) - 1e-12

    def test_later_pages_reuse_progress(self, db):
        cursor = Engine.over(db).query(MINIMUM).cursor()
        first = cursor.next_k(10)
        second = cursor.next_k(10)
        # The second page pays only the incremental cost.
        assert second.stats.sum_cost < first.stats.sum_cost

    def test_bookkeeping(self, db):
        cursor = Engine.over(db).query(MINIMUM).cursor()
        assert cursor.pages_fetched == 0
        cursor.next_k(3)
        cursor.next_k(4)
        assert cursor.pages_fetched == 2
        assert cursor.answers_fetched == 7
        assert len(cursor.fetched) == 7
        total = cursor.total_stats()
        assert total.sum_cost == pytest.approx(cursor.total_cost())

    def test_default_page_size_from_context(self, db):
        cursor = Engine.over(db).query(MINIMUM).cursor()
        assert cursor.next_k().k == 10


class TestCursorValidation:
    def test_forced_strategy_rejected(self, db):
        """Cursors always page with IncrementalFagin; a forced strategy
        must raise rather than be silently discarded."""
        with pytest.raises(PlanningError, match="strategy"):
            Engine.over(db).query(MINIMUM).strategy("naive").cursor()

    def test_non_monotone_rejected(self, db):
        bad = FunctionAggregation(
            lambda *g: 1.0 - min(g), "anti", monotone=False
        )
        with pytest.raises(PlanningError, match="monotone"):
            Engine.over(db).query(bad).cursor()

    def test_exhausting_the_database_raises(self):
        tiny = independent_database(2, 5, seed=1)
        cursor = Engine.over(tiny).query(MINIMUM).cursor()
        cursor.next_k(4)
        with pytest.raises(InsufficientObjectsError):
            cursor.next_k(2)

    def test_catalog_backed_cursor(self, albums):
        from repro.subsystems.qbic import QbicSubsystem

        engine = Engine().register(
            QbicSubsystem(
                "qbic",
                {"Color": {a.album_id: a.cover_rgb for a in albums}},
            )
        )
        one_shot = engine.query('Color ~ "red"').top(6)
        cursor = engine.query('Color ~ "red"').cursor()
        paged = list(cursor.next_k(3).items) + list(cursor.next_k(3).items)
        assert {i.obj for i in paged} == {i.obj for i in one_shot.items}


class TestNonPositiveK:
    """Regression: k <= 0 must fail loudly at the API boundary."""

    @pytest.mark.parametrize("k", [0, -1, -10])
    def test_next_k_rejects_nonpositive(self, db, k):
        cursor = Engine.over(db).query(MINIMUM).cursor()
        with pytest.raises(ValueError, match="k must be at least 1"):
            cursor.next_k(k)
        assert cursor.pages_fetched == 0  # nothing was consumed

    @pytest.mark.parametrize("k", [0, -5])
    def test_engine_top_rejects_nonpositive(self, db, k):
        with pytest.raises(ValueError, match="k must be at least 1"):
            Engine.over(db).query(MINIMUM).top(k)

    def test_catalog_top_rejects_nonpositive(self, albums):
        from repro.subsystems.qbic import QbicSubsystem

        engine = Engine().register(
            QbicSubsystem(
                "qbic",
                {"Color": {a.album_id: a.cover_rgb for a in albums}},
            )
        )
        with pytest.raises(ValueError, match="k must be at least 1"):
            engine.query('Color ~ "red"').top(0)

    def test_cursor_rejects_nonpositive_default_page(self, db):
        session = db.session()
        with pytest.raises(ValueError, match="default page size"):
            ResultCursor(session, MINIMUM, default_k=0)

    def test_remaining_counts_down(self, db):
        cursor = Engine.over(db).query(MINIMUM).cursor()
        before = cursor.remaining
        cursor.next_k(4)
        assert cursor.remaining == before - 4
