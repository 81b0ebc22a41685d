"""Tests for the Engine facade and fluent QueryBuilder."""

import pytest

from repro.algorithms.base import is_valid_top_k
from repro.algorithms.ullman import UllmanAlgorithm
from repro.core.tnorms import MINIMUM
from repro.engine import Engine, ExecutionContext
from repro.exceptions import EngineConfigurationError, PlanningError
from repro.middleware.executor import QueryAnswer
from repro.middleware.plan import AlgorithmPlan, FilteredConjunctPlan
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem


@pytest.fixture
def fed_engine(albums):
    from repro.middleware.planner import PlannerOptions

    engine = Engine(
        ExecutionContext(planner=PlannerOptions(selectivity_threshold=0.25))
    )
    engine.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {"Artist": a.artist, "Genre": a.genre}
                for a in albums
            },
        )
    )
    engine.register(
        QbicSubsystem(
            "qbic",
            {"AlbumColor": {a.album_id: a.cover_rgb for a in albums}},
        )
    )
    return engine


class TestSourceBacked:
    def test_auto_selection_answers_correctly(self, db2):
        engine = Engine.over(db2)
        result = engine.query(MINIMUM).top(7)
        assert result.algorithm == "A0-prime"
        assert is_valid_top_k(result.items, db2.overall_grades(MINIMUM), 7)

    def test_forced_strategy_by_name(self, db2):
        result = Engine.over(db2).query(MINIMUM).strategy("fagin").top(5)
        assert result.algorithm == "A0"
        assert is_valid_top_k(result.items, db2.overall_grades(MINIMUM), 5)

    def test_forced_strategy_by_instance(self, db2):
        result = (
            Engine.over(db2)
            .query(MINIMUM)
            .strategy(UllmanAlgorithm(sorted_list=1))
            .top(3)
        )
        assert result.algorithm == "ullman"
        assert is_valid_top_k(result.items, db2.overall_grades(MINIMUM), 3)

    def test_using_chains_like_query_argument(self, db2):
        via_query = Engine.over(db2).query(MINIMUM).top(4)
        via_using = Engine.over(db2).query().using(MINIMUM).top(4)
        assert via_query.items == via_using.items

    def test_default_k_comes_from_context(self, db2):
        engine = Engine.over(db2, ExecutionContext(default_k=3))
        assert Engine.over(db2).query(MINIMUM).top().k == 10
        assert engine.query(MINIMUM).top().k == 3

    def test_no_random_access_restricts_selection(self, db2):
        result = Engine.over(db2, random_access=False).query(MINIMUM).top(5)
        assert result.algorithm == "NRA"
        assert result.stats.random_cost == 0

    def test_missing_aggregation_raises(self, db2):
        with pytest.raises(EngineConfigurationError, match="aggregation"):
            Engine.over(db2).query().top(5)

    def test_string_query_rejected(self, db2):
        with pytest.raises(EngineConfigurationError):
            Engine.over(db2).query("Color ~ 'red'").top(5)

    def test_register_rejected(self, db2):
        with pytest.raises(EngineConfigurationError):
            Engine.over(db2).register(object())

    def test_bad_backing_rejected(self, db2):
        """Only a store backs an engine: every run mints its own
        session from it, so a live session, a bound session factory
        and a bare callable are refused like any other object, with
        the accepted backing named."""
        for backing in (42, db2.session(), db2.session, lambda: db2.session()):
            with pytest.raises(EngineConfigurationError, match=r"session\(\)"):
                Engine.over(backing)


class TestCatalogBacked:
    def test_string_query_returns_query_answer(self, fed_engine):
        answer = fed_engine.query('AlbumColor ~ "red"').top(5)
        assert isinstance(answer, QueryAnswer)
        assert answer.result.k == 5
        assert isinstance(answer.plan, AlgorithmPlan)

    def test_filtered_conjunct_plan_still_chosen(self, fed_engine):
        answer = fed_engine.query(
            '(Artist = "Beatles") AND (AlbumColor ~ "red")'
        ).top(3)
        assert isinstance(answer.plan, FilteredConjunctPlan)

    def test_strategy_override_on_algorithm_plan(self, fed_engine):
        answer = fed_engine.query('AlbumColor ~ "red"').strategy("nra").top(5)
        assert answer.result.algorithm == "NRA"
        assert "forced" in answer.plan.reason

    def test_strategy_override_rejected_on_filtered_plan(self, fed_engine):
        with pytest.raises(PlanningError, match="pluggable"):
            fed_engine.query(
                '(Artist = "Beatles") AND (AlbumColor ~ "red")'
            ).strategy("fagin").top(3)

    def test_using_rejected_for_catalog_queries(self, fed_engine):
        with pytest.raises(EngineConfigurationError, match="using"):
            fed_engine.query('AlbumColor ~ "red"').using(MINIMUM).top(3)

    def test_explain_mentions_strategy(self, fed_engine):
        text = fed_engine.query('AlbumColor ~ "red"').explain()
        assert "AlgorithmPlan" in text

    def test_plan_without_execution(self, fed_engine):
        plan = fed_engine.query('AlbumColor ~ "red"').plan()
        assert isinstance(plan, AlgorithmPlan)

    def test_engine_matches_garlic_shim(self, fed_engine):
        """The replacement for the removed ``Garlic.query(q, k)`` — an
        engine over the same context and subsystems, queried with the
        shim's explicit external conjunction — answers identically."""
        text = '(Artist = "Beatles") AND (AlbumColor ~ "red")'
        direct = fed_engine.query(text).top(4)
        migrated = Engine(fed_engine.context)
        for subsystem in fed_engine.catalog.subsystems:
            migrated.register(subsystem)
        replacement = migrated.query(text).conjunction("external").top(4)
        assert replacement.items == direct.items
        assert replacement.result.algorithm == direct.result.algorithm
