"""End-to-end tests for the Garlic scenario on the CD-store example,
run through the Engine."""

import pytest

from repro.engine import Engine, ExecutionContext
from repro.middleware.planner import PlannerOptions
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.subsystems.text import TextSubsystem


@pytest.fixture
def engine(albums):
    g = Engine(
        ExecutionContext(planner=PlannerOptions(selectivity_threshold=0.25))
    )
    g.register(
        RelationalSubsystem(
            "store-db",
            {
                a.album_id: {
                    "Artist": a.artist,
                    "Year": a.year,
                    "Genre": a.genre,
                }
                for a in albums
            },
        )
    )
    g.register(
        QbicSubsystem(
            "qbic",
            {
                "AlbumColor": {a.album_id: a.cover_rgb for a in albums},
                "Texture": {a.album_id: a.cover_texture for a in albums},
                "Shape": {a.album_id: (a.shape_roundness,) for a in albums},
            },
            named_targets={"Shape": {"round": (1.0,)}},
        )
    )
    g.register(
        TextSubsystem(
            "blurbs",
            {a.album_id: a.blurb for a in albums},
            attribute="Blurb",
        )
    )
    return g


class TestRunningExample:
    def test_beatles_red_albums(self, engine, albums):
        """The paper's flagship query returns only Beatles albums,
        sorted by closeness to red."""
        answer = engine.query(
            '(Artist = "Beatles") AND (AlbumColor ~ "red")'
        ).top(4)
        by_id = {a.album_id: a for a in albums}
        returned = [by_id[item.obj] for item in answer.items]
        assert all(a.artist == "Beatles" for a in returned)
        grades = answer.result.grades()
        assert list(grades) == sorted(grades, reverse=True)
        # The two seeded red covers should lead.
        assert returned[0].title in ("Sgt. Pepper", "Please Please Me")

    def test_color_and_shape(self, engine):
        answer = engine.query('(AlbumColor ~ "red") AND (Shape ~ "round")').top(5)
        assert answer.result.k == 5
        assert answer.plan.explain()

    def test_disjunction_uses_b0(self, engine):
        answer = engine.query(
            '(AlbumColor ~ "red") OR (Shape ~ "round")'
        ).top(5)
        assert answer.result.algorithm == "B0"
        assert answer.result.stats.sum_cost == 10

    def test_text_subsystem_integration(self, engine, albums):
        answer = engine.query('Blurb ~ "luminous jazz record"').top(5)
        assert answer.result.k == 5
        assert all(item.grade > 0 for item in answer.items[:1])

    def test_weighted_query(self, engine):
        answer = engine.query(
            'WEIGHTED(2: AlbumColor ~ "red", 1: Shape ~ "round")'
        ).top(3)
        assert answer.result.k == 3

    def test_negation_falls_back_to_full_scan(self, engine):
        answer = engine.query('NOT (Genre = "rock") AND (Blurb ~ "soul")').top(3)
        assert answer.result.algorithm == "naive"

    def test_parsed_query_object_accepted(self, engine):
        from repro.middleware.parser import parse_query

        q = parse_query('(AlbumColor ~ "red") AND (Shape ~ "round")')
        answer = engine.query(q).top(2)
        assert answer.result.k == 2


class TestFacade:
    def test_explain_without_execution(self, engine):
        text = engine.explain('(AlbumColor ~ "red") AND (Shape ~ "round")')
        assert "A0-prime" in text

    def test_plan_exposed(self, engine):
        plan = engine.plan('(AlbumColor ~ "red") OR (Shape ~ "round")')
        assert plan.explain()

    def test_invalid_conjunction_mode(self, engine):
        with pytest.raises(ValueError, match="external"):
            engine.query('AlbumColor ~ "red"').conjunction("sideways").top()

    def test_register_chains(self, albums):
        g = Engine()
        returned = g.register(
            RelationalSubsystem(
                "r", {a.album_id: {"Artist": a.artist} for a in albums}
            )
        )
        assert returned is g

    def test_repr(self, engine):
        assert "Catalog" in repr(engine)


class TestConjunctionModes:
    def test_internal_mode_pushdown(self, engine):
        answer = (
            engine.query('(AlbumColor ~ "red") AND (Texture ~ "cd-0000")')
            .conjunction("internal")
            .top(3)
        )
        assert answer.result.algorithm == "internal-conjunction"
        assert answer.result.stats.sum_cost == 3

    def test_compare_modes_helper(self, engine):
        from repro.middleware.conjunction_modes import (
            compare_conjunction_modes,
        )

        cmp = compare_conjunction_modes(
            engine, '(AlbumColor ~ "red") AND (Texture ~ "cd-0000")', k=3
        )
        assert cmp.internal_cost < cmp.external_cost
        assert "external" in cmp.summary()
