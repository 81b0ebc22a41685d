"""Tests for the planner's strategy table."""

import pytest

from repro.core.semantics import FuzzySemantics
from repro.core.tconorms import ALGEBRAIC_SUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT
from repro.exceptions import CatalogError
from repro.middleware.catalog import Catalog
from repro.middleware.parser import parse_query
from repro.middleware.plan import (
    AlgorithmPlan,
    FilteredConjunctPlan,
    InternalConjunctionPlan,
)
from repro.middleware.planner import Planner, PlannerOptions
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem


@pytest.fixture
def catalog():
    objs = [f"o{i}" for i in range(40)]
    cat = Catalog()
    cat.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Artist": "Beatles" if i < 3 else f"artist-{i % 7}"}
                for i, o in enumerate(objs)
            },
        )
    )
    cat.register(
        QbicSubsystem(
            "qbic",
            {
                "Color": {o: (i / 40, 0.5, 0.5) for i, o in enumerate(objs)},
                "Shape": {o: (i / 40,) for i, o in enumerate(objs)},
            },
            named_targets={"Shape": {"round": (1.0,)}},
        )
    )
    return cat


def _planner(catalog, **kwargs):
    return Planner(catalog, options=PlannerOptions(**kwargs))


class TestStrategySelection:
    def test_beatles_query_uses_filtered_plan(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Artist = "Beatles") AND (Color ~ "red")')
        )
        assert isinstance(plan, FilteredConjunctPlan)
        assert plan.filter_atoms[0].attribute == "Artist"

    def test_unselective_crisp_conjunct_not_filtered(self, catalog):
        # 'artist-0' matches ~6/40 = 0.15 > the 0.1 default threshold.
        plan = _planner(catalog).plan(
            parse_query('(Artist = "artist-0") AND (Color ~ "red")')
        )
        assert isinstance(plan, AlgorithmPlan)

    def test_threshold_tunable(self, catalog):
        plan = _planner(catalog, selectivity_threshold=0.5).plan(
            parse_query('(Artist = "artist-0") AND (Color ~ "red")')
        )
        assert isinstance(plan, FilteredConjunctPlan)

    def test_all_crisp_conjuncts_no_filter_plan(self, catalog):
        """With no graded conjunct left, the filtered split is moot."""
        plan = _planner(catalog).plan(
            parse_query('(Artist = "Beatles") AND (Artist = "Beatles")')
        )
        # Dedup rewrite collapses to a single atom -> AlgorithmPlan.
        assert isinstance(plan, AlgorithmPlan)

    def test_min_conjunction_selects_a0_prime(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Color ~ "red") AND (Shape ~ "round")')
        )
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "A0-prime"

    def test_max_disjunction_selects_b0(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Color ~ "red") OR (Shape ~ "round")')
        )
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "B0"

    def test_nested_monotone_selects_a0(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Artist = "Beatles") OR ((Color ~ "red") AND (Shape ~ "round"))')
        )
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "A0"

    def test_negation_selects_full_scan(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('NOT (Artist = "Beatles") AND (Color ~ "red")')
        )
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "naive"
        assert "Theorem 7.1" in plan.reason
        assert not plan.aggregation.monotone

    def test_unknown_attribute_fails_fast(self, catalog):
        with pytest.raises(CatalogError):
            _planner(catalog).plan(parse_query('Bogus ~ "x"'))

    def test_weighted_conjunction_selects_a0(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('WEIGHTED(2: Color ~ "red", 1: Shape ~ "round")')
        )
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "A0"
        assert plan.aggregation.monotone


class TestInternalConjunction:
    def test_disabled_by_default(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Color ~ "red") AND (Shape ~ "round")')
        )
        assert not isinstance(plan, InternalConjunctionPlan)

    def test_enabled_when_opted_in(self, catalog):
        plan = _planner(catalog, allow_internal_conjunction=True).plan(
            parse_query('(Color ~ "red") AND (Shape ~ "round")')
        )
        assert isinstance(plan, InternalConjunctionPlan)
        assert plan.subsystem.name == "qbic"

    def test_cross_subsystem_conjunction_not_pushed(self, catalog):
        plan = _planner(catalog, allow_internal_conjunction=True).plan(
            parse_query('(Artist = "Beatles") AND (Color ~ "red")')
        )
        assert not isinstance(plan, InternalConjunctionPlan)


class TestRewrites:
    def test_idempotence_dedup_under_standard_semantics(self, catalog):
        planner = _planner(catalog)
        q = parse_query('(Color ~ "red") AND (Color ~ "red")')
        rewritten = planner.rewrite(q)
        assert rewritten == parse_query('Color ~ "red"')

    def test_no_rewrites_under_non_standard_semantics(self, catalog):
        """Theorem 3.1: only min/max license equivalence rewrites."""
        sem = FuzzySemantics(tnorm=ALGEBRAIC_PRODUCT, conorm=ALGEBRAIC_SUM)
        planner = Planner(catalog, semantics=sem)
        q = parse_query('(Color ~ "red") AND (Color ~ "red")')
        assert planner.rewrite(q) == q

    def test_explain_mentions_strategy(self, catalog):
        plan = _planner(catalog).plan(
            parse_query('(Color ~ "red") AND (Shape ~ "round")')
        )
        assert "A0-prime" in plan.explain()
