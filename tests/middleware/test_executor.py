"""Tests for plan execution against live subsystems."""

import pytest

from repro.access import SortedRandomSource, UnbatchedSource
from repro.core.semantics import STANDARD_FUZZY
from repro.middleware.catalog import Catalog
from repro.middleware.executor import Executor
from repro.middleware.parser import parse_query
from repro.middleware.planner import Planner, PlannerOptions
from repro.subsystems.qbic import QbicSubsystem
from repro.subsystems.relational import RelationalSubsystem
from repro.subsystems.synthetic import SyntheticSubsystem


@pytest.fixture
def setup():
    objs = [f"o{i}" for i in range(30)]
    cat = Catalog()
    cat.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Artist": "Beatles" if i < 2 else f"a{i % 5}"}
                for i, o in enumerate(objs)
            },
        )
    )
    cat.register(
        QbicSubsystem(
            "qbic",
            {
                "Color": {
                    o: (1.0 - i / 30, 0.1, 0.1) for i, o in enumerate(objs)
                },
                "Shape": {o: (i / 30,) for i, o in enumerate(objs)},
            },
            named_targets={"Shape": {"round": (1.0,)}},
        )
    )
    planner = Planner(cat, options=PlannerOptions())
    executor = Executor(cat, STANDARD_FUZZY)
    return cat, planner, executor


def _truth(cat, query_text):
    """Oracle: evaluate the query over all objects via the semantics."""
    query = parse_query(query_text)
    atom_sets = {}
    for a in query.atoms():
        source = cat.subsystem_for(a).evaluate(a)
        atom_sets[a] = {
            obj: source.random_access(obj) for obj in cat.objects
        }
    from repro.core.graded_set import GradedSet

    sets = {a: GradedSet(t) for a, t in atom_sets.items()}
    return STANDARD_FUZZY.evaluate_sets(query, sets, cat.objects)


class TestAlgorithmPlanExecution:
    def test_min_conjunction(self, setup):
        cat, planner, executor = setup
        text = '(Color ~ "red") AND (Shape ~ "round")'
        answer = executor.execute(planner.plan(parse_query(text)), 5)
        truth = _truth(cat, text)
        from repro.algorithms.base import is_valid_top_k

        assert is_valid_top_k(answer.items, truth, 5)

    def test_disjunction(self, setup):
        cat, planner, executor = setup
        text = '(Color ~ "red") OR (Shape ~ "round")'
        answer = executor.execute(planner.plan(parse_query(text)), 5)
        truth = _truth(cat, text)
        from repro.algorithms.base import is_valid_top_k

        assert is_valid_top_k(answer.items, truth, 5)
        assert answer.result.stats.sorted_cost == 10  # B0: m*k

    def test_cost_accounting_present(self, setup):
        __, planner, executor = setup
        answer = executor.execute(
            planner.plan(parse_query('(Color ~ "red") AND (Shape ~ "round")')),
            5,
        )
        assert answer.result.stats.sum_cost > 0
        assert "cost" in answer.explain()

    def test_k_validation(self, setup):
        __, planner, executor = setup
        with pytest.raises(ValueError):
            executor.execute(planner.plan(parse_query('Color ~ "red"')), 0)


class TestFilteredPlanExecution:
    def test_matches_oracle(self, setup):
        cat, planner, executor = setup
        text = '(Artist = "Beatles") AND (Color ~ "red")'
        plan = planner.plan(parse_query(text))
        from repro.middleware.plan import FilteredConjunctPlan

        assert isinstance(plan, FilteredConjunctPlan)
        answer = executor.execute(plan, 2)
        truth = _truth(cat, text)
        from repro.algorithms.base import is_valid_top_k

        assert is_valid_top_k(answer.items, truth, 2)

    def test_cost_proportional_to_match_set(self, setup):
        __, planner, executor = setup
        plan = planner.plan(
            parse_query('(Artist = "Beatles") AND (Color ~ "red")')
        )
        answer = executor.execute(plan, 2)
        stats = answer.result.stats
        match_size = answer.result.details["filter_set_size"]
        assert match_size == 2
        # |S|+1 sorted on the crisp stream, |S| random on the graded one.
        assert stats.sorted_cost == match_size + 1
        assert stats.random_cost == match_size

    def test_padding_with_zero_grades(self, setup):
        """k larger than the match set pads with certified-zero answers."""
        cat, planner, executor = setup
        plan = planner.plan(
            parse_query('(Artist = "Beatles") AND (Color ~ "red")')
        )
        answer = executor.execute(plan, 5)
        grades = answer.result.grades()
        assert len(grades) == 5
        assert grades[2:] == (0.0, 0.0, 0.0)
        truth = _truth(cat, '(Artist = "Beatles") AND (Color ~ "red")')
        from repro.algorithms.base import is_valid_top_k

        assert is_valid_top_k(answer.items, truth, 5)


class PagedSource(SortedRandomSource):
    """At most ``page`` objects per exchange, as a source paging over a
    wire would ship them; counts the exchanges it served."""

    def __init__(self, inner: SortedRandomSource, page: int) -> None:
        self.inner, self.page, self.name = inner, page, inner.name
        self.exchanges = 0

    def __len__(self):
        return len(self.inner)

    @property
    def position(self):
        return self.inner.position

    def next_sorted(self):
        return self.inner.next_sorted()

    def random_access(self, obj):
        return self.inner.random_access(obj)

    def restart(self):
        self.inner.restart()

    def sorted_access_batch(self, count):
        self.exchanges += 1
        return self.inner.sorted_access_batch(min(count, self.page))

    def random_access_many(self, objs):
        grades = []
        for start in range(0, len(objs), self.page):
            self.exchanges += 1
            grades += self.inner.random_access_many(
                objs[start : start + self.page]
            )
        return grades


def serving(subsystem_class, wrap):
    """``subsystem_class`` serving every evaluation through ``wrap``."""

    class Wrapped(subsystem_class):
        def evaluate(self, query):
            return wrap(super().evaluate(query))

    return Wrapped


def beatles_catalog(
    num_objects,
    beatles,
    relational=RelationalSubsystem,
    synthetic=SyntheticSubsystem,
):
    """Objects 1..num_objects: the first ``beatles`` match the crisp
    ``Artist = "Beatles"``, and a synthetic subsystem grades Score."""
    objs = range(1, num_objects + 1)
    cat = Catalog()
    cat.register(
        relational(
            "rel",
            {
                i: {"Artist": "Beatles" if i <= beatles else f"a{i % 3}"}
                for i in objs
            },
        )
    )
    cat.register(
        synthetic(
            "syn", tables={"Score": {i: i / (num_objects + 1) for i in objs}}
        )
    )
    return cat


def unit_catalog(num_objects, beatles, relational=RelationalSubsystem):
    """The reference lane: :func:`beatles_catalog` with every atom
    served one object per access."""
    return beatles_catalog(
        num_objects,
        beatles,
        relational=serving(relational, UnbatchedSource),
        synthetic=serving(SyntheticSubsystem, UnbatchedSource),
    )


class TestFilteredBatchedExecution:
    """The filtered-conjunct strategy on the batch protocol."""

    @pytest.fixture
    def int_catalog(self):
        """An integer-id population: crisp relation + graded synthetic."""
        return beatles_catalog(12, beatles=1)

    def _filtered_plan(self, cat, **options):
        from repro.core.query import And, AtomicQuery
        from repro.middleware.plan import FilteredConjunctPlan

        query = And(
            (
                AtomicQuery("Artist", "Beatles", "="),
                AtomicQuery("Score", None, "~"),
            )
        )
        plan = Planner(cat, options=PlannerOptions(**options)).plan(query)
        assert isinstance(plan, FilteredConjunctPlan)
        return plan

    def test_padding_sorts_int_ids_numerically(self, int_catalog):
        """Regression: phase-3 padding used ``repr`` order, so integer
        populations padded 10 < 2; the numeric tie_break_key pads
        2, 3, 4, ... after the single survivor."""
        executor = Executor(int_catalog, STANDARD_FUZZY)
        answer = executor.execute(self._filtered_plan(int_catalog), 5)
        assert [item.obj for item in answer.items] == [1, 2, 3, 4, 5]
        assert [item.grade for item in answer.items[1:]] == [0.0] * 4

    def test_inexact_selectivity_never_over_reads(self):
        """A subsystem whose statistics are estimates (no
        ``selectivity_is_exact`` declaration) must not have them
        trusted for block sizing: a wild over-estimate would charge a
        whole page of sorted accesses where one-by-one access charges
        |S| + 1. The block is read in unit-sized pages instead, so
        counts equal those of sources served one object at a time."""

        class OverEstimating(RelationalSubsystem):
            selectivity_is_exact = False

            def estimate_selectivity(self, query):
                exact = super().estimate_selectivity(query)
                return None if exact is None else min(1.0, exact * 50)

        cat = beatles_catalog(12, beatles=2, relational=OverEstimating)
        plan = self._filtered_plan(cat, selectivity_threshold=1.0)
        batched = Executor(cat, STANDARD_FUZZY).execute(plan, 3)
        ref = unit_catalog(12, beatles=2, relational=OverEstimating)
        unit = Executor(ref, STANDARD_FUZZY).execute(
            self._filtered_plan(ref, selectivity_threshold=1.0), 3
        )
        match_size = batched.result.details["filter_set_size"]
        assert match_size == 2
        assert batched.result.stats.sorted_cost == match_size + 1
        assert batched.result.stats == unit.result.stats
        assert batched.items == unit.items

    def test_tiny_page_cap_preserves_counts(self):
        """Sources shipping two objects per exchange read the crisp
        block and look up the survivors in several exchanges without
        moving the Section 5 counts: |S| + 1 sorted on the filter
        stream, |S| random per graded conjunct."""
        paged: list[PagedSource] = []

        def two_per_exchange(source):
            paged.append(PagedSource(source, 2))
            return paged[-1]

        cat = beatles_catalog(
            60,
            beatles=5,
            relational=serving(RelationalSubsystem, two_per_exchange),
            synthetic=serving(SyntheticSubsystem, two_per_exchange),
        )
        answer = Executor(cat, STANDARD_FUZZY).execute(
            self._filtered_plan(cat), 1
        )
        ref = unit_catalog(60, beatles=5)
        reference = Executor(ref, STANDARD_FUZZY).execute(
            self._filtered_plan(ref), 1
        )
        match_size = answer.result.details["filter_set_size"]
        assert match_size == 5
        assert answer.result.stats.sorted_cost == match_size + 1
        assert answer.result.stats.random_cost == match_size
        assert answer.result.stats == reference.result.stats
        assert answer.items == reference.items
        # The block plus its probe item took three two-object pages;
        # the five survivors took three lookups of at most two objects.
        assert [source.exchanges for source in paged] == [3, 3]

    def test_subsystem_paging_its_own_sources_keeps_counts(self):
        """A subsystem that pages over a wire pages inside its own
        source. With its exact selectivity the executor asks for the
        whole block plus the probe item at once; two-object pages
        answer short, and the reads still total |S| + 1."""
        sources: list[PagedSource] = []

        class WirePaged(RelationalSubsystem):
            def evaluate(self, query):
                sources.append(PagedSource(super().evaluate(query), 2))
                return sources[-1]

        cat = beatles_catalog(60, beatles=5, relational=WirePaged)
        answer = Executor(cat, STANDARD_FUZZY).execute(
            self._filtered_plan(cat), 3
        )
        ref = unit_catalog(60, beatles=5)
        reference = Executor(ref, STANDARD_FUZZY).execute(
            self._filtered_plan(ref), 3
        )
        assert answer.result.stats.sorted_cost == 5 + 1
        assert answer.result.stats == reference.result.stats
        assert answer.items == reference.items
        # Asks of 6, 4 and 2 objects, each answered with two.
        assert sources[0].exchanges == 3


class TestInternalPlanExecution:
    def test_internal_conjunction_cost_is_k(self, setup):
        cat, __, executor = setup
        planner = Planner(
            cat, options=PlannerOptions(allow_internal_conjunction=True)
        )
        plan = planner.plan(
            parse_query('(Color ~ "red") AND (Shape ~ "round")')
        )
        from repro.middleware.plan import InternalConjunctionPlan

        assert isinstance(plan, InternalConjunctionPlan)
        answer = executor.execute(plan, 4)
        assert answer.result.stats.sum_cost == 4
        assert answer.result.k == 4

    def test_internal_uses_subsystem_semantics(self, setup):
        """Averaged (QBIC) grades differ from Garlic's min grades."""
        cat, planner, executor = setup
        text = '(Color ~ "red") AND (Shape ~ "round")'
        external = executor.execute(planner.plan(parse_query(text)), 3)
        internal_planner = Planner(
            cat, options=PlannerOptions(allow_internal_conjunction=True)
        )
        internal = executor.execute(
            internal_planner.plan(parse_query(text)), 3
        )
        # Averaging dominates min pointwise, strictly so almost surely.
        assert internal.items[0].grade > external.items[0].grade


class TestFullScanExecution:
    def test_negated_query(self, setup):
        cat, planner, executor = setup
        text = 'NOT (Artist = "Beatles") AND (Color ~ "red")'
        answer = executor.execute(planner.plan(parse_query(text)), 3)
        truth = _truth(cat, text)
        from repro.algorithms.base import is_valid_top_k

        assert is_valid_top_k(answer.items, truth, 3)

    def test_full_scan_cost_linear(self, setup):
        cat, planner, executor = setup
        answer = executor.execute(
            planner.plan(
                parse_query('NOT (Artist = "Beatles") AND (Color ~ "red")')
            ),
            3,
        )
        assert answer.result.stats.sorted_cost == 2 * cat.num_objects
