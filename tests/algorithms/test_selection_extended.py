"""Tests for random-access-aware and cost-model-aware selection."""


from repro.access.cost import CostModel
from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine.registry import select_strategy


class TestNoRandomAccessSelection:
    def test_monotone_goes_to_nra(self):
        choice = select_strategy(MINIMUM, 2, random_access=False)
        assert isinstance(choice.algorithm, NoRandomAccessAlgorithm)
        assert "random access" in choice.reason

    def test_max_still_goes_to_b0(self):
        """B0 is sorted-only already — no downgrade needed."""
        choice = select_strategy(MAXIMUM, 2, random_access=False)
        assert isinstance(choice.algorithm, DisjunctionB0)

    def test_non_monotone_goes_to_naive(self):
        bad = FunctionAggregation(lambda *g: 0.5, "flat", monotone=False)
        choice = select_strategy(bad, 2, random_access=False)
        assert isinstance(choice.algorithm, NaiveAlgorithm)


class TestCostModelSelection:
    def test_expensive_random_access_prefers_nra(self):
        model = CostModel(sorted_weight=1.0, random_weight=50.0)
        choice = select_strategy(MINIMUM, 2, cost_model=model)
        assert isinstance(choice.algorithm, NoRandomAccessAlgorithm)
        assert "c2/c1" in choice.reason

    def test_cheap_random_access_keeps_a0_prime(self):
        model = CostModel(sorted_weight=1.0, random_weight=2.0)
        choice = select_strategy(MINIMUM, 2, cost_model=model)
        assert choice.name == "A0-prime"

    def test_threshold_boundary(self):
        at = CostModel(sorted_weight=1.0, random_weight=10.0)
        below = CostModel(sorted_weight=1.0, random_weight=9.99)
        assert select_strategy(MINIMUM, 2, cost_model=at).name == "NRA"
        assert (
            select_strategy(MINIMUM, 2, cost_model=below).name == "A0-prime"
        )

    def test_applies_to_any_monotone(self):
        model = CostModel(sorted_weight=1.0, random_weight=100.0)
        choice = select_strategy(ARITHMETIC_MEAN, 3, cost_model=model)
        assert choice.name == "NRA"

    def test_weighted_cost_actually_favours_nra(self):
        """The heuristic is backed by measurement: at c2 = 50*c1 NRA's
        weighted middleware cost beats A0's on the standard workload."""
        from repro.algorithms.fa import FaginA0
        from repro.workloads.skeletons import independent_database

        model = CostModel(sorted_weight=1.0, random_weight=50.0)
        db = independent_database(2, 1000, seed=3)
        nra = NoRandomAccessAlgorithm().top_k(db.session(), MINIMUM, 10)
        fa = FaginA0().top_k(db.session(), MINIMUM, 10)
        assert nra.stats.middleware_cost(model) < fa.stats.middleware_cost(
            model
        )


class TestPlannerIntegration:
    def _catalog(self, stream_only: bool):
        from repro.middleware.catalog import Catalog
        from repro.subsystems.base import StreamOnlySubsystem
        from repro.subsystems.synthetic import SyntheticSubsystem
        from repro.workloads.distributions import Uniform

        objs = [f"o{i}" for i in range(40)]
        sub_a = SyntheticSubsystem(
            "a", generated={"X": Uniform()}, objects=objs, seed=1
        )
        sub_b = SyntheticSubsystem(
            "b", generated={"Y": Uniform()}, objects=objs, seed=2
        )
        if stream_only:
            sub_b = StreamOnlySubsystem(sub_b)
        cat = Catalog()
        cat.register(sub_a)
        cat.register(sub_b)
        return cat

    def test_planner_picks_nra_for_stream_only_subsystem(self):
        from repro.middleware.parser import parse_query
        from repro.middleware.planner import Planner

        plan = Planner(self._catalog(stream_only=True)).plan(
            parse_query('(X ~ "t") AND (Y ~ "t")')
        )
        assert plan.algorithm.name == "NRA"

    def test_planner_keeps_a0_prime_with_full_capability(self):
        from repro.middleware.parser import parse_query
        from repro.middleware.planner import Planner

        plan = Planner(self._catalog(stream_only=False)).plan(
            parse_query('(X ~ "t") AND (Y ~ "t")')
        )
        assert plan.algorithm.name == "A0-prime"

    def test_executing_the_nra_plan_works_end_to_end(self):
        from repro.core.semantics import STANDARD_FUZZY
        from repro.middleware.executor import Executor
        from repro.middleware.parser import parse_query
        from repro.middleware.planner import Planner

        cat = self._catalog(stream_only=True)
        plan = Planner(cat).plan(parse_query('(X ~ "t") AND (Y ~ "t")'))
        answer = Executor(cat, STANDARD_FUZZY).execute(plan, 5)
        assert answer.result.k == 5
        assert answer.result.stats.random_cost == 0
