"""Unit tests for the Section 8 mode-comparison machinery."""


from repro.access.cost import AccessStats
from repro.access.types import GradedItem
from repro.algorithms.base import TopKResult
from repro.algorithms.naive import NaiveAlgorithm
from repro.core.query import atom
from repro.middleware.conjunction_modes import ModeComparison
from repro.middleware.executor import QueryAnswer
from repro.middleware.plan import AlgorithmPlan


def _answer(objects, grades, sorted_cost):
    result = TopKResult(
        items=tuple(GradedItem(o, g) for o, g in zip(objects, grades)),
        stats=AccessStats((sorted_cost,), (0,)),
        algorithm="stub",
    )
    query = atom("A")
    plan = AlgorithmPlan(
        query=query, reason="stub", atoms=(query,), algorithm=NaiveAlgorithm()
    )
    return QueryAnswer(query=query, plan=plan, result=result)


class TestModeComparison:
    def test_same_objects_ignores_order(self):
        cmp = ModeComparison(
            external=_answer(["a", "b"], [0.9, 0.8], 10),
            internal=_answer(["b", "a"], [0.95, 0.85], 2),
        )
        assert cmp.same_objects

    def test_different_objects_detected(self):
        cmp = ModeComparison(
            external=_answer(["a", "b"], [0.9, 0.8], 10),
            internal=_answer(["a", "c"], [0.9, 0.7], 2),
        )
        assert not cmp.same_objects
        assert "DIFFER" in cmp.summary()

    def test_costs(self):
        cmp = ModeComparison(
            external=_answer(["a"], [0.9], 50),
            internal=_answer(["a"], [0.9], 3),
        )
        assert cmp.external_cost == 50
        assert cmp.internal_cost == 3

    def test_summary_structure(self):
        cmp = ModeComparison(
            external=_answer(["a"], [0.9], 50),
            internal=_answer(["a"], [0.9], 3),
        )
        summary = cmp.summary()
        assert "external" in summary and "internal" in summary
        assert "50 accesses" in summary and "3 accesses" in summary
