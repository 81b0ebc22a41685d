"""The Garlic scenario under non-standard fuzzy semantics.

Section 3 surveys many conjunction/disjunction rules; the middleware
must stay correct (and appropriately conservative) when configured
with any of them: no A0'/B0 shortcuts (those are min/max-specific), no
equivalence rewrites (Theorem 3.1), but still sublinear A0 evaluation
— the bounds are robust across monotone strict aggregations.
"""

import random

import pytest

from repro.algorithms.base import is_valid_top_k
from repro.core.graded_set import GradedSet
from repro.core.semantics import FuzzySemantics
from repro.core.tconorms import ALGEBRAIC_SUM, BOUNDED_SUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT, BOUNDED_DIFFERENCE
from repro.engine import Engine, ExecutionContext
from repro.middleware.parser import parse_query
from repro.subsystems.qbic import QbicSubsystem

PRODUCT_SEMANTICS = FuzzySemantics(
    tnorm=ALGEBRAIC_PRODUCT, conorm=ALGEBRAIC_SUM
)
LUKASIEWICZ_SEMANTICS = FuzzySemantics(
    tnorm=BOUNDED_DIFFERENCE, conorm=BOUNDED_SUM
)


def _engine(semantics):
    rng = random.Random(31)
    objs = [f"o{i}" for i in range(80)]
    g = Engine(ExecutionContext(semantics=semantics))
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
    return g


def _oracle(engine, text):
    query = parse_query(text)
    atom_sets = {}
    for a in query.atoms():
        src = engine.catalog.subsystem_for(a).evaluate(a)
        atom_sets[a] = GradedSet(
            {obj: src.random_access(obj) for obj in engine.catalog.objects}
        )
    return engine.semantics.evaluate_sets(
        query, atom_sets, engine.catalog.objects
    )


CONJUNCTION = '(Color ~ "red") AND (Shape ~ "round")'
DISJUNCTION = '(Color ~ "red") OR (Shape ~ "round")'


@pytest.mark.parametrize(
    "semantics",
    [PRODUCT_SEMANTICS, LUKASIEWICZ_SEMANTICS],
    ids=["product", "lukasiewicz"],
)
class TestNonStandardSemantics:
    def test_conjunction_answers_match_oracle(self, semantics):
        engine = _engine(semantics)
        answer = engine.query(CONJUNCTION).top(5)
        assert is_valid_top_k(answer.items, _oracle(engine, CONJUNCTION), 5)

    def test_disjunction_answers_match_oracle(self, semantics):
        engine = _engine(semantics)
        answer = engine.query(DISJUNCTION).top(5)
        assert is_valid_top_k(answer.items, _oracle(engine, DISJUNCTION), 5)

    def test_no_min_max_shortcuts(self, semantics):
        """A0'/B0 are min/max-specific; other semantics get generic A0."""
        engine = _engine(semantics)
        assert engine.plan(CONJUNCTION).algorithm.name == "A0"
        assert engine.plan(DISJUNCTION).algorithm.name == "A0"

    def test_no_idempotence_rewrites(self, semantics):
        """Theorem 3.1: rewriting A AND A -> A changes answers here."""
        engine = _engine(semantics)
        doubled = parse_query('(Color ~ "red") AND (Color ~ "red")')
        plan = engine.plan(doubled)
        # The tree is preserved: both conjuncts still present.
        assert len(plan.query.children()) == 2

    def test_still_sublinear(self, semantics):
        engine = _engine(semantics)
        answer = engine.query(CONJUNCTION).top(5)
        n = engine.catalog.num_objects
        assert answer.result.stats.sum_cost < 2 * n

    def test_answers_differ_from_standard_semantics(self, semantics):
        """The semantics genuinely changes grades (not just plumbing)."""
        engine = _engine(semantics)
        standard = _engine(FuzzySemantics())
        alt = engine.query(CONJUNCTION).top(1).items[0]
        std = standard.query(CONJUNCTION).top(1).items[0]
        assert alt.grade != pytest.approx(std.grade)


class TestWeightedUnderNonStandardSemantics:
    def test_weighted_query_uses_configured_tnorm(self):
        engine = _engine(PRODUCT_SEMANTICS)
        text = 'WEIGHTED(2: Color ~ "red", 1: Shape ~ "round")'
        answer = engine.query(text).top(5)
        assert is_valid_top_k(answer.items, _oracle(engine, text), 5)
