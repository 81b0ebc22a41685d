"""Tests for query-to-aggregation compilation."""

import random

import pytest

from repro.core.means import (
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    WeightedArithmeticMean,
    WeightedGeometricMean,
)
from repro.core.query import And, Ft, Not, Or, Weighted, atom
from repro.core.semantics import STANDARD_FUZZY, FuzzySemantics
from repro.core.tconorms import ALGEBRAIC_SUM, BOUNDED_SUM, MAXIMUM
from repro.core.tnorms import (
    ALGEBRAIC_PRODUCT,
    BOUNDED_DIFFERENCE,
    EINSTEIN_PRODUCT,
)
from repro.middleware.compile import CompiledQueryAggregation

A, B, C = atom("A"), atom("B"), atom("C")


class TestCompilation:
    def test_flat_and_is_min(self):
        compiled = CompiledQueryAggregation(And((A, B)), STANDARD_FUZZY)
        assert compiled(0.3, 0.8) == 0.3
        assert compiled.atoms == (A, B)
        assert compiled.arity == 2

    def test_nested_tree(self):
        compiled = CompiledQueryAggregation(
            And((A, Or((B, C)))), STANDARD_FUZZY
        )
        # min(0.9, max(0.2, 0.6)) = 0.6
        assert compiled(0.9, 0.2, 0.6) == pytest.approx(0.6)

    def test_repeated_atom_shares_grade(self):
        compiled = CompiledQueryAggregation(
            And((A, Or((A, B)))), STANDARD_FUZZY
        )
        assert compiled.arity == 2  # A appears twice but is one argument
        # absorption under min/max: value == grade of A
        assert compiled(0.4, 0.9) == pytest.approx(0.4)

    def test_flags_flow_from_classification(self):
        conj = CompiledQueryAggregation(And((A, B)), STANDARD_FUZZY)
        assert conj.monotone and conj.strict
        disj = CompiledQueryAggregation(Or((A, B)), STANDARD_FUZZY)
        assert disj.monotone and not disj.strict
        neg = CompiledQueryAggregation(Not(A), STANDARD_FUZZY)
        assert not neg.monotone

    def test_single_atom_compiles_to_identity(self):
        compiled = CompiledQueryAggregation(A, STANDARD_FUZZY)
        assert compiled.arity == 1
        assert compiled(0.37) == pytest.approx(0.37)

    def test_matches_semantics_evaluate(self):
        import itertools

        query = Or((And((A, B)), C))
        compiled = CompiledQueryAggregation(query, STANDARD_FUZZY)
        for ga, gb, gc in itertools.product((0.0, 0.3, 0.7, 1.0), repeat=3):
            direct = STANDARD_FUZZY.evaluate(query, {A: ga, B: gb, C: gc})
            assert compiled(ga, gb, gc) == pytest.approx(direct)


#: Semantics whose every connective has a kernel: min, product and
#: Łukasiewicz conjunction.
KERNELLED_SEMANTICS = [
    STANDARD_FUZZY,
    FuzzySemantics(tnorm=ALGEBRAIC_PRODUCT, conorm=MAXIMUM),
    FuzzySemantics(tnorm=BOUNDED_DIFFERENCE, conorm=BOUNDED_SUM),
]

TREE_ATOMS = (A, B, C, atom("D"))


def random_tree(rng, depth):
    """A nested tree mixing Weighted into And, Or, Not, Ft (over plain
    and weighted means) and Weighted."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(TREE_ATOMS)
    kind = rng.choice(("and", "or", "not", "ft", "weighted", "weighted"))
    if kind == "not":
        return Not(random_tree(rng, depth - 1))
    size = rng.randint(2, 3) if kind in ("and", "or") else rng.randint(1, 3)
    children = [random_tree(rng, depth - 1) for _ in range(size)]
    if kind == "and":
        return And(children)
    if kind == "or":
        return Or(children)
    if kind == "ft":
        mean = rng.choice(
            (ARITHMETIC_MEAN, GEOMETRIC_MEAN, WeightedArithmeticMean,
             WeightedGeometricMean)
        )
        if mean in (WeightedArithmeticMean, WeightedGeometricMean):
            # Normalised arbitrary weights can round the mean of all-ones
            # grades a hair above 1.
            mean = mean([rng.random() + 0.01 for _ in children])
        return Ft(mean, children)
    # Zero, tied and arbitrary weights; arbitrary ones can make the
    # weighted total round a hair above 1 on all-ones prefixes.
    weights = [
        rng.choice((0.0, 1.0, rng.random(), rng.random())) for _ in children
    ]
    if not any(weights):
        weights[0] = 1.0
    return Weighted(children, weights)


def random_grade(rng):
    """Mostly 1.0 (so weighted prefixes hit the all-ones corner), some
    0.0, the rest rounded to 0.1 or anywhere in [0, 1]."""
    r = rng.random()
    if r < 0.5:
        return 1.0
    if r < 0.6:
        return 0.0
    if r < 0.8:
        return round(rng.random(), 1)
    return rng.random()


def assert_matches_evaluate(query, semantics, compiled, rows):
    scores = compiled.evaluate_columns(rows)
    for j, score in enumerate(scores):
        valuation = {a: rows[i][j] for i, a in enumerate(compiled.atoms)}
        want = semantics.evaluate(query, valuation)
        assert score == want, (query, j, score.hex(), want.hex())


class TestColumnPlan:
    def test_weighted_query_has_a_column_plan(self):
        query = Weighted((A, B), (2, 1))
        compiled = CompiledQueryAggregation(query, STANDARD_FUZZY)
        assert hasattr(compiled, "aggregate_columns")
        rows = [[0.5, 0.9, 1.0], [0.9, 0.5, 1.0]]
        assert compiled.evaluate_columns(rows) == [
            compiled(a, b) for a, b in zip(*rows)
        ]

    @pytest.mark.parametrize(
        "semantics", KERNELLED_SEMANTICS, ids=lambda s: s.tnorm.name
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_random_weighted_trees_match_per_object_evaluation(
        self, semantics, seed
    ):
        """Bit for bit: the column plan scores every object as
        ``semantics.evaluate`` does."""
        rng = random.Random(seed)
        for _ in range(60):
            query = random_tree(rng, 4)
            compiled = CompiledQueryAggregation(query, semantics)
            assert hasattr(compiled, "aggregate_columns")
            rows = [
                [random_grade(rng) for _ in range(80)] for _ in compiled.atoms
            ]
            assert_matches_evaluate(query, semantics, compiled, rows)

    @pytest.mark.parametrize(
        "semantics", KERNELLED_SEMANTICS[1:], ids=lambda s: s.tnorm.name
    )
    def test_weighted_total_reaches_its_parent_clamped(self, semantics):
        # These weights' terms sum to 1.0000000000000002, so on all-ones
        # grades the weighted total must be clamped before the product
        # or bounded difference of its parent sees it.
        query = And((Weighted((A, B), (0.26667928463625334, 2.0)), C))
        compiled = CompiledQueryAggregation(query, semantics)
        rows = [[1.0, 1.0], [1.0, 1.0], [0.5, 0.7]]
        assert_matches_evaluate(query, semantics, compiled, rows)

    def test_weighted_mean_reaches_its_parent_clamped(self):
        # The normalised weights sum past 1, so the mean of all-ones
        # grades rounds to 1.0000000000000002; the scalar path clamps it
        # before the product sees it, and so must the column plan.
        weights = (0.6687426259394805, 0.8402476865769027, 0.5970586469290355)
        D = atom("D")
        query = And((Ft(WeightedArithmeticMean(weights), (A, B, D)), C))
        semantics = FuzzySemantics(tnorm=ALGEBRAIC_PRODUCT, conorm=ALGEBRAIC_SUM)
        compiled = CompiledQueryAggregation(query, semantics)
        assert compiled.atoms == (A, B, D, C)
        rows = [[1.0], [1.0], [1.0], [0.5]]
        assert semantics.evaluate(query, {A: 1.0, B: 1.0, C: 0.5, D: 1.0}) == 0.5
        assert_matches_evaluate(query, semantics, compiled, rows)

    def test_kernelless_tnorm_turns_the_whole_tree_down(self):
        semantics = FuzzySemantics(tnorm=EINSTEIN_PRODUCT, conorm=MAXIMUM)
        weighted = Weighted((A, B), (2, 1))
        rows = [[0.1, 0.5, 0.99], [0.7, 0.5, 0.98], [0.2, 0.3, 0.4]]
        for query in (weighted, Or((weighted, C))):
            compiled = CompiledQueryAggregation(query, semantics)
            assert not hasattr(compiled, "aggregate_columns")
            assert_matches_evaluate(
                query, semantics, compiled, rows[: compiled.arity]
            )
