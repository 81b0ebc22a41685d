"""Core semantics: graded sets, aggregation functions, queries.

This subpackage implements Sections 2 and 3 of the paper — the
graded-set data model, the catalogue of aggregation functions
(triangular norms and co-norms, means, median), the property machinery
(monotonicity / strictness), the query AST and its fuzzy evaluation
rules, logical-equivalence checking (Theorem 3.1), and the [FW97]
weighted-conjunction formula.
"""

from repro.core.aggregation import (
    AggregationFunction,
    BinaryAggregation,
    ConstantAggregation,
    DualTConorm,
    DualTNorm,
    FunctionAggregation,
    TConorm,
    TNorm,
    VectorizedAggregation,
    iterated,
)
from repro.core.certify import (
    EXACT,
    EXACT_GUARANTEE,
    CertifiedResult,
    GradeBounds,
    Guarantee,
    QualityContract,
    StoppingRule,
    as_contract,
)
from repro.core.kernels import (
    evaluate_columns,
    kernel_for,
    register_kernel,
)
from repro.core.equivalence import (
    CANONICAL_IDENTITIES,
    crisp_equivalent,
    fuzzy_equivalent,
    preserves_equivalence,
)
from repro.core.graded_set import GradedSet, ObjectId
from repro.core.grades import (
    FALSE_GRADE,
    TRUE_GRADE,
    crisp_grade,
    is_crisp,
    is_valid_grade,
    standard_negation,
    validate_grade,
)
from repro.core.means import (
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    HARMONIC_MEAN,
    MEDIAN,
    ArithmeticMean,
    GeometricMean,
    GymnasticsTrimmedMean,
    HarmonicMean,
    Median,
    WeightedArithmeticMean,
    WeightedGeometricMean,
    median3,
)
from repro.core.parametric import (
    HamacherFamily,
    YagerFamily,
    hamacher_conorm,
    yager_conorm,
)
from repro.core.negations import (
    STANDARD_NEGATION,
    Negation,
    StandardNegation,
    SugenoNegation,
    YagerNegation,
)
from repro.core.properties import (
    PropertyReport,
    check_associative,
    check_commutative,
    check_conjunction_conservation,
    check_de_morgan,
    check_disjunction_conservation,
    check_monotone,
    check_strict,
    classify,
)
from repro.core.query import And, AtomicQuery, Ft, Not, Or, Query, Weighted, atom
from repro.core.semantics import STANDARD_FUZZY, FuzzySemantics, QueryClassification
from repro.core.tconorms import (
    ALGEBRAIC_SUM,
    BOUNDED_SUM,
    DRASTIC_SUM,
    DUAL_PAIRS,
    EINSTEIN_SUM,
    HAMACHER_SUM,
    MAXIMUM,
    TCONORMS,
    get_tconorm,
)
from repro.core.tnorms import (
    ALGEBRAIC_PRODUCT,
    BOUNDED_DIFFERENCE,
    DRASTIC_PRODUCT,
    EINSTEIN_PRODUCT,
    HAMACHER_PRODUCT,
    MINIMUM,
    TNORMS,
    get_tnorm,
)
from repro.core.weights import FaginWimmersWeighting

__all__ = [
    # grades
    "FALSE_GRADE",
    "TRUE_GRADE",
    "validate_grade",
    "is_valid_grade",
    "is_crisp",
    "crisp_grade",
    "standard_negation",
    # graded sets
    "GradedSet",
    "ObjectId",
    # aggregation machinery
    "AggregationFunction",
    "BinaryAggregation",
    "TNorm",
    "TConorm",
    "DualTNorm",
    "DualTConorm",
    "ConstantAggregation",
    "FunctionAggregation",
    "VectorizedAggregation",
    "iterated",
    # certified results & quality contracts
    "QualityContract",
    "StoppingRule",
    "Guarantee",
    "GradeBounds",
    "CertifiedResult",
    "EXACT",
    "EXACT_GUARANTEE",
    "as_contract",
    # vectorized kernels
    "kernel_for",
    "register_kernel",
    "evaluate_columns",
    # t-norms
    "MINIMUM",
    "DRASTIC_PRODUCT",
    "BOUNDED_DIFFERENCE",
    "EINSTEIN_PRODUCT",
    "ALGEBRAIC_PRODUCT",
    "HAMACHER_PRODUCT",
    "TNORMS",
    "get_tnorm",
    # t-conorms
    "MAXIMUM",
    "DRASTIC_SUM",
    "BOUNDED_SUM",
    "EINSTEIN_SUM",
    "ALGEBRAIC_SUM",
    "HAMACHER_SUM",
    "TCONORMS",
    "DUAL_PAIRS",
    "get_tconorm",
    # parametric families
    "HamacherFamily",
    "YagerFamily",
    "hamacher_conorm",
    "yager_conorm",
    # negations
    "Negation",
    "StandardNegation",
    "SugenoNegation",
    "YagerNegation",
    "STANDARD_NEGATION",
    # means
    "ArithmeticMean",
    "GeometricMean",
    "HarmonicMean",
    "WeightedArithmeticMean",
    "WeightedGeometricMean",
    "Median",
    "GymnasticsTrimmedMean",
    "ARITHMETIC_MEAN",
    "GEOMETRIC_MEAN",
    "HARMONIC_MEAN",
    "MEDIAN",
    "median3",
    # properties
    "PropertyReport",
    "check_monotone",
    "check_strict",
    "check_conjunction_conservation",
    "check_disjunction_conservation",
    "check_commutative",
    "check_associative",
    "check_de_morgan",
    "classify",
    # queries & semantics
    "Query",
    "AtomicQuery",
    "And",
    "Or",
    "Not",
    "Ft",
    "Weighted",
    "atom",
    "FuzzySemantics",
    "STANDARD_FUZZY",
    "QueryClassification",
    # equivalence
    "crisp_equivalent",
    "fuzzy_equivalent",
    "preserves_equivalence",
    "CANONICAL_IDENTITIES",
    # weights
    "FaginWimmersWeighting",
]
