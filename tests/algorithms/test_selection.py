"""Tests for the algorithm-selection table."""

import pytest

from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.fa import FaginA0
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.median import MedianTopK
from repro.algorithms.naive import NaiveAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN, MEDIAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.engine.registry import select_strategy


class TestDecisionTable:
    def test_max_goes_to_b0(self):
        choice = select_strategy(MAXIMUM, 2)
        assert isinstance(choice.algorithm, DisjunctionB0)
        assert "B0" in choice.reason or "disjunction" in choice.reason

    def test_median_m3_goes_to_median_alg(self):
        choice = select_strategy(MEDIAN, 3)
        assert isinstance(choice.algorithm, MedianTopK)

    def test_median_m2_falls_back(self):
        """The subset construction needs >= 3 lists; median of 2 is
        monotone, so generic A0 applies."""
        choice = select_strategy(MEDIAN, 2)
        assert isinstance(choice.algorithm, FaginA0)

    def test_min_goes_to_a0_prime(self):
        choice = select_strategy(MINIMUM, 2)
        assert isinstance(choice.algorithm, FaginA0Min)

    def test_other_monotone_goes_to_a0(self):
        for agg in (ALGEBRAIC_PRODUCT, ARITHMETIC_MEAN):
            choice = select_strategy(agg, 2)
            assert isinstance(choice.algorithm, FaginA0), agg.name

    def test_non_monotone_goes_to_naive(self):
        bad = FunctionAggregation(
            lambda *g: 1.0 - min(g), "anti", monotone=False
        )
        choice = select_strategy(bad, 2)
        assert isinstance(choice.algorithm, NaiveAlgorithm)

    def test_reasons_cite_the_paper(self):
        assert "Theorem" in select_strategy(MINIMUM, 2).reason
        assert "Remark 6.1" in select_strategy(MAXIMUM, 2).reason

    def test_rejects_zero_lists(self):
        with pytest.raises(ValueError):
            select_strategy(MINIMUM, 0)

    def test_name_property(self):
        assert select_strategy(MINIMUM, 2).name == "A0-prime"
