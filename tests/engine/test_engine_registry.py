"""Tests for the strategy registry: capabilities, lookup, selection."""

import pytest

from repro.access.cost import CostModel
from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.fa import FaginA0
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.median import MedianTopK
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.aggregation import FunctionAggregation
from repro.core.means import ARITHMETIC_MEAN, MEDIAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.engine import registry as reg
from repro.engine.registry import (
    StrategyCapabilities,
    UnknownStrategyError,
    available_strategies,
    capable_strategies,
    create_strategy,
    get_registration,
    register_strategy,
    select_strategy,
)

NON_MONOTONE = FunctionAggregation(
    lambda *g: 1.0 - min(g), "anti", monotone=False
)


class TestRegistration:
    def test_all_algorithms_registered(self):
        names = set(available_strategies())
        assert {
            "fagin", "fagin-min", "b0", "median", "nra", "naive",
            "threshold", "ullman", "early-stop", "shrunken",
        } <= names

    def test_aliases_resolve(self):
        assert get_registration("A0").name == "fagin"
        assert get_registration("A0-prime").name == "fagin-min"
        assert get_registration("NRA").name == "nra"
        assert get_registration("TA").name == "threshold"

    def test_create_strategy_returns_fresh_instances(self):
        first, second = create_strategy("fagin"), create_strategy("fagin")
        assert isinstance(first, FaginA0)
        assert first is not second

    def test_unknown_name_raises(self):
        with pytest.raises(UnknownStrategyError):
            get_registration("does-not-exist")

    def test_unknown_strategy_error_str_is_readable(self):
        """KeyError.__str__ would repr-quote the message; ours doesn't."""
        err = UnknownStrategyError("x", ("fagin",))
        assert str(err) == "no strategy named 'x' is registered (known: fagin)"

    def test_capability_metadata_is_honest(self):
        assert get_registration("nra").capabilities.needs_random_access is False
        assert get_registration("naive").capabilities.monotone_only is False
        assert get_registration("median").capabilities.min_lists == 3
        assert get_registration("fagin").capabilities.needs_random_access


class TestCapabilityFiltering:
    def test_no_random_access_excludes_ra_strategies(self):
        names = capable_strategies(MINIMUM, 2, random_access=False)
        assert set(names) == {"naive", "nra"}

    def test_non_monotone_excludes_monotone_only(self):
        names = capable_strategies(NON_MONOTONE, 2)
        assert names == ("naive",)

    def test_min_lists_excludes_median_below_three(self):
        assert "median" not in capable_strategies(MEDIAN, 2)
        assert "median" in capable_strategies(MEDIAN, 3)

    def test_aggregation_guard_restricts_b0_and_a0_prime(self):
        with_min = capable_strategies(MINIMUM, 2)
        with_max = capable_strategies(MAXIMUM, 2)
        assert "fagin-min" in with_min and "b0" not in with_min
        assert "b0" in with_max and "fagin-min" not in with_max

    def test_strict_only_capability(self):
        """A strict-only registration is filtered by the strict flag."""
        name = "test-strict-only-strategy"
        register_strategy(
            name,
            FaginA0,
            StrategyCapabilities(monotone_only=True, strict_only=True),
        )
        try:
            # min is strict (t = 1 iff every argument is 1); max is
            # monotone but not strict (max(1, 0) = 1).
            assert name in capable_strategies(MINIMUM, 2)
            assert name not in capable_strategies(MAXIMUM, 2)
        finally:
            reg._REGISTRY.pop(name, None)


class TestSelection:
    """select_strategy reproduces the paper's decision table."""

    def test_table(self):
        assert isinstance(select_strategy(MAXIMUM, 2).algorithm, DisjunctionB0)
        assert isinstance(select_strategy(MEDIAN, 3).algorithm, MedianTopK)
        assert isinstance(select_strategy(MEDIAN, 2).algorithm, FaginA0)
        assert isinstance(select_strategy(MINIMUM, 2).algorithm, FaginA0Min)
        assert isinstance(
            select_strategy(ARITHMETIC_MEAN, 2).algorithm, FaginA0
        )
        assert isinstance(
            select_strategy(NON_MONOTONE, 2).algorithm, NaiveAlgorithm
        )

    def test_no_random_access_routes(self):
        assert isinstance(
            select_strategy(MINIMUM, 2, random_access=False).algorithm,
            NoRandomAccessAlgorithm,
        )
        assert isinstance(
            select_strategy(MAXIMUM, 2, random_access=False).algorithm,
            DisjunctionB0,
        )
        assert isinstance(
            select_strategy(NON_MONOTONE, 2, random_access=False).algorithm,
            NaiveAlgorithm,
        )

    def test_expensive_random_access_prefers_nra(self):
        pricey = CostModel(sorted_weight=1.0, random_weight=25.0)
        assert select_strategy(MINIMUM, 2, cost_model=pricey).name == "NRA"
        cheap = CostModel(sorted_weight=1.0, random_weight=2.0)
        assert select_strategy(MINIMUM, 2, cost_model=cheap).name == "A0-prime"

    def test_reasons_cite_the_paper(self):
        assert "Theorem" in select_strategy(MINIMUM, 2).reason
        assert "Remark 6.1" in select_strategy(MAXIMUM, 2).reason

    def test_require_forces_within_capability(self):
        choice = select_strategy(MINIMUM, 2, require="threshold")
        assert isinstance(choice.algorithm, ThresholdAlgorithm)
        assert "forced" in choice.reason

    def test_require_rejects_incapable_pairing(self):
        with pytest.raises(ValueError, match="cannot evaluate"):
            select_strategy(MINIMUM, 2, require="fagin", random_access=False)
        with pytest.raises(ValueError, match="cannot evaluate"):
            select_strategy(NON_MONOTONE, 2, require="fagin")

    def test_rejects_zero_lists(self):
        with pytest.raises(ValueError):
            select_strategy(MINIMUM, 0)
