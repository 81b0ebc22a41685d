"""Tests for the public API surface.

Checks that the documented entry points exist, that ``__all__``
declarations are honest (every name importable, no dangling exports),
and that the package's own doctests pass — the cheapest guarantee that
README/docstring examples don't rot.
"""

import doctest
import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.access",
    "repro.algorithms",
    "repro.middleware",
    "repro.subsystems",
    "repro.workloads",
    "repro.analysis",
]

DOCTEST_MODULES = [
    "repro.core.graded_set",
    "repro.core.tnorms",
    "repro.core.means",
    "repro.core.weights",
    "repro.core.parametric",
    "repro.engine.registry",
    "repro.algorithms.median",
    "repro.algorithms.hard_query",
    "repro.analysis.bounds",
    "repro.analysis.fitting",
    "repro.analysis.tables",
    "repro.middleware.parser",
    "repro.subsystems.text",
    "repro.workloads.skeletons",
    "repro.workloads.datasets",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_version():
    import repro

    assert repro.__version__


def test_headline_imports():
    """The README quickstart imports, verbatim."""
    from repro import Engine, FaginA0, MINIMUM, NaiveAlgorithm  # noqa: F401
    from repro.workloads import independent_database  # noqa: F401


def test_algorithm_names_unique():
    from repro.algorithms import (
        DisjunctionB0,
        EarlyStopFagin,
        FaginA0,
        FaginA0Min,
        MedianTopK,
        NaiveAlgorithm,
        NoRandomAccessAlgorithm,
        ShrunkenFagin,
        ThresholdAlgorithm,
        UllmanAlgorithm,
    )

    names = [
        cls().name
        for cls in (
            DisjunctionB0,
            EarlyStopFagin,
            FaginA0,
            FaginA0Min,
            MedianTopK,
            NaiveAlgorithm,
            NoRandomAccessAlgorithm,
            ShrunkenFagin,
            ThresholdAlgorithm,
            UllmanAlgorithm,
        )
    ]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.failed == 0, (
        f"{outcome.failed} doctest failure(s) in {module_name}"
    )
    # Modules listed here are expected to actually carry examples.
    assert outcome.attempted > 0, f"no doctests found in {module_name}"
