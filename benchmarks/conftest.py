"""Shared helpers for the benchmark harness.

Each ``bench_eNN_*.py`` regenerates one experiment from DESIGN.md's
index: it prints the table EXPERIMENTS.md records (who wins, growth
exponents, crossovers) and registers one representative run with
pytest-benchmark for wall-clock tracking.

All measured runs execute through the unified
:class:`~repro.engine.engine.Engine` —
:func:`repro.analysis.experiments.run_trials` forces each benchmark's
algorithm as the engine strategy, and :func:`engine_top_k` below is the
same path for one-off representative runs — so the harness times the
execution path users actually hit.

The files are named ``bench_e*.py``, which pytest does not collect
from a bare directory, so name them. Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e*.py -q --benchmark-disable

(``--benchmark-only`` in place of ``--benchmark-disable`` times the
representative runs.)
"""

from __future__ import annotations

import pytest

from repro.engine.engine import Engine


def print_experiment_header(experiment_id: str, claim: str) -> None:
    """A uniform banner so bench output reads like EXPERIMENTS.md."""
    print()
    print("=" * 72)
    print(f"{experiment_id}: {claim}")
    print("=" * 72)


def engine_top_k(database, aggregation, k, strategy=None):
    """One top-k run through the unified engine.

    ``strategy`` is a registry name, an algorithm instance, or None for
    auto-selection.
    """
    builder = Engine.over(database).query(aggregation)
    if strategy is not None:
        builder = builder.strategy(strategy)
    return builder.top(k)


@pytest.fixture(scope="session")
def trials() -> int:
    """Default number of random-database trials per configuration."""
    return 10
