"""Adaptive planning: the plan cache and the measured-history chooser.

Demonstrates the adaptive planning layer end to end on a two-subsystem
federation:

* **plan cache** — the first query of a shape pays the full planning
  pass; every repeat with different constants is a shape lookup plus a
  constant rebind (cold vs cached mint is timed below);
* **chooser** — per-shape measured access histories let the engine
  *override* the static planner's pick when the evidence says another
  registry strategy is cheaper, without ever changing answers.

The chooser options here are deliberately aggressive (explore early
and often) so the static -> explore -> override arc fits in a short
script; the library defaults explore far more conservatively.

Run with::

    PYTHONPATH=src python examples/adaptive_planning.py
"""

import time

from repro.core.query import And, AtomicQuery
from repro.engine import Engine, ExecutionContext
from repro.engine.adaptive import AdaptiveOptions
from repro.subsystems import SyntheticSubsystem
from repro.workloads import independent_database

N, M, K = 10_000, 3, 10


def build_engine(context: ExecutionContext | None = None) -> Engine:
    """The m graded lists split across two subsystems."""
    db = independent_database(M, N, seed=42)
    tables = [db.graded_set(i).as_dict() for i in range(M)]
    engine = Engine(context)
    engine.register(
        SyntheticSubsystem(
            "pod-a", tables={f"a{i}": tables[i] for i in range(0, M, 2)}
        )
    )
    engine.register(
        SyntheticSubsystem(
            "pod-b", tables={f"a{i}": tables[i] for i in range(1, M, 2)}
        )
    )
    return engine


def conjunction() -> And:
    return And(tuple(AtomicQuery(f"a{i}", None, "~") for i in range(M)))


def plan_cache_demo() -> None:
    print("=== plan cache: cold mint vs cached lookup ===")
    engine = build_engine()
    query = conjunction()

    start = time.perf_counter()
    plan = engine.query(query).plan()
    cold_ms = (time.perf_counter() - start) * 1e3

    rounds = 200
    start = time.perf_counter()
    for _ in range(rounds):
        engine.query(query).plan()
    cached_us = (time.perf_counter() - start) * 1e6 / rounds

    cache = engine.metrics_snapshot()["planner"]["plan_cache"]
    print(f"strategy planned: {type(plan).__name__}")
    print(f"cold plan:   {cold_ms:8.3f} ms  (full planning pass)")
    print(f"cached plan: {cached_us:8.1f} us  (shape lookup + rebind)")
    print(
        f"cache counters: {cache['hits']} hits / {cache['misses']} miss, "
        f"{cache['entries']} entries\n"
    )


def chooser_demo() -> None:
    print("=== chooser: static -> explore -> measured override ===")
    # Aggressive exploration so the arc is visible in 40 queries.
    engine = build_engine(
        ExecutionContext(
            adaptive_options=AdaptiveOptions(
                explore_after=5, explore_every=5, min_trials=2
            )
        )
    )
    static = build_engine(ExecutionContext(adaptive=False))
    query = conjunction()

    expected = [(i.obj, i.grade) for i in static.query(query).top(K).items]
    static_cost = static.query(query).top(K).result.stats.sum_cost

    costs: list[int] = []
    for round_index in range(40):
        answer = engine.query(query).top(K)
        # Adaptivity never changes answers — only how they are found.
        assert [(i.obj, i.grade) for i in answer.items] == expected
        cost = answer.result.stats.sum_cost
        if not costs or cost != costs[-1]:
            # A cost change marks a strategy change: the static pick,
            # an exploration trial, or the measured override settling.
            print(f"query {round_index + 1:>3}  S+R={cost}")
        costs.append(cost)

    chooser = engine.metrics_snapshot()["planner"]["chooser"]
    print(
        f"\nstatic planner's pick costs {static_cost} accesses per "
        f"query; the chooser settled at {costs[-1]} "
        f"({static_cost / costs[-1]:.2f}x cheaper)"
    )
    print(
        f"chooser counters: {chooser['decisions']} decisions, "
        f"{chooser['explorations']} explorations, "
        f"{chooser['overrides']} overrides\n"
    )


def explain_demo() -> None:
    print("=== explain(): the adaptive block ===")
    engine = build_engine()
    query = conjunction()
    engine.query(query).top(K)  # seed the cache and the history
    report = engine.query(query).explain()
    lines = report.splitlines()
    start = lines.index("--- adaptive planning ---")
    for line in lines[start:]:
        print(line)
    print()


def main() -> None:
    plan_cache_demo()
    chooser_demo()
    explain_demo()


if __name__ == "__main__":
    main()
