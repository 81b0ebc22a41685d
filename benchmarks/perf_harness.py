"""Perf-regression harness: wall-clock + access-count trajectory.

Times FA / TA / NRA / naive over independent *and* correlated
workloads (the FKG-inequality line in PAPERS.md marks positively
associated lists as the adversarial regime for wall-clock, so rho > 0
is benchmarked, not just the Section 5 independence model) at several
(N, m, k) points, plus the Section 4 filtered-conjunct strategy over a
crisp + graded federation, on two backings:

* **legacy** — the pre-batching ``MaterializedSource`` path: a session
  minted from the row-oriented :class:`ScoringDatabase` (full O(N*m)
  ranking re-validation per mint), every source wrapped in
  :class:`UnbatchedSource` so every access is a unit access, driven by
  the ``_prepr_*`` reference runners below — faithful replicas of the
  seed-commit hot loops (one object per list per round, per-call
  aggregation validation, full sort of all aggregate grades);
* **columnar** — :class:`ColumnarScoringDatabase` sessions (O(m)
  mint) consumed by the current algorithms through the batched access
  protocol and the vectorized kernels of :mod:`repro.core.kernels`.

Three further lanes extend the trajectory:

* **scalar** (mean-family configs) — the current algorithms with the
  aggregation hidden behind a kernel-less wrapper, isolating what the
  vectorized computation phase alone buys (``kernel_speedup`` =
  scalar_ms / columnar_ms). The compare gate requires >= 1.5x on every
  algorithm a config lists in ``kernel_gated`` (the computation-heavy
  ones: the naive scan on the mean-family configs, TA's warm-up sweep
  on the ``ta-`` config, the filtered strategy's column scoring on the
  ``filtered-`` configs).
* **federated** configs — queries spanning two subsystems through the
  full engine stack (plan, ``Subsystem.evaluate``, the batch
  protocol); the legacy lane is the same federation behind
  ``UnbatchedSource`` driven by the seed-replica runner.
* **filtered** configs — the Section 4 filtered-conjunct strategy
  (crisp relational filter + graded conjuncts): the batched lane pages
  the grade-1 block, bulk-looks-up the survivors and scores them in
  one column sweep; the legacy lane is the pre-PR executor loop (unit
  accesses, one compiled-aggregation call per survivor); the scalar
  lane re-runs the batched lane with the compiled aggregation's column
  plan suppressed.
* **parallel** configs — the concurrent-serving lane:
  ``Engine.run_many(queries, parallel=w)`` over a shared read-only
  columnar store at w = 1, 4, 8 workers, reported as queries/sec. The
  hard gate is *count parity*: the parallel batch must return answers
  and batch-wide S/R bit-identical to the serial ``run_many``
  (parallelism is wall-clock only, never accounting). Throughput
  ratios are recorded for the trajectory; on GIL builds of CPython
  they hover near 1x (the hot loops are pure Python and serialize on
  the interpreter lock — only the numpy kernel sweeps overlap), so
  the speedup itself is gated like every other timing: against the
  committed baseline, not an absolute floor. Free-threaded builds are
  where the shared-store architecture pays wall-clock dividends.
* **sharded** configs (``shard-``) — the multi-process lane:
  ``Engine.over_shards(store, shards=8, processes=P)`` at P = 1, 2,
  4, 8 worker processes over shared-memory columnar shards, against
  the single-store serial run and the inline (``processes=0``)
  sharded reference. Two hard parities gate generation: every pool
  width must return answers identical to the single-store run (the
  threshold-exchange merge is exact), and every width's summed S/R
  ledger must be bit-identical to the inline reference (parallelism
  is wall-clock only, never accounting). The sharded ledger
  legitimately exceeds the single-store one — S shards each probe
  locally before the exchange converges — so the overhead ratio is
  *recorded* per lane, not gated to equality. Unlike the thread
  lane, worker processes dodge the GIL entirely, so the throughput
  ratios are real on stock CPython — *given cores to run on*: the
  >1.5x-at-4-processes acceptance floor is meaningful only on hosts
  with >= 4 CPUs, and a single-core runner (a quota'd CI container)
  physically cannot show process speedup, so the floor is asserted
  by the test suite conditionally on the recorded core count, never
  by ``--compare``. Lane metadata records the interpreter build
  (``sys._is_gil_enabled`` where available) and the schedulable CPU
  count so thread-vs-process ratios are read against the machine
  that produced them.
* **plan** configs (``plan-``) — the adaptive-planning lane: a
  repeated-shape workload (conjunctive at two k bands + disjunctive,
  round-robin, 60 queries per shape) through the engine's shape-keyed
  plan cache and measured-history chooser, against every *feasible*
  fixed-strategy replay of the same workload (b0 cannot run the
  conjunctive shapes, fagin-min cannot run the disjunctive one —
  reported as infeasible, never silently skipped).
  Generation-time hard gates: answers identical to the static engine
  on every run, a fresh adaptive replay reproducing the access totals
  bit for bit (deterministic decisions), plan-cache hit rate >=
  ``PLAN_CACHE_HIT_FLOOR``, and adaptive total weighted accesses
  within ``PLAN_GATE_TOLERANCE`` of the best fixed strategy's.
  ``--compare`` gates the recorded access counts like every lane but
  not the wall-clock ratios; a cold-vs-cached plan-mint micro-timing
  rides along for the trajectory.
* **approx** configs (``approx-``) — the certified-approximation
  lane: forced TA under the theta-approximation stopping rule across
  an ε sweep (0 first, as the exact anchor) on independent workloads,
  recording access counts, runtimes and realized k-th-grade error per
  ε. Generation-time hard gates: totals monotone non-increasing in ε
  with a strict saving by ε = 0.5, every run's certificate
  (1+ε)·g_k >= true g_k checked against the full oracle (ε = 0
  bit-identical to it), the exact A0 run's summed cost within a
  generous multiple of the Theorem 5.3 envelope N^((m-1)/m)·k^(1/m)
  (measured tightness ratio recorded), and an anytime cursor's
  remaining-upper bounds capping the oracle's best hidden grade on
  every page. ``--compare`` gates the per-ε access counts, never the
  wall-clock.

``--only PREFIX`` re-runs just the configs whose name starts with
PREFIX (``--only shard-`` after a sharding change); every lane the
filter skips is carried forward from the existing output file, so a
partial re-measure never silently drops the rest of the trajectory.

Each measurement is the median of ``--repeats`` runs of *mint session
+ run algorithm* (minting is part of the path: the pre-batching code
re-sorted/re-validated per session). The gated ratios — legacy,
columnar and scalar on the plain, ``fed-`` and ``filtered-`` configs —
are timed in alternating rounds on one pinned CPU (``paired_ms``), and
each ``speedup`` / ``kernel_speedup`` is the median of the per-round
ratios, so drift in the host's speed between rounds cancels out of
every pair. Every config asserts that the lanes return identical
answers with identical per-list sorted and random access counts —
batches and kernels are implementation detail; the paper cost model
is unchanged.

Output goes to ``BENCH_topk.json``. Modes:

    PYTHONPATH=src python benchmarks/perf_harness.py              # full
    PYTHONPATH=src python benchmarks/perf_harness.py --quick      # CI subset
    PYTHONPATH=src python benchmarks/perf_harness.py --quick \\
        --compare BENCH_topk.json                                 # gate

``--compare BASELINE`` fails (exit 1) when, on any config/algorithm
both files cover, (a) the access counts differ from the baseline's —
a deterministic semantics change — or (b) the columnar-vs-legacy
speedup fell more than 20 % below the baseline's, or (c) a
``kernel_gated`` algorithm's ``kernel_speedup`` fell below the 1.5x
floor. The speedup ratio is compared rather than raw milliseconds
because both runs of a ratio happen on the *same* machine, so the gate
is meaningful on CI hardware that is slower or faster than wherever
the baseline was committed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import MINIMUM  # noqa: E402
from repro.access import (  # noqa: E402
    ColumnarScoringDatabase,
    MaterializedSource,
    MiddlewareSession,
    UnbatchedSource,
    tie_break_key,
)
from repro.access.cost import CostTracker  # noqa: E402
from repro.access.source import InstrumentedSource  # noqa: E402
from repro.access.types import GradedItem  # noqa: E402
from repro.algorithms.base import top_k_of  # noqa: E402
from repro.algorithms.fa import FaginA0  # noqa: E402
from repro.algorithms.naive import NaiveAlgorithm  # noqa: E402
from repro.algorithms.nra import NoRandomAccessAlgorithm  # noqa: E402
from repro.algorithms.threshold import ThresholdAlgorithm  # noqa: E402
from repro.core.aggregation import AggregationFunction  # noqa: E402
from repro.core.means import ARITHMETIC_MEAN  # noqa: E402
from repro.core.query import And, AtomicQuery, Or  # noqa: E402
from repro.core.semantics import STANDARD_FUZZY  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.engine.adaptive import AdaptiveOptions  # noqa: E402
from repro.engine.context import ExecutionContext  # noqa: E402
from repro.exceptions import ExhaustedSourceError  # noqa: E402
from repro.middleware.compile import CompiledQueryAggregation  # noqa: E402
from repro.middleware.executor import Executor  # noqa: E402
from repro.middleware.plan import FilteredConjunctPlan  # noqa: E402
from repro.middleware.planner import Planner, PlannerOptions  # noqa: E402
from repro.subsystems import RelationalSubsystem, SyntheticSubsystem  # noqa: E402
from repro.workloads import correlated_database, independent_database  # noqa: E402

#: Tolerated relative drop of the columnar-vs-legacy speedup before the
#: comparison mode fails the run.
REGRESSION_TOLERANCE = 0.20

#: Minimum scalar-vs-vectorized computation-phase speedup the gate
#: demands on the computation-heavy algorithms of every N >= 10k
#: mean-family config (the vectorized-kernels acceptance floor).
KERNEL_SPEEDUP_FLOOR = 1.5

#: Per-config ``kernel_gated`` lists name the algorithms whose
#: ``kernel_speedup`` the compare mode holds to the floor — the ones
#: whose runtime the computation phase dominates on that workload. The
#: naive scan is gated on the mean-family configs (m*N aggregate
#: evaluations by construction); TA is gated on the ``ta-`` config
#: (large-k warm-up, where the pending sweep runs through the kernel
#: registry); the filtered strategy on the ``filtered-`` configs (all
#: of S scored in one column sweep). Other ratios are recorded for
#: visibility but not gated.

#: Speedup ratios built from medians below this are timer noise on a
#: shared CI runner (a sub-2ms median swings tens of percent run to
#: run); such entries keep the (deterministic) access-count gate but
#: skip the timing gate.
MIN_GATED_MS = 2.0

#: Very large ratios (TA's legacy lane re-sorts all grades every round,
#: making its ratio 15-25x and noise-compounded) are clamped before the
#: 20% comparison: everything above the cap counts as "at the cap", so
#: jitter between 16x and 13x passes while a real collapse toward 1x
#: still fails.
SPEEDUP_CAP = 8.0


# ----------------------------------------------------------------------
# Pre-PR reference runners: the seed-commit implementations, verbatim in
# structure. These define the "legacy" lane — what the library did
# before the batched protocol and columnar backend existed — so the
# reported speedups measure this PR, not a strawman. (The tie key is
# the library-wide one so answers compare equal item for item; it was
# already computed once per item in the seed, so costs are unchanged.)
# ----------------------------------------------------------------------


def _prepr_topk(scored, k):
    items = [GradedItem(obj, grade) for obj, grade in scored.items()]
    items.sort(key=lambda it: (-it.grade, tie_break_key(it.obj)))
    return tuple(items[:k])


def _prepr_fagin(session, aggregation, k):
    m = session.num_lists
    seen, matched = {}, set()
    while len(matched) < k:
        progressed = False
        for i, source in enumerate(session.sources):
            if source.exhausted:
                continue
            item = source.next_sorted()
            progressed = True
            by_list = seen.setdefault(item.obj, {})
            by_list[i] = item.grade
            if len(by_list) == m:
                matched.add(item.obj)
        if not progressed:
            break
    for obj, by_list in seen.items():
        for j in range(m):
            if j not in by_list:
                by_list[j] = session.sources[j].random_access(obj)
    scored = {
        obj: aggregation(*(by_list[j] for j in range(m)))
        for obj, by_list in seen.items()
    }
    return _prepr_topk(scored, k)


def _prepr_threshold(session, aggregation, k):
    m = session.num_lists
    scored, bottoms = {}, [1.0] * m
    while True:
        any_progress = False
        for i, source in enumerate(session.sources):
            if source.exhausted:
                continue
            item = source.next_sorted()
            any_progress = True
            bottoms[i] = item.grade
            if item.obj not in scored:
                grades = [0.0] * m
                grades[i] = item.grade
                for j in range(m):
                    if j != i:
                        grades[j] = session.sources[j].random_access(item.obj)
                scored[item.obj] = aggregation(*grades)
        if not any_progress:
            break
        tau = aggregation(*bottoms)
        if len(scored) >= k:
            if sorted(scored.values(), reverse=True)[k - 1] >= tau:
                break
    return _prepr_topk(scored, k)


def _prepr_nra(session, aggregation, k):
    m = session.num_lists
    seen, bottoms, exact = {}, [1.0] * m, {}
    while True:
        progressed = False
        for i, source in enumerate(session.sources):
            if source.exhausted:
                continue
            item = source.next_sorted()
            progressed = True
            bottoms[i] = item.grade
            by_list = seen.setdefault(item.obj, {})
            by_list[i] = item.grade
            if len(by_list) == m and item.obj not in exact:
                exact[item.obj] = aggregation(*(by_list[j] for j in range(m)))
        if not progressed:
            break
        if len(exact) < k:
            continue
        kth_best = sorted(exact.values(), reverse=True)[k - 1]
        if aggregation(*bottoms) > kth_best:
            continue
        certified = True
        for obj, by_list in seen.items():
            if obj in exact:
                continue
            upper = aggregation(*(by_list.get(j, bottoms[j]) for j in range(m)))
            if upper > kth_best:
                certified = False
                break
        if certified:
            break
    return _prepr_topk(exact, k)


def _prepr_naive(session, aggregation, k):
    m = session.num_lists
    grades = {}
    for i, source in enumerate(session.sources):
        while True:
            try:
                item = source.next_sorted()
            except ExhaustedSourceError:
                break
            grades.setdefault(item.obj, {})[i] = item.grade
    scored = {
        obj: aggregation(*(by_list[i] for i in range(m)))
        for obj, by_list in grades.items()
    }
    return _prepr_topk(scored, k)


ALGORITHMS = {
    "fagin": (FaginA0, _prepr_fagin),
    "threshold": (ThresholdAlgorithm, _prepr_threshold),
    "nra": (NoRandomAccessAlgorithm, _prepr_nra),
    "naive": (NaiveAlgorithm, _prepr_naive),
}

def _tree_aggregation() -> CompiledQueryAggregation:
    """A compiled Boolean tree — A1 AND (A2 OR A3) — the federated
    query shape whose scalar evaluation is a per-object dict build +
    semantics recursion, and whose bulk evaluation is the compiled
    column plan (min/max kernels composed). The ``ta-tree`` config
    gates TA's pending sweep on it: with cheap flat means TA stays
    access-dominated, but real query trees make the computation phase
    the bottleneck the kernel registry removes."""
    from repro.core.query import Or, atom

    return CompiledQueryAggregation(
        And((atom("A1"), Or((atom("A2"), atom("A3"))))), STANDARD_FUZZY
    )


AGGREGATIONS = {
    "min": MINIMUM,
    "mean": ARITHMETIC_MEAN,
    "tree": _tree_aggregation(),  # arity 3: m=3 configs only
}


class ScalarOnly(AggregationFunction):
    """A kernel-less clone of an aggregation (same answers, no numpy).

    Its exact type is not in the kernel registry, so every algorithm
    falls back to the scalar ``evaluate_trusted`` fold — the lane that
    isolates what the vectorized computation phase buys.
    """

    def __init__(self, inner: AggregationFunction) -> None:
        self._inner = inner
        self.name = inner.name  # identical arity errors/messages
        self.arity = inner.arity
        self.monotone = inner.monotone
        self.strict = inner.strict

    def aggregate(self, grades):
        return self._inner.aggregate(grades)

    def evaluate_trusted(self, grades):
        return self._inner.evaluate_trusted(grades)


def cfg(
    name,
    workload,
    rho,
    N,
    m,
    k,
    seed,
    aggregation,
    algos=None,
    kernel_gated=(),
):
    """One benchmark point.

    ``rho`` is the list correlation for ``correlated`` workloads and
    the crisp conjunct's selectivity for ``filtered`` ones. ``algos``
    restricts which algorithms run (None = all four); ``kernel_gated``
    names the algorithms whose kernel_speedup the compare mode gates.
    """
    return {
        "name": name,
        "workload": workload,
        "rho": rho,
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": aggregation,
        "algos": algos,
        "kernel_gated": tuple(kernel_gated),
    }


#: The quick set is the CI gate; the full set adds the larger and
#: negatively-correlated points. The ``mean`` entries are the
#: computation-heavy configs the vectorized kernels are gated on;
#: ``federated`` entries span two subsystems through the whole engine
#: stack; the ``ta-`` entry is the Threshold Algorithm's
#: kernel-gated point (aligned lists + large k, so the warm-up's
#: pending sweep dominates); ``filtered-`` entries run the Section 4
#: filtered-conjunct strategy over a crisp + graded federation.
#: Worker counts the parallel lane sweeps (1 is the pool-of-one
#: sanity point; 8 is the acceptance point).
PARALLEL_WORKERS = (1, 4, 8)

#: Queries per parallel batch (mixed aggregations, shared store).
PARALLEL_BATCH = 16

#: Shard count for the ``shard-`` configs: fixed at 8 so every pool
#: width in SHARD_WORKERS divides it and each worker owns S/P shards.
SHARD_COUNT = 8

#: Worker-process pool widths the sharded lane sweeps. 1 is the
#: pool-of-one sanity point (all of the IPC overhead, none of the
#: parallelism); 4 is the acceptance point (>1.5x over 1 process on
#: the N=30k config).
SHARD_WORKERS = (1, 2, 4, 8)

#: Queries per sharded batch (mixed min/mean, shared segments).
SHARD_BATCH = 16

#: Process speedup the shard- configs' acceptance floor demands at 4
#: workers (N >= 30k configs, hosts with >= 4 schedulable CPUs only —
#: the lane records *why* whenever the floor is not enforced).
SHARD_SPEEDUP_FLOOR = 1.5

#: Minimum CPUs for the shard speedup floor to be physically meaningful.
SHARD_FLOOR_MIN_CPUS = 4

#: Queries per shape the plan- configs replay (the repeated-shape
#: serving segment the plan cache and chooser are judged on).
PLAN_QUERIES_PER_SHAPE = 60

#: The ε sweep the approx- configs run: 0 is the exact anchor (gated
#: bit-identical to the plain engine), the rest trade certified slack
#: for accesses under the theta-approximation stopping rule.
APPROX_EPSILONS = (0.0, 0.01, 0.05, 0.1, 0.2, 0.5)

#: Generous multiple of the Theorem 5.3 envelope N^((m-1)/m)*k^(1/m)
#: the measured exact A0 *sum* cost (sorted + random, all lists) must
#: stay under, per m^2. The theorem bounds the sorted depth per list
#: by c times the envelope with arbitrarily high probability; the
#: random phase adds at most (m-1) accesses per seen object, so a
#: ceiling of 4*m^2 envelopes absorbs both phases plus the constant c
#: — loose by design, since the point of the gate is catching
#: asymptotic regressions, not shaving constants. The *measured*
#: tightness ratio is recorded in the lane JSON for the trajectory.
APPROX_TIGHTNESS_FACTOR = 4.0

#: Pages the approx- configs' anytime cursor walks while checking that
#: every reported remaining-upper bound really caps the best grade the
#: full oracle says is still hidden.
APPROX_CURSOR_PAGES = 4

#: The plan- lane's hard gate: the adaptive engine's total weighted
#: accesses must not exceed the best feasible fixed strategy's total
#: by more than this factor (exploration overhead must stay in the
#: noise; converging to the winner must not be undone by trials).
PLAN_GATE_TOLERANCE = 1.02

#: The plan- lane's second hard gate: on the repeated-shape segment,
#: at least this fraction of plans must come from the cache.
PLAN_CACHE_HIT_FLOOR = 0.90


def interpreter_info() -> dict:
    """Build facts that explain the concurrency lanes' throughput.

    A free-threaded CPython overlaps the pure-Python hot loops the
    GIL build serialises, so thread-lane (``par-``) ratios are only
    comparable within one interpreter flavour; the process lane
    (``shard-``) dodges the GIL either way. Recorded as lane metadata,
    never gated.
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    gil_enabled = bool(probe()) if callable(probe) else True
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux fallback
        cpus = os.cpu_count() or 1
    return {
        "implementation": sys.implementation.name,
        "version": sys.version.split()[0],
        "gil_enabled": gil_enabled,
        "free_threading": not gil_enabled,
        "cpus": cpus,
    }

QUICK_CONFIGS = [
    cfg("ind-N2000-m2-k5", "independent", None, 2_000, 2, 5, 101, "min"),
    cfg("ind-N10000-m3-k10", "independent", None, 10_000, 3, 10, 42, "min"),
    cfg("corr+0.6-N10000-m3-k10", "correlated", 0.6, 10_000, 3, 10, 42, "min"),
    cfg(
        "mean-N10000-m3-k10", "independent", None, 10_000, 3, 10, 42, "mean",
        kernel_gated=("naive",),
    ),
    cfg("fed-N10000-m3-k10", "federated", None, 10_000, 3, 10, 42, "min"),
    cfg(
        "ta-tree-corr0.99-N10000-m3-k3000", "correlated", 0.99, 10_000, 3,
        3_000, 42, "tree", algos=("threshold",), kernel_gated=("threshold",),
    ),
    cfg(
        "filtered-N20000-sel0.3-m3-k10", "filtered", 0.3, 20_000, 3, 10, 42,
        "min", kernel_gated=("filtered",),
    ),
    cfg("par-N10000-m3-k10", "parallel", None, 10_000, 3, 10, 42, "mixed"),
    cfg("shard-N10000-m3-k10", "sharded", None, 10_000, 3, 10, 42, "mixed"),
    cfg("plan-N10000-m3-kmix", "plan", None, 10_000, 3, 10, 42, "mixed"),
    cfg("approx-N10000-m2-k10", "approx", None, 10_000, 2, 10, 42, "min"),
    cfg("approx-N10000-m3-k10", "approx", None, 10_000, 3, 10, 42, "min"),
]
FULL_CONFIGS = QUICK_CONFIGS + [
    cfg("corr-0.4-N10000-m2-k10", "correlated", -0.4, 10_000, 2, 10, 42, "min"),
    cfg("ind-N10000-m3-k100", "independent", None, 10_000, 3, 100, 42, "min"),
    cfg("ind-N30000-m3-k10", "independent", None, 30_000, 3, 10, 42, "min"),
    cfg(
        "mean-N30000-m3-k10", "independent", None, 30_000, 3, 10, 42, "mean",
        kernel_gated=("naive",),
    ),
    cfg("fed-N30000-m2-k10", "federated", None, 30_000, 2, 10, 7, "min"),
    cfg(
        "filtered-N50000-sel0.2-m2-k10", "filtered", 0.2, 50_000, 2, 10, 7,
        "min", kernel_gated=("filtered",),
    ),
    cfg("par-N30000-m3-k10", "parallel", None, 30_000, 3, 10, 7, "mixed"),
    cfg("shard-N30000-m3-k10", "sharded", None, 30_000, 3, 10, 7, "mixed"),
]


def build_database(workload: str, rho, N: int, m: int, seed: int):
    if workload in ("independent", "federated", "approx"):
        return independent_database(m, N, seed=seed)
    return correlated_database(m, N, rho, seed=seed)


def legacy_session(db) -> MiddlewareSession:
    """The pre-batching path: per-mint O(N*m) sources, unit accesses only."""
    raw = [
        UnbatchedSource(MaterializedSource(f"list-{i}", db.ranking(i)))
        for i in range(db.num_lists)
    ]
    return MiddlewareSession.over_sources(raw, num_objects=db.num_objects)


def median_ms(run, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


@contextlib.contextmanager
def one_cpu():
    """Pin this thread to one CPU, restoring its mask on exit.

    Only the gated ratio lanes run pinned: the par- and shard- lanes
    measure thread pools and worker processes, which need every CPU.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def paired_ms(lanes, repeats: int) -> list[list[float]]:
    """Per-lane samples in ms, the lanes timed in alternating rounds.

    Each round times every lane once, in order on even rounds and in
    reverse on odd ones, on one pinned CPU. A ratio of two lanes is
    then taken per round, between runs moments apart: a host whose
    speed drifts within a minute moves both sides of a pair alike,
    where timing one lane's repeats and then the other's compares two
    different machines.
    """
    samples: list[list[float]] = [[] for _ in lanes]
    with one_cpu():
        for round_index in range(repeats):
            order = list(range(len(lanes)))
            if round_index % 2:
                order.reverse()
            for lane in order:
                start = time.perf_counter()
                lanes[lane]()
                samples[lane].append((time.perf_counter() - start) * 1e3)
    return samples


def pair_ratio(numerator: list[float], denominator: list[float]) -> float:
    """The median per-round ratio of two lanes' samples."""
    return statistics.median(n / d for n, d in zip(numerator, denominator))


def bench_config(entry, repeats: int) -> dict:
    name = entry["name"]
    workload = entry["workload"]
    rho, N, m, k = entry["rho"], entry["N"], entry["m"], entry["k"]
    seed, agg_name = entry["seed"], entry["aggregation"]
    if workload == "federated":
        return bench_federated(entry, repeats)
    if workload == "filtered":
        return bench_filtered(entry, repeats)
    if workload == "parallel":
        return bench_parallel(entry, repeats)
    if workload == "sharded":
        return bench_sharded(entry, repeats)
    if workload == "plan":
        return bench_plan(entry, repeats)
    if workload == "approx":
        return bench_approx(entry, repeats)
    aggregation = AGGREGATIONS[agg_name]
    scalar_aggregation = ScalarOnly(aggregation)
    db = build_database(workload, rho, N, m, seed)
    columnar = ColumnarScoringDatabase.from_scoring_database(db)
    results: dict[str, dict] = {}
    selected = entry["algos"] or tuple(ALGORITHMS)
    for algo_name in selected:
        algo_cls, prepr_run = ALGORITHMS[algo_name]
        algorithm = algo_cls()
        # Warm-up runs double as the equivalence check: identical
        # answers, identical per-list access counts on both lanes.
        ref_session = legacy_session(db)
        ref_items = prepr_run(ref_session, aggregation, k)
        ref_stats = ref_session.tracker.snapshot()
        col = algorithm.top_k(columnar.session(), aggregation, k)
        if [(i.obj, i.grade) for i in ref_items] != [
            (i.obj, i.grade) for i in col.items
        ]:
            raise AssertionError(
                f"{name}/{algo_name}: columnar answer differs from legacy"
            )
        if ref_stats != col.stats:
            raise AssertionError(
                f"{name}/{algo_name}: access counts diverge — "
                f"legacy {ref_stats!r} vs columnar {col.stats!r}"
            )
        lanes = [
            lambda: prepr_run(legacy_session(db), aggregation, k),
            lambda: algorithm.top_k(columnar.session(), aggregation, k),
        ]
        if agg_name != "min":
            # Third lane: same algorithms, kernels hidden — what the
            # vectorized computation phase alone is worth. The scalar
            # lane must agree bit for bit before it is timed.
            scal = algorithm.top_k(columnar.session(), scalar_aggregation, k)
            if scal.items != col.items or scal.stats != col.stats:
                raise AssertionError(
                    f"{name}/{algo_name}: scalar lane diverges from kernels"
                )
            lanes.append(
                lambda: algorithm.top_k(
                    columnar.session(), scalar_aggregation, k
                )
            )
        samples = paired_ms(lanes, repeats)
        legacy_ms, columnar_ms = map(statistics.median, samples[:2])
        speedup = pair_ratio(samples[0], samples[1])
        results[algo_name] = {
            "legacy_ms": round(legacy_ms, 3),
            "columnar_ms": round(columnar_ms, 3),
            "speedup": round(speedup, 2),
            "sorted_by_list": list(ref_stats.sorted_by_list),
            "random_by_list": list(ref_stats.random_by_list),
            "sorted": ref_stats.sorted_cost,
            "random": ref_stats.random_cost,
            "counts_match": True,
        }
        kernel_note = ""
        if len(samples) == 3:
            kernel_speedup = pair_ratio(samples[2], samples[1])
            results[algo_name]["scalar_ms"] = round(
                statistics.median(samples[2]), 3
            )
            results[algo_name]["kernel_speedup"] = round(kernel_speedup, 2)
            kernel_note = f"   kernel {kernel_speedup:4.2f}x"
        print(
            f"  {algo_name:<10} legacy {legacy_ms:8.2f} ms   "
            f"columnar {columnar_ms:8.2f} ms   "
            f"{speedup:5.2f}x   "
            f"S={ref_stats.sorted_cost} R={ref_stats.random_cost}"
            f"{kernel_note}"
        )
    return {
        "config": name,
        "workload": workload,
        "rho": rho,
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": agg_name,
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


def federated_engine(
    db, m: int, context: ExecutionContext | None = None
) -> Engine:
    """The db's m lists split across two subsystems."""
    tables = [db.graded_set(i).as_dict() for i in range(m)]
    engine = Engine(context)
    engine.register(
        SyntheticSubsystem(
            "pod-a",
            tables={f"a{i}": tables[i] for i in range(0, m, 2)},
        )
    )
    engine.register(
        SyntheticSubsystem(
            "pod-b",
            tables={f"a{i}": tables[i] for i in range(1, m, 2)},
        )
    )
    return engine


def federated_unit_session(engine: Engine, atoms) -> MiddlewareSession:
    """The same federation, one object per round trip (seed behaviour)."""
    catalog = engine.catalog
    raw = [
        UnbatchedSource(catalog.subsystem_for(atom).evaluate(atom))
        for atom in atoms
    ]
    return MiddlewareSession.over_sources(
        raw, num_objects=catalog.num_objects
    )


def bench_federated(entry, repeats: int) -> dict:
    """A query spanning two subsystems: engine bulk path vs unit lane.

    The batched lane is the *entire* current stack — parse nothing,
    but plan, mint sources through ``Subsystem.evaluate``, and run the
    forced A0 strategy over the batch protocol. The legacy
    lane drives the seed-replica runner over the same federation with
    every source behind ``UnbatchedSource``. Answers and per-list
    counts must match exactly.
    """
    name, workload = entry["name"], entry["workload"]
    rho, N, m, k = entry["rho"], entry["N"], entry["m"], entry["k"]
    seed, agg_name = entry["seed"], entry["aggregation"]
    assert agg_name == "min", "federated configs run the standard AND"
    db = build_database(workload, rho, N, m, seed)
    engine = federated_engine(db, m)
    atoms = [AtomicQuery(f"a{i}", None, "~") for i in range(m)]
    query = And(atoms) if m > 1 else atoms[0]

    def run_batched():
        return engine.query(query).strategy("fagin").top(k)

    # Warm-up + equivalence check against the unit lane.
    answer = run_batched()
    unit_session = federated_unit_session(engine, atoms)
    ref_items = _prepr_fagin(unit_session, MINIMUM, k)
    ref_stats = unit_session.tracker.snapshot()
    if [(i.obj, i.grade) for i in ref_items] != [
        (i.obj, i.grade) for i in answer.items
    ]:
        raise AssertionError(f"{name}: batched answer differs from unit lane")
    if ref_stats != answer.result.stats:
        raise AssertionError(
            f"{name}: federated access counts diverge — "
            f"unit {ref_stats!r} vs batched {answer.result.stats!r}"
        )

    samples = paired_ms(
        [
            lambda: _prepr_fagin(
                federated_unit_session(engine, atoms), MINIMUM, k
            ),
            run_batched,
        ],
        repeats,
    )
    legacy_ms, batched_ms = map(statistics.median, samples)
    speedup = pair_ratio(*samples)
    results = {
        "fagin": {
            "legacy_ms": round(legacy_ms, 3),
            "columnar_ms": round(batched_ms, 3),
            "speedup": round(speedup, 2),
            "sorted_by_list": list(ref_stats.sorted_by_list),
            "random_by_list": list(ref_stats.random_by_list),
            "sorted": ref_stats.sorted_cost,
            "random": ref_stats.random_cost,
            "counts_match": True,
        }
    }
    print(
        f"  {'fagin':<10} unit   {legacy_ms:8.2f} ms   "
        f"batched  {batched_ms:8.2f} ms   "
        f"{speedup:5.2f}x   "
        f"S={ref_stats.sorted_cost} R={ref_stats.random_cost}"
    )
    return {
        "config": name,
        "workload": workload,
        "rho": rho,
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": agg_name,
        "subsystems": 2,
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


# ----------------------------------------------------------------------
# The parallel configs: concurrent serving off one shared read-only
# columnar store — run_many(parallel=w) vs the serial batch.
# ----------------------------------------------------------------------


def bench_parallel(entry, repeats: int) -> dict:
    """Throughput of ``run_many(parallel=w)`` at w in PARALLEL_WORKERS.

    Every worker count must return answers and batch totals
    bit-identical to the serial batch (the count-parity gate); the
    timing numbers are queries/sec over a mixed-aggregation batch of
    PARALLEL_BATCH members against one shared columnar store.
    """
    name = entry["name"]
    N, m, k, seed = entry["N"], entry["m"], entry["k"], entry["seed"]
    db = ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, N, seed=seed)
    )
    engine = Engine.over(db)
    specs = [
        (MINIMUM, ARITHMETIC_MEAN)[i % 2] for i in range(PARALLEL_BATCH)
    ]

    serial = engine.run_many(specs, k=k)
    serial_answers = [[(i.obj, i.grade) for i in a.items] for a in serial]
    serial_ms = median_ms(lambda: engine.run_many(specs, k=k), repeats)
    serial_qps = len(specs) / (serial_ms / 1e3)

    results: dict[str, dict] = {}
    for workers in PARALLEL_WORKERS:
        batch = engine.run_many(specs, k=k, parallel=workers)
        answers = [[(i.obj, i.grade) for i in a.items] for a in batch]
        if answers != serial_answers:
            raise AssertionError(
                f"{name}: parallel={workers} answers differ from serial"
            )
        if (batch.total_sorted, batch.total_random) != (
            serial.total_sorted,
            serial.total_random,
        ):
            raise AssertionError(
                f"{name}: parallel={workers} batch ledger diverges — "
                f"serial S={serial.total_sorted}/R={serial.total_random} "
                f"vs S={batch.total_sorted}/R={batch.total_random}"
            )
        par_ms = median_ms(
            lambda w=workers: engine.run_many(specs, k=k, parallel=w),
            repeats,
        )
        qps = len(specs) / (par_ms / 1e3)
        results[f"workers-{workers}"] = {
            # The serial lane is this lane's "legacy"; keeping the
            # standard field names lets the compare gate cover it.
            "legacy_ms": round(serial_ms, 3),
            "columnar_ms": round(par_ms, 3),
            "speedup": round(serial_ms / par_ms, 2),
            "queries_per_s": round(qps, 1),
            "serial_queries_per_s": round(serial_qps, 1),
            "sorted": serial.total_sorted,
            "random": serial.total_random,
            "counts_match": True,
        }
        print(
            f"  {'workers-' + str(workers):<10} serial {serial_ms:8.2f} ms   "
            f"parallel {par_ms:8.2f} ms   "
            f"{serial_ms / par_ms:5.2f}x   "
            f"{qps:8.1f} q/s   "
            f"S={serial.total_sorted} R={serial.total_random}"
        )
    return {
        "config": name,
        "workload": entry["workload"],
        "rho": entry["rho"],
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": entry["aggregation"],
        "batch_queries": len(specs),
        "interpreter": interpreter_info(),
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


# ----------------------------------------------------------------------
# The sharded configs: multi-process execution over shared-memory
# columnar shards with the threshold-exchange merge.
# ----------------------------------------------------------------------


def bench_sharded(entry, repeats: int) -> dict:
    """Throughput of ``Engine.over_shards`` at P in SHARD_WORKERS.

    Two hard parities per pool width, checked before anything is
    timed:

    * answers bit-identical to the single-store ``Engine.over`` run —
      the threshold-exchange merge is exact, at every width;
    * the batch's summed S/R ledger bit-identical to the inline
      ``processes=0`` reference — same shards, same merge, no pools —
      so parallelism is provably wall-clock only.

    The sharded ledger exceeds the single-store one by construction
    (S shards each probe locally before the exchange converges), so
    that ratio is recorded as ``ledger_overhead``, never gated to
    equality. Timing: queries/sec over a SHARD_BATCH mixed min/mean
    batch; ``speedup`` is relative to the 1-process pool (same IPC
    machinery, no parallelism), which is what the N=30k acceptance
    floor of >1.5x at 4 processes reads — on hosts with >= 4 CPUs
    (the recorded ``interpreter.cpus``); a single-core runner cannot
    show process speedup and is not asked to.
    """
    name = entry["name"]
    N, m, k, seed = entry["N"], entry["m"], entry["k"], entry["seed"]
    store = ColumnarScoringDatabase.from_scoring_database(
        independent_database(m, N, seed=seed)
    )
    single = Engine.over(store)
    specs = [(MINIMUM, ARITHMETIC_MEAN)[i % 2] for i in range(SHARD_BATCH)]
    serial = single.run_many(specs, k=k)
    serial_answers = [[(i.obj, i.grade) for i in a.items] for a in serial]
    single_ms = median_ms(lambda: single.run_many(specs, k=k), repeats)
    single_qps = len(specs) / (single_ms / 1e3)

    # The accounting reference: shards without pools.
    inline_engine = Engine.over_shards(store, shards=SHARD_COUNT, processes=0)
    try:
        inline = inline_engine.run_many(specs, k=k)
        if [
            [(i.obj, i.grade) for i in a.items] for a in inline
        ] != serial_answers:
            raise AssertionError(
                f"{name}: inline sharded answers differ from single-store"
            )
        inline_ledger = (inline.total_sorted, inline.total_random)
    finally:
        inline_engine.close()

    results: dict[str, dict] = {}
    p1_ms: float | None = None
    for workers in SHARD_WORKERS:
        engine = Engine.over_shards(
            store, shards=SHARD_COUNT, processes=workers
        )
        try:
            batch = engine.run_many(specs, k=k)
            answers = [[(i.obj, i.grade) for i in a.items] for a in batch]
            if answers != serial_answers:
                raise AssertionError(
                    f"{name}: processes={workers} answers differ from "
                    "single-store"
                )
            if (batch.total_sorted, batch.total_random) != inline_ledger:
                raise AssertionError(
                    f"{name}: processes={workers} ledger diverges — inline "
                    f"S={inline_ledger[0]}/R={inline_ledger[1]} vs "
                    f"S={batch.total_sorted}/R={batch.total_random}"
                )
            par_ms = median_ms(
                lambda: engine.run_many(specs, k=k), repeats
            )
        finally:
            engine.close()
        if p1_ms is None:
            p1_ms = par_ms
        qps = len(specs) / (par_ms / 1e3)
        results[f"processes-{workers}"] = {
            # The 1-process pool is this lane's "legacy": identical
            # IPC machinery, no parallelism — so speedup reads pool
            # scaling, not serialization overhead.
            "legacy_ms": round(p1_ms, 3),
            "columnar_ms": round(par_ms, 3),
            "speedup": round(p1_ms / par_ms, 2),
            "queries_per_s": round(qps, 1),
            "single_store_ms": round(single_ms, 3),
            "single_store_queries_per_s": round(single_qps, 1),
            "sorted": batch.total_sorted,
            "random": batch.total_random,
            "counts_match": True,
        }
        print(
            f"  {'processes-' + str(workers):<12} 1-proc {p1_ms:8.2f} ms   "
            f"P={workers} {par_ms:8.2f} ms   "
            f"{p1_ms / par_ms:5.2f}x   "
            f"{qps:8.1f} q/s   "
            f"S={batch.total_sorted} R={batch.total_random}"
        )
    serial_total = serial.total_sorted + serial.total_random

    # The acceptance floor: >SHARD_SPEEDUP_FLOOR at 4 processes on the
    # N>=30k config — but only where it is physically meaningful. The
    # lane always records whether the floor was enforced and, when it
    # was not, exactly why, so a waived gate is visible in the JSON
    # rather than silently indistinguishable from a passed one.
    interpreter = interpreter_info()
    four_proc = results.get("processes-4", {}).get("speedup")
    if interpreter["cpus"] < SHARD_FLOOR_MIN_CPUS:
        speedup_gate = {
            "enforced": False,
            "reason": (
                f"host has {interpreter['cpus']} schedulable CPU(s); "
                f"the {SHARD_SPEEDUP_FLOOR}x floor needs >= "
                f"{SHARD_FLOOR_MIN_CPUS}"
            ),
        }
        print(
            f"  NOTE: shard speedup floor NOT enforced — "
            f"{speedup_gate['reason']}"
        )
    elif N < 30_000:
        speedup_gate = {
            "enforced": False,
            "reason": (
                f"N={N} below the 30k acceptance config; floor applies "
                "to N>=30k only"
            ),
        }
    else:
        speedup_gate = {
            "enforced": True,
            "floor": SHARD_SPEEDUP_FLOOR,
            "processes_4_speedup": four_proc,
        }
        if four_proc is None or four_proc < SHARD_SPEEDUP_FLOOR:
            raise AssertionError(
                f"{name}: processes-4 speedup {four_proc} below the "
                f"{SHARD_SPEEDUP_FLOOR}x acceptance floor on "
                f"{interpreter['cpus']} CPUs"
            )
    return {
        "config": name,
        "workload": entry["workload"],
        "rho": entry["rho"],
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": entry["aggregation"],
        "shards": SHARD_COUNT,
        "batch_queries": len(specs),
        "single_store_sorted": serial.total_sorted,
        "single_store_random": serial.total_random,
        "ledger_overhead": round(
            (inline_ledger[0] + inline_ledger[1]) / serial_total, 3
        ),
        "speedup_gate": speedup_gate,
        "interpreter": interpreter,
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


# ----------------------------------------------------------------------
# The plan configs: the adaptive planning layer (shape-keyed plan cache
# + measured-history chooser) on a repeated-shape serving workload.
# ----------------------------------------------------------------------

#: Chooser tuning for the plan- configs: a serving deployment that has
#: warmed up, not the conservative library default — exploration starts
#: after 5 repeats of a shape and recurs every 10th, so the measured
#: ledger converges inside the 60-query segment.
PLAN_ADAPTIVE_OPTIONS = {
    "explore_after": 5,
    "explore_every": 10,
    "min_trials": 2,
}

#: The fixed-strategy replays the adaptive engine is gated against.
#: Only strategies capable of every shape in the workload qualify as
#: "the best fixed choice"; b0 cannot run the conjunctive shapes and
#: fagin-min cannot run the disjunctive one, so an infeasible replay
#: is reported and excluded rather than silently skipped.
PLAN_FIXED_STRATEGIES = ("nra", "fagin", "threshold", "naive")


def plan_shapes(m: int, k: int):
    """The three repeated query shapes of a plan- config's workload.

    A conjunctive shape at two k bands plus a disjunctive shape: no
    single registry strategy is best (or even capable) across all
    three, so matching the best *fixed* choice requires the adaptive
    layer to steer per shape.
    """

    def graded_atoms():
        return tuple(AtomicQuery(f"a{i}", None, "~") for i in range(m))

    return (
        (f"and-k{k}", And(graded_atoms()), k),
        (f"or-k{k}", Or(graded_atoms()), k),
        (f"and-k{10 * k}", And(graded_atoms()), 10 * k),
    )


def bench_plan(entry, repeats: int) -> dict:
    """The adaptive planning lane: telemetry-steered vs best fixed.

    The workload interleaves PLAN_QUERIES_PER_SHAPE repetitions of
    three query shapes (deterministic round-robin) against a federated
    catalog engine. Four runs are compared:

    * **adaptive** — the engine as shipped: shape-keyed plan cache and
      measured-history chooser (with the warmed-up serving options
      above);
    * **fixed-NAME** — the same engine with adaptive planning off and
      NAME forced on every query, for each feasible registry strategy.

    Hard gates, checked at generation time like the parallel lane's
    parities:

    * every run returns answers item-identical to the static
      auto-selected engine (adaptivity never changes results);
    * a second fresh adaptive pass reproduces the first's access
      totals bit for bit (decisions are deterministic functions of the
      query sequence — the module's determinism contract);
    * the plan-cache hit rate on the repeated-shape segment is at
      least PLAN_CACHE_HIT_FLOOR;
    * the adaptive run's total weighted accesses stay within
      PLAN_GATE_TOLERANCE of the best feasible fixed strategy's total
      (in practice it *beats* every fixed choice: the chooser learns
      NRA for the conjunctive shapes while B0 serves the disjunctive
      one — no fixed strategy can do both).

    Wall-clock is one full-workload pass per run (the totals are
    access-deterministic; timing is informational, like the other
    concurrency lanes), plus a cold-vs-cached plan-mint microbenchmark
    showing the cache turns planner work into an O(1) lookup.
    """
    name = entry["name"]
    N, m, k, seed = entry["N"], entry["m"], entry["k"], entry["seed"]
    db = build_database("independent", None, N, m, seed)
    shapes = plan_shapes(m, k)
    workload = [
        spec for _ in range(PLAN_QUERIES_PER_SHAPE) for spec in shapes
    ]

    def adaptive_context() -> ExecutionContext:
        return ExecutionContext(
            adaptive_options=AdaptiveOptions(**PLAN_ADAPTIVE_OPTIONS)
        )

    def run_workload(engine: Engine, strategy: str | None = None):
        total_s = total_r = 0
        answers = []
        start = time.perf_counter()
        for _, query, kk in workload:
            builder = engine.query(query)
            if strategy is not None:
                builder.strategy(strategy).adaptive(False)
            answer = builder.top(kk)
            stats = answer.result.stats
            total_s += stats.sorted_cost
            total_r += stats.random_cost
            answers.append([(i.obj, i.grade) for i in answer.items])
        elapsed_ms = (time.perf_counter() - start) * 1e3
        return answers, (total_s, total_r), elapsed_ms

    # The answer oracle: the static auto-selected engine.
    ref_answers, static_totals, static_ms = run_workload(
        federated_engine(db, m, ExecutionContext(adaptive=False))
    )

    engine = federated_engine(db, m, adaptive_context())
    answers, totals, adaptive_ms = run_workload(engine)
    if answers != ref_answers:
        raise AssertionError(
            f"{name}: adaptive answers differ from the static engine's"
        )
    # Determinism: a fresh engine replaying the same sequence must
    # reproduce every access count (counter-based exploration, no RNG).
    answers_again, totals_again, _ = run_workload(
        federated_engine(db, m, adaptive_context())
    )
    if totals_again != totals or answers_again != answers:
        raise AssertionError(
            f"{name}: adaptive replay is nondeterministic — "
            f"{totals} vs {totals_again}"
        )

    planner_metrics = engine.metrics_snapshot()["planner"]
    cache = planner_metrics["plan_cache"]
    lookups = cache["hits"] + cache["misses"]
    hit_rate = cache["hits"] / lookups if lookups else 0.0
    if hit_rate < PLAN_CACHE_HIT_FLOOR:
        raise AssertionError(
            f"{name}: plan-cache hit rate {hit_rate:.3f} below the "
            f"{PLAN_CACHE_HIT_FLOOR} floor ({cache})"
        )

    fixed: dict[str, tuple[tuple[int, int], float]] = {}
    for strategy in PLAN_FIXED_STRATEGIES:
        try:
            f_answers, f_totals, f_ms = run_workload(
                federated_engine(db, m, ExecutionContext(adaptive=False)),
                strategy,
            )
        except Exception as exc:
            print(
                f"  fixed-{strategy}: infeasible on this workload "
                f"({type(exc).__name__}) — excluded from the gate"
            )
            continue
        if f_answers != ref_answers:
            raise AssertionError(
                f"{name}: fixed {strategy!r} answers differ from static"
            )
        fixed[strategy] = (f_totals, f_ms)
    if not fixed:
        raise AssertionError(f"{name}: no feasible fixed strategy to gate on")

    adaptive_total = sum(totals)
    best_name = min(fixed, key=lambda s: sum(fixed[s][0]))
    best_totals, best_ms = fixed[best_name]
    best_total = sum(best_totals)
    if adaptive_total > PLAN_GATE_TOLERANCE * best_total:
        raise AssertionError(
            f"{name}: adaptive total {adaptive_total} accesses exceeds "
            f"best fixed ({best_name!r}, {best_total}) by more than "
            f"{PLAN_GATE_TOLERANCE}x"
        )

    # Cold vs cached plan minting on a fresh engine: the hot path's
    # planner work is one shape lookup, not a planning pass.
    probe = federated_engine(db, m, adaptive_context())
    _, cold_query, _ = shapes[0]
    start = time.perf_counter()
    probe.query(cold_query).plan()
    cold_plan_ms = (time.perf_counter() - start) * 1e3
    cached_rounds = 200
    start = time.perf_counter()
    for _ in range(cached_rounds):
        probe.query(cold_query).plan()
    cached_plan_us = (time.perf_counter() - start) * 1e6 / cached_rounds

    results = {
        "adaptive": {
            # The best fixed replay is this lane's "legacy": what a
            # statically-pinned deployment would have spent.
            "legacy_ms": round(best_ms, 3),
            "columnar_ms": round(adaptive_ms, 3),
            "speedup": round(best_ms / adaptive_ms, 2),
            "sorted": totals[0],
            "random": totals[1],
            "accesses_vs_best_fixed": round(adaptive_total / best_total, 3),
            "counts_match": True,
        }
    }
    for strategy, ((s, r), ms) in fixed.items():
        results[f"fixed-{strategy}"] = {
            "legacy_ms": round(ms, 3),
            "columnar_ms": round(ms, 3),
            "speedup": 1.0,
            "sorted": s,
            "random": r,
            "counts_match": True,
        }
    print(
        f"  {'adaptive':<16} {adaptive_ms:8.2f} ms   "
        f"S+R={adaptive_total}   hit rate {hit_rate:.3f}   "
        f"explorations {planner_metrics['chooser']['explorations']}   "
        f"overrides {planner_metrics['chooser']['overrides']}"
    )
    for strategy, ((s, r), ms) in sorted(
        fixed.items(), key=lambda kv: sum(kv[1][0])
    ):
        marker = "  <- best fixed" if strategy == best_name else ""
        print(
            f"  {'fixed-' + strategy:<16} {ms:8.2f} ms   "
            f"S+R={s + r}{marker}"
        )
    print(
        f"  {'plan mint':<16} cold {cold_plan_ms:6.3f} ms   "
        f"cached {cached_plan_us:6.1f} us/plan"
    )
    return {
        "config": name,
        "workload": entry["workload"],
        "rho": entry["rho"],
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": entry["aggregation"],
        "queries": len(workload),
        "shapes": [label for label, _, _ in shapes],
        "adaptive_options": dict(PLAN_ADAPTIVE_OPTIONS),
        "best_fixed": best_name,
        "plan_cache": cache,
        "plan_cache_hit_rate": round(hit_rate, 4),
        "chooser": planner_metrics["chooser"],
        "cold_plan_ms": round(cold_plan_ms, 3),
        "cached_plan_us": round(cached_plan_us, 2),
        "static_auto_ms": round(static_ms, 3),
        "static_auto_sorted": static_totals[0],
        "static_auto_random": static_totals[1],
        "interpreter": interpreter_info(),
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


# ----------------------------------------------------------------------
# The filtered-conjunct configs: Section 4's crisp-filter strategy over
# a relational + synthetic federation.
# ----------------------------------------------------------------------


def _prepr_filtered(catalog, plan, k, compiled):
    """The pre-batching ``Executor._run_filtered``, verbatim in
    structure: unit sources, one sorted access at a time off the crisp
    stream, per-object random access, one validating compiled-
    aggregation call per survivor. Returns (items, stats)."""
    all_atoms = compiled.atoms
    tracker = CostTracker(len(plan.filter_atoms) + len(plan.graded_atoms))
    sources = {}
    for index, atom in enumerate(plan.filter_atoms + plan.graded_atoms):
        raw = UnbatchedSource(catalog.subsystem_for(atom).evaluate(atom))
        sources[atom] = InstrumentedSource(raw, tracker, index)
    survivors = None
    for atom in plan.filter_atoms:
        source = sources[atom]
        matches = set()
        while not source.exhausted:
            item = source.next_sorted()
            if item.grade >= 1.0:
                matches.add(item.obj)
            else:
                break
        survivors = matches if survivors is None else (survivors & matches)
        if not survivors:
            break
    scored = {}
    for obj in survivors:
        grades = []
        for atom in all_atoms:
            if atom in plan.filter_atoms:
                grades.append(1.0)
            else:
                grades.append(sources[atom].random_access(obj))
        scored[obj] = compiled(*grades)
    items = tuple(top_k_of(scored, min(k, len(scored))))
    return items, tracker.snapshot()


def filtered_setup(entry):
    """Catalog, executor, and the three plan lanes for a filtered config."""
    selectivity, N, m, seed = (
        entry["rho"], entry["N"], entry["m"], entry["seed"],
    )
    rng = random.Random(seed)
    objs = list(range(N))
    matches = int(selectivity * N)
    from repro.middleware.catalog import Catalog

    catalog = Catalog()
    catalog.register(
        RelationalSubsystem(
            "rel",
            {
                o: {"Artist": "hit" if o < matches else f"a{o % 97}"}
                for o in objs
            },
        )
    )
    catalog.register(
        SyntheticSubsystem(
            "syn",
            tables={
                f"g{i}": {o: rng.random() for o in objs}
                for i in range(m - 1)
            },
        )
    )
    query = And(
        (
            AtomicQuery("Artist", "hit", "="),
            *(AtomicQuery(f"g{i}", None, "~") for i in range(m - 1)),
        )
    )
    planner = Planner(
        catalog, options=PlannerOptions(selectivity_threshold=1.0)
    )
    plan = planner.plan(query)
    assert isinstance(plan, FilteredConjunctPlan), plan.explain()
    scalar_plan = dataclasses.replace(
        plan,
        aggregation=CompiledQueryAggregation(
            plan.query, STANDARD_FUZZY, vectorize=False
        ),
    )
    return catalog, Executor(catalog, STANDARD_FUZZY), plan, scalar_plan


def bench_filtered(entry, repeats: int) -> dict:
    """The filtered-conjunct strategy: batched + column-swept vs the
    pre-PR unit loop, with a kernel-less scalar lane in between.

    All three lanes must return identical items with identical
    per-list access counts — paging the crisp block and bulk random
    access change round trips, never the Section 5 accounting.
    """
    name, k = entry["name"], entry["k"]
    catalog, executor, plan, scalar_plan = filtered_setup(entry)

    # Warm-up + equivalence across all three lanes.
    batched = executor.execute(plan, k)
    scalar = executor.execute(scalar_plan, k)
    ref_items, ref_stats = _prepr_filtered(
        catalog, plan, k, scalar_plan.aggregation
    )
    if [(i.obj, i.grade) for i in ref_items] != [
        (i.obj, i.grade) for i in batched.items
    ]:
        raise AssertionError(f"{name}: batched answer differs from legacy")
    if ref_stats != batched.result.stats:
        raise AssertionError(
            f"{name}: filtered access counts diverge — "
            f"legacy {ref_stats!r} vs batched {batched.result.stats!r}"
        )
    if scalar.items != batched.items or scalar.result.stats != batched.result.stats:
        raise AssertionError(f"{name}: scalar lane diverges from kernels")

    samples = paired_ms(
        [
            lambda: _prepr_filtered(
                catalog, plan, k, scalar_plan.aggregation
            ),
            lambda: executor.execute(plan, k),
            lambda: executor.execute(scalar_plan, k),
        ],
        repeats,
    )
    legacy_ms, columnar_ms, scalar_ms = map(statistics.median, samples)
    speedup = pair_ratio(samples[0], samples[1])
    kernel_speedup = pair_ratio(samples[2], samples[1])
    stats = batched.result.stats
    results = {
        "filtered": {
            "legacy_ms": round(legacy_ms, 3),
            "columnar_ms": round(columnar_ms, 3),
            "speedup": round(speedup, 2),
            "scalar_ms": round(scalar_ms, 3),
            "kernel_speedup": round(kernel_speedup, 2),
            "sorted_by_list": list(stats.sorted_by_list),
            "random_by_list": list(stats.random_by_list),
            "sorted": stats.sorted_cost,
            "random": stats.random_cost,
            "counts_match": True,
        }
    }
    print(
        f"  {'filtered':<10} legacy {legacy_ms:8.2f} ms   "
        f"batched  {columnar_ms:8.2f} ms   "
        f"{speedup:5.2f}x   "
        f"S={stats.sorted_cost} R={stats.random_cost}   "
        f"kernel {kernel_speedup:4.2f}x   "
        f"(|S|={batched.result.details['filter_set_size']})"
    )
    return {
        "config": name,
        "workload": entry["workload"],
        "rho": entry["rho"],
        "N": entry["N"],
        "m": entry["m"],
        "k": k,
        "seed": entry["seed"],
        "aggregation": entry["aggregation"],
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


# ----------------------------------------------------------------------
# The approx- configs: the theta-approximation accuracy/access-count
# frontier plus the Theorem 5.3 envelope check on the exact anchor.
# ----------------------------------------------------------------------


def bench_approx(entry, repeats: int) -> dict:
    """Accuracy vs access count across the ε sweep, on independent lists.

    Three generation-time hard gates:

    * **monotone savings** — forced-TA access totals must be
      non-increasing in ε, with a strict saving by ε = 0.5 (more slack
      can only stop the threshold test earlier);
    * **certified accuracy** — every run's k-th grade must satisfy the
      theta-approximation certificate (1+ε)·g_k >= true g_k against the
      full oracle, with the ε = 0 run bit-identical to the truth;
    * **Theorem 5.3 envelope** — the exact A0 run's summed middleware
      cost must stay under a generous multiple of N^((m-1)/m)·k^(1/m)
      (the measured tightness ratio is recorded for the trajectory),
      and every remaining-upper bound an anytime cursor reports must
      cap the best grade the oracle says is still hidden.

    ``--compare`` gates the per-ε access counts (deterministic) and
    never the wall-clock — the sweep's runtimes are recorded for the
    accuracy-vs-cost trajectory plot only.
    """
    from repro.analysis.bounds import a0_cost_bound

    name = entry["name"]
    N, m, k = entry["N"], entry["m"], entry["k"]
    seed, agg_name = entry["seed"], entry["aggregation"]
    assert agg_name == "min", "approx configs run the standard AND"
    db = build_database(entry["workload"], entry["rho"], N, m, seed)
    columnar = ColumnarScoringDatabase.from_scoring_database(db)
    truth_full = db.true_top_k(MINIMUM, N)
    truth = truth_full[:k]
    true_kth = truth[-1].grade

    def run(epsilon: float):
        return (
            Engine.over(columnar)
            .query(MINIMUM)
            .strategy("threshold")
            .epsilon(epsilon)
            .top(k)
        )

    results: dict[str, dict] = {}
    totals = []
    for epsilon in APPROX_EPSILONS:
        result = run(epsilon)
        got_kth = result.items[-1].grade
        if (1.0 + epsilon) * got_kth < true_kth - 1e-12:
            raise AssertionError(
                f"{name}: eps={epsilon} broke its certificate — "
                f"(1+eps)*{got_kth} < true kth {true_kth}"
            )
        if epsilon == 0.0:
            if [(i.obj, i.grade) for i in result.items] != [
                (i.obj, i.grade) for i in truth
            ]:
                raise AssertionError(
                    f"{name}: eps=0 answers differ from the oracle"
                )
            assert result.guarantee.kind == "exact"
        ms = median_ms(lambda: run(epsilon), repeats)
        stats = result.stats
        totals.append(stats.sum_cost)
        lane = f"eps-{epsilon:g}"
        results[lane] = {
            "epsilon": epsilon,
            "columnar_ms": round(ms, 3),
            "sorted_by_list": list(stats.sorted_by_list),
            "random_by_list": list(stats.random_by_list),
            "sorted": stats.sorted_cost,
            "random": stats.random_cost,
            "kth_grade": got_kth,
            "kth_error": round(
                (true_kth - got_kth) / true_kth if true_kth else 0.0, 6
            ),
            "access_saving": round(1.0 - stats.sum_cost / totals[0], 4),
            "guarantee": result.guarantee.as_dict(),
        }
        print(
            f"  {lane:<10} {ms:8.2f} ms   "
            f"S={stats.sorted_cost} R={stats.random_cost}   "
            f"saving {results[lane]['access_saving']:6.1%}   "
            f"kth {got_kth:.4f} ({result.guarantee.kind})"
        )
    if totals != sorted(totals, reverse=True):
        raise AssertionError(
            f"{name}: access totals not monotone in eps — {totals}"
        )
    if totals[-1] >= totals[0]:
        raise AssertionError(
            f"{name}: eps=0.5 saved nothing ({totals[0]} -> {totals[-1]})"
        )

    # The Theorem 5.3 envelope on the exact anchor, measured on A0
    # itself (the algorithm the theorem is about).
    exact_a0 = (
        Engine.over(columnar).query(MINIMUM).strategy("fagin").top(k)
    )
    envelope = a0_cost_bound(N, m, k)
    tightness = exact_a0.stats.sum_cost / envelope
    ceiling = APPROX_TIGHTNESS_FACTOR * m * m
    if tightness > ceiling:
        raise AssertionError(
            f"{name}: A0 cost {exact_a0.stats.sum_cost} is "
            f"{tightness:.1f}x the Theorem 5.3 envelope {envelope:.0f} "
            f"(ceiling {ceiling:.0f}x)"
        )
    print(
        f"  {'thm-5.3':<10} A0 cost {exact_a0.stats.sum_cost}   "
        f"envelope {envelope:.0f}   tightness {tightness:.2f}x "
        f"(ceiling {ceiling:.0f}x)"
    )

    # Anytime containment: every page's remaining-upper bound must cap
    # the best grade the full oracle says is still hidden.
    cursor = Engine.over(columnar).query(MINIMUM).cursor()
    uppers = []
    for _ in range(APPROX_CURSOR_PAGES):
        page = cursor.next_k(k)
        upper = page.details["certified"]["remaining_upper"]
        returned = {item.obj for item in cursor.fetched}
        hidden_best = next(
            item.grade for item in truth_full if item.obj not in returned
        )
        if upper < hidden_best - 1e-12:
            raise AssertionError(
                f"{name}: anytime bound {upper} below hidden best "
                f"{hidden_best} after {len(returned)} answers"
            )
        uppers.append(round(upper, 6))
    print(f"  {'anytime':<10} remaining-upper per page: {uppers}")

    return {
        "config": name,
        "workload": entry["workload"],
        "rho": entry["rho"],
        "N": N,
        "m": m,
        "k": k,
        "seed": seed,
        "aggregation": agg_name,
        "epsilons": list(APPROX_EPSILONS),
        "true_kth_grade": true_kth,
        "theorem53": {
            "envelope": round(envelope, 1),
            "a0_sum_cost": exact_a0.stats.sum_cost,
            "tightness_ratio": round(tightness, 3),
            "ceiling_ratio": round(ceiling, 1),
        },
        "anytime": {
            "pages": APPROX_CURSOR_PAGES,
            "page_size": k,
            "remaining_upper": uppers,
            "containment_checked": True,
        },
        "kernel_gated": list(entry["kernel_gated"]),
        "algorithms": results,
    }


def compare(current: dict, baseline_path: Path) -> list[str]:
    """Regressions of ``current`` against a committed baseline file."""
    baseline = json.loads(baseline_path.read_text())
    base_by_name = {c["config"]: c for c in baseline.get("configs", [])}
    failures: list[str] = []
    for config in current["configs"]:
        base = base_by_name.get(config["config"])
        if base is None:
            continue
        for algo, now in config["algorithms"].items():
            then = base["algorithms"].get(algo)
            if then is None:
                continue
            for field in ("sorted", "random"):
                if now[field] != then[field]:
                    failures.append(
                        f"{config['config']}/{algo}: {field} access count "
                        f"changed {then[field]} -> {now[field]} "
                        "(cost semantics must not drift)"
                    )
            if config.get("workload") in (
                "parallel", "sharded", "plan", "approx",
            ):
                # The concurrency, planning and approximation lanes'
                # hard gates are count parity (checked above and again
                # at generation time — the plan lane additionally gates
                # hit rate and accesses-vs-best-fixed, the approx lane
                # monotone ε savings, certificates and the Theorem 5.3
                # envelope when it runs); their wall-clock ratios are
                # scheduler/GIL/core-count artefacts that swing with
                # the CI machine, so they are recorded for the
                # trajectory but not gated.
                continue
            if (
                now["columnar_ms"] < MIN_GATED_MS
                or then["columnar_ms"] < MIN_GATED_MS
            ):
                continue  # sub-millisecond medians gate on counts only
            floor = min(then["speedup"], SPEEDUP_CAP) * (
                1.0 - REGRESSION_TOLERANCE
            )
            if min(now["speedup"], SPEEDUP_CAP) < floor:
                failures.append(
                    f"{config['config']}/{algo}: speedup regressed "
                    f"{then['speedup']}x -> {now['speedup']}x "
                    f"(floor {floor:.2f}x)"
                )
        # The vectorized-kernels acceptance floor: on every algorithm a
        # config explicitly gates (all current gated configs are
        # N >= 10k), the kernel lane must keep beating the scalar lane
        # by at least 1.5x. The gate is opt-in per config, so it is
        # enforced whenever declared — a config too small to time
        # meaningfully should simply not declare one.
        for algo in config.get("kernel_gated", ()):
            gain = config["algorithms"].get(algo, {}).get("kernel_speedup")
            if gain is not None and gain < KERNEL_SPEEDUP_FLOOR:
                failures.append(
                    f"{config['config']}/{algo}: kernel speedup {gain}x "
                    f"below the {KERNEL_SPEEDUP_FLOOR}x floor"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI subset of the configs"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=9,
        help="runs per median and rounds per paired ratio (default 9, "
        "as CI runs it)",
    )
    parser.add_argument(
        "--out", default="BENCH_topk.json", help="output JSON path"
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        help="fail on >20%% speedup regression or any access-count change "
        "vs this baseline JSON",
    )
    parser.add_argument(
        "--only",
        metavar="PREFIX",
        help="run only the configs whose name starts with PREFIX "
        "(e.g. 'shard-'); lanes the filter skips are carried forward "
        "from the existing --out file instead of being dropped",
    )
    args = parser.parse_args(argv)

    baseline_path = Path(args.compare) if args.compare else None
    if baseline_path is not None and not baseline_path.exists():
        print(f"baseline {baseline_path} not found", file=sys.stderr)
        return 2

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    if args.only:
        configs = [c for c in configs if c["name"].startswith(args.only)]
        if not configs:
            print(f"no config matches --only {args.only!r}", file=sys.stderr)
            return 2
    report = {
        "schema": "bench-topk/v3",
        "generated_by": "benchmarks/perf_harness.py",
        "mode": "quick" if args.quick else "full",
        "repeats": args.repeats,
        "python": sys.version.split()[0],
        "configs": [],
    }
    started = time.perf_counter()
    for entry in configs:
        print(
            f"{entry['name']} (workload={entry['workload']}, "
            f"rho={entry['rho']})"
        )
        report["configs"].append(bench_config(entry, args.repeats))
    report["wall_s"] = round(time.perf_counter() - started, 1)

    # Carry-forward: under --only, every lane the filter skipped rides
    # along from the existing output file, so a partial re-measure
    # never silently drops the rest of the trajectory.
    out_path = Path(args.out)
    if args.only and out_path.exists():
        try:
            previous_configs = json.loads(out_path.read_text()).get(
                "configs", []
            )
        except ValueError:
            previous_configs = []
        ran = {c["config"] for c in report["configs"]}
        carried = [c for c in previous_configs if c["config"] not in ran]
        if carried:
            report["configs"].extend(carried)
            print(
                "carried forward (not re-run): "
                + ", ".join(c["config"] for c in carried)
            )

    failures = []
    if baseline_path is not None:
        failures = compare(report, baseline_path)

    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out} ({report['wall_s']} s)")

    if failures:
        print("\nPERF REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if baseline_path is not None:
        print(f"no regressions vs {baseline_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
