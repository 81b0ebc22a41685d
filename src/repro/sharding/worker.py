"""The shard worker: module-level, spawn-safe probe functions.

Everything a pool worker executes lives here as plain module functions
so the ``spawn`` start method can re-import them by qualified name —
no closures, no bound methods, no engine state crosses the process
boundary. What does cross is small and picklable: a
:class:`~repro.sharding.partition.ShardSpec` (an attach recipe), an
aggregation (by wire name, or a picklable instance), a strategy name,
k' and ε.

**Warm attach.** The first probe against a shard attaches its segment
and wraps it as a columnar store; the ``(segment, store)`` pair is
cached in a module global keyed by token, so every later probe — the
steady state — pays only the query itself. Pool initializers call
:func:`_bootstrap` to prewarm the cache before the first real query.

**Probe contract.** :func:`run_probe` runs one top-k' against one
shard, under the query's ε, and returns a :class:`ProbeResult` of
plain data:

* ``items`` — the shard's local top-k' as ``(obj, grade)`` pairs in
  the global answer order (descending grade, library tie-break), each
  with its true grade;
* ``exhausted`` — the probe returned the whole shard, so it hides
  nothing;
* ``relaxed`` — the local algorithm stopped under its (1+ε) rule
  (Fagin–Lotem–Naor's θ-approximation), so an unreturned shard object
  may grade up to (1+ε) times the last returned grade. Otherwise the
  probe is exact: every unreturned object grades at or below it. These
  are the inequalities the coordinator's threshold exchange reasons
  with;
* the probe's own per-list access counts, so the coordinator can sum
  an exact Section 5 ledger.

A probe is a pure function of ``(shard bytes, aggregation, k',
strategy, ε)`` — re-probing at larger k' re-runs the local algorithm
from scratch and is charged again, the library's usual "a restart is a
re-issued subquery" rule. That purity is what makes the merged ledger
bit-identical across pool widths and against the inline reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.aggregation import AggregationFunction
from repro.core.means import (
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    HARMONIC_MEAN,
)
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT, MINIMUM
from repro.engine.registry import select_strategy
from repro.exceptions import ShardingError
from repro.sharding.partition import ShardSpec, attach_store

__all__ = [
    "ProbeResult",
    "WIRE_AGGREGATIONS",
    "run_probe",
    "run_probe_batch",
]

#: Aggregations addressable by name across the process boundary. The
#: same vocabulary the serving wire protocol exposes, duplicated here
#: (rather than imported) so the sharding layer does not depend on the
#: serving layer above it. Unnamed aggregations still work when their
#: instances pickle; these names are the fast, always-safe path.
WIRE_AGGREGATIONS: dict[str, AggregationFunction] = {
    "min": MINIMUM,
    "max": MAXIMUM,
    "mean": ARITHMETIC_MEAN,
    "geometric-mean": GEOMETRIC_MEAN,
    "harmonic-mean": HARMONIC_MEAN,
    "product": ALGEBRAIC_PRODUCT,
}

#: token -> (segment, store); the per-process warm-attach cache.
_ATTACHED: dict[tuple, tuple] = {}


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """One shard's local top-k', as plain picklable data."""

    shard: int
    asked: int
    items: tuple  # ((obj, grade), ...) in global answer order
    sorted_by_list: tuple
    random_by_list: tuple
    exhausted: bool
    relaxed: bool
    algorithm: str


def _resolve_aggregation(aggregation) -> AggregationFunction:
    if isinstance(aggregation, str):
        try:
            return WIRE_AGGREGATIONS[aggregation]
        except KeyError:
            raise ShardingError(
                f"unknown wire aggregation {aggregation!r}; known: "
                f"{', '.join(sorted(WIRE_AGGREGATIONS))}"
            ) from None
    if isinstance(aggregation, AggregationFunction):
        return aggregation
    raise ShardingError(
        f"cannot resolve aggregation {aggregation!r} in a shard worker"
    )


def _attached_store(spec: ShardSpec):
    entry = _ATTACHED.get(spec.token)
    if entry is None:
        entry = attach_store(spec)
        _ATTACHED[spec.token] = entry
    return entry[1]


def _bootstrap(specs) -> None:
    """Pool initializer: attach every shard this worker will serve."""
    for spec in specs:
        _attached_store(spec)


def _detach_all() -> None:
    """Drop every cached attach (also used by the inline path's owner
    process, where leftover views would pin the segments it unlinks)."""
    while _ATTACHED:
        _token, (segment, _store) = _ATTACHED.popitem()
        del _store
        segment.close()


def _pid() -> int:
    """The worker's process id (liveness probes, crash tests)."""
    return os.getpid()


def run_probe(
    spec: ShardSpec,
    aggregation,
    k: int,
    strategy: str | None = None,
    epsilon: float = 0.0,
) -> ProbeResult:
    """Local top-``k`` of one shard under ``epsilon``, plus its ledger."""
    store = _attached_store(spec)
    agg = _resolve_aggregation(aggregation)
    k = min(k, store.num_objects)
    choice = select_strategy(
        agg, store.num_lists, random_access=True, require=strategy
    )
    result = choice.algorithm.top_k(store.session(), agg, k, epsilon)
    exhausted = k >= store.num_objects
    return ProbeResult(
        shard=spec.index,
        asked=k,
        items=tuple((item.obj, item.grade) for item in result.items),
        sorted_by_list=result.stats.sorted_by_list,
        random_by_list=result.stats.random_by_list,
        exhausted=exhausted,
        relaxed=not exhausted and result.guarantee.kind == "approximate",
        algorithm=result.algorithm,
    )


def run_probe_batch(requests) -> tuple:
    """Many probes in one task: the coordinator's transport batch.

    ``requests`` is a sequence of ``(spec, aggregation, k, strategy,
    epsilon)`` tuples; results come back in the same order. One submit
    per pool per merge round amortises the coordinator's per-task cost
    (pickle, queue feeder, pipe wakeup) — which otherwise rivals a
    small probe itself — across every probe pinned to this worker. The
    probes are exactly :func:`run_probe`, so the ledger is unchanged.
    """
    return tuple(run_probe(*request) for request in requests)
