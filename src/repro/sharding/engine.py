"""The sharded coordinator: process pools + threshold-exchange merge.

:class:`ShardedEngine` is the multi-process counterpart of running one
top-k algorithm over the whole store. It partitions a columnar store
into S strided shared-memory shards (:mod:`repro.sharding.partition`),
keeps P single-worker process pools warm over them, and answers each
query with a threshold exchange — the first phase of Cao & Wang's
uniform-threshold protocol (PODC 2004) closed by an exact test:

1. **Probe.** Every shard returns its local top-k' under the query's
   ε, with k' = min(k, ⌈k/S⌉ + ⌈√(k/S)⌉ + 1): a share of k plus a
   margin, the size at which one round settles almost every query on
   a strided split. L_s is shard s's last returned item.
2. **Exchange.** The coordinator pools every returned candidate and
   finds P_k, the pooled k-th item in the library's total order
   ``(-grade, tie_break_key)``.
3. **Retire or re-probe.** A shard retires when it is exhausted or
   when L_s ranks at or after P_k — the shard that supplied P_k
   included. An exact probe hides only objects graded at or below
   L_s, so a retired shard hides nothing that outranks the pooled
   top k. Every other shard is re-probed at min(n_s, k, 2·k').
4. **Merge.** When every shard has retired,
   :func:`~repro.algorithms.base.top_k_of` over the pool — the same
   selection with the same tie-break the single store uses — returns
   the global answer.

Termination: a probe that returned k items cannot rank its last item
before P_k (the pool holds those k items), so k' never needs to pass k
and a merge takes O(log k) rounds. In practice one round settles
almost every query: 1000 queries of the ``shard-topk`` benchmark take
1025 rounds.

**ε lives in the probes.** Under ε > 0 each probe runs its shard with
the algorithm's own (1+ε) stop, and the retirement test stays exact. A
relaxed probe hides only objects graded at most
(1+ε)·grade(L_s), and a retired shard has grade(L_s) ≤ τ, the answer's
k-th grade — so nothing outside the answer grades above (1+ε)·τ, which
is Fagin–Lotem–Naor's θ-approximation with θ = 1+ε. Relaxing the merge
as well would compound to (1+ε)². The result is certified approximate
only when a final probe actually ran relaxed.

**Accounting.** Probes are pure functions of (shard, aggregation, k',
strategy, ε); a re-probe re-runs the local algorithm from scratch and
is charged in full (a restart is a re-issued subquery). The result's
:class:`~repro.access.cost.AccessStats` sums every probe executed —
a deterministic quantity, bit-identical across pool widths 1/2/4/8
and equal to the inline (``processes=0``) reference, because nothing
about the merge depends on which process ran a probe or when it
finished. Parallelism changes wall-clock, never the ledger. Workers
keep no per-merge state, so a re-probe cannot resume; it is rare
enough that resuming would save little (DESIGN.md, "Sharded
execution").

**Pool shape.** ``ProcessPoolExecutor`` cannot route a task to a
chosen worker, but warm attach wants shard s to always land on the
same process — so the engine keeps P independent single-worker pools
and pins shard s to pool ``s mod P``. Each worker therefore maps only
``ceil(S/P)`` shards (bounded memory), pools prewarm their shards via
the spawn-safe :func:`~repro.sharding.worker._bootstrap` initializer,
and one crashed worker breaks one pool, not the fleet.

**Transport batching.** The coordinator's per-task submit path —
pickle, queue-feeder thread, pipe wakeup — costs on the order of a
small probe itself, so submitting one task per probe caps throughput
at the coordinator's pump rate no matter how many pools exist. Every
merge round therefore ships ONE task per pool carrying all of that
pool's probe requests (:func:`~repro.sharding.worker.run_probe_batch`),
and ``run_many`` batches a whole round of every in-flight query into
the same P tasks. The probes executed are identical either way —
batching is transport, never accounting.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from typing import Iterable

from repro.access.cost import AccessStats
from repro.access.source import tie_break_key
from repro.algorithms.base import TopKResult, top_k_of
from repro.core.aggregation import AggregationFunction
from repro.core.certify import EXACT_GUARANTEE, Guarantee, validate_epsilon
from repro.exceptions import InsufficientObjectsError, ShardingError
from repro.sharding import worker as _worker
from repro.sharding.partition import partition_columnar

__all__ = ["ShardedEngine"]

#: Default start method. ``spawn`` everywhere: ``fork`` inherits the
#: parent's threads mid-state (unsafe under a serving process's pools)
#: and does not exist on every platform. Tests cover both.
DEFAULT_START_METHOD = "spawn"


class ShardedEngine:
    """Top-k over S shared-memory shards in P worker processes.

    Parameters
    ----------
    store:
        The :class:`~repro.access.columnar.ColumnarScoringDatabase`
        to partition. Its contents are *copied* into segments once at
        construction; the original store is not referenced afterwards.
    shards:
        S, the number of partitions (1 <= S <= N).
    processes:
        P, the pool width. ``None`` picks ``min(S, cpu_count)``;
        ``0`` runs every probe inline in the calling process — the
        zero-infrastructure reference the parity tests compare pools
        against (same segments, same worker code, no pools).
    start_method:
        ``"spawn"`` (default), ``"fork"`` or ``"forkserver"``.
    backend:
        Segment backend override (``"shm"`` / ``"mmap"``); ``None``
        prefers shm with mmap fallback.
    """

    def __init__(
        self,
        store,
        *,
        shards: int,
        processes: int | None = None,
        start_method: str | None = None,
        backend: str | None = None,
    ) -> None:
        if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
            raise ValueError(f"shards must be a positive int, got {shards!r}")
        if processes is not None and (
            isinstance(processes, bool)
            or not isinstance(processes, int)
            or processes < 0
        ):
            raise ValueError(
                f"processes must be a non-negative int or None, got "
                f"{processes!r}"
            )
        self._specs, self._segments = partition_columnar(
            store, shards, backend=backend
        )
        self._num_objects = sum(spec.num_objects for spec in self._specs)
        self._num_lists = self._specs[0].num_lists
        if processes is None:
            import os

            processes = min(shards, os.cpu_count() or 1)
        self._processes = processes
        self._start_method = start_method or DEFAULT_START_METHOD
        self._backend = self._segments[0].backend
        self._lock = threading.Lock()
        self._counters = {
            "queries": 0,
            "probes": 0,
            "reprobes": 0,
            "merge_rounds": 0,
        }
        self._closed = False
        self._broken = False
        self._pools: list[ProcessPoolExecutor] = []
        if processes > 0:
            import multiprocessing

            try:
                ctx = multiprocessing.get_context(self._start_method)
            except ValueError:
                self._release_segments()
                raise ShardingError(
                    f"start method {self._start_method!r} is not "
                    "available on this platform"
                ) from None
            try:
                for p in range(processes):
                    owned = [
                        spec
                        for s, spec in enumerate(self._specs)
                        if s % processes == p
                    ]
                    self._pools.append(
                        ProcessPoolExecutor(
                            max_workers=1,
                            mp_context=ctx,
                            initializer=_worker._bootstrap,
                            initargs=(owned,),
                        )
                    )
            except BaseException:
                self.close()
                raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._specs)

    @property
    def num_objects(self) -> int:
        return self._num_objects

    @property
    def num_lists(self) -> int:
        return self._num_lists

    @property
    def processes(self) -> int:
        return self._processes

    @property
    def backend(self) -> str:
        return self._backend

    @property
    def start_method(self) -> str:
        return self._start_method

    def segment_names(self) -> tuple[str, ...]:
        """The segment names/paths this engine owns (leak tests)."""
        return tuple(segment.name for segment in self._segments)

    def worker_pids(self) -> tuple[int, ...]:
        """The live worker pid behind each pool (spawning if cold)."""
        self._require_open()
        if not self._pools:
            return ()
        futures = [pool.submit(_worker._pid) for pool in self._pools]
        try:
            return tuple(future.result() for future in futures)
        except BrokenProcessPool as exc:
            self._broken = True
            raise ShardingError(f"a shard worker pool is broken: {exc}") from exc

    def pool_health(self) -> dict:
        """Liveness of the worker pools, as a plain dict (``/healthz``).

        Probes every pool with a trivial task; a broken pool (worker
        SIGKILLed, failed spawn) counts as dead rather than raising.
        """
        alive = 0
        pids: list[int] = []
        if not self._closed:
            for pool in self._pools:
                try:
                    pids.append(pool.submit(_worker._pid).result(timeout=30))
                    alive += 1
                except Exception:
                    self._broken = True
        return {
            "processes": self._processes,
            "alive": alive,
            "pids": pids,
            "broken": self._broken or self._closed,
        }

    def metrics(self) -> dict:
        """Cumulative sharding counters (``Engine.metrics_snapshot``)."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "shards": self.num_shards,
            "processes": self._processes,
            "backend": self._backend,
            "start_method": self._start_method if self._pools else None,
            "pool_alive": bool(self._pools) and not self._broken and not self._closed,
            **counters,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the pools down and unlink every segment (idempotent).

        Order matters: pools first (workers detach by dying), then the
        owner's own cached attaches from inline runs, then the
        segments' names. After close every query raises
        :class:`~repro.exceptions.ShardingError`.
        """
        if self._closed:
            return
        self._closed = True
        for pool in self._pools:
            pool.shutdown(wait=True, cancel_futures=True)
        self._pools = []
        self._release_segments()

    def _release_segments(self) -> None:
        # Inline probes attach through the same worker cache as pool
        # workers — in this process. Drop those views first or the
        # buffers stay pinned.
        _worker._detach_all()
        for segment in self._segments:
            segment.close()
            segment.unlink()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise ShardingError("this ShardedEngine is closed")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def top_k(
        self,
        aggregation: "AggregationFunction | str",
        k: int,
        *,
        strategy: str | None = None,
        epsilon: float = 0.0,
    ) -> TopKResult:
        """The global top-k, merged by threshold exchange.

        ``strategy`` names a registry strategy to run *per shard* (the
        merge is strategy-agnostic — it only needs each probe's
        certificate); ``None`` lets each shard auto-select.

        ``epsilon`` relaxes the *shards*, never the merge: every probe
        runs its local algorithm under that ε (TA and NRA stop at
        (1+ε)·θ_s ≥ their threshold; algorithms without a relaxed
        stop run exact), while retirement stays the exact total-order
        test. A retired relaxed shard hides only objects
        graded ≤ (1+ε)·θ_s ≤ (1+ε)·τ, the θ-approximate certificate
        against the answer's k-th grade τ. The result is certified
        approximate exactly when a final probe ran relaxed.
        """
        return self.run_many([(aggregation, k, strategy)], epsilon=epsilon)[0]

    def run_many(
        self,
        specs: Iterable[tuple],
        *,
        epsilon: float = 0.0,
    ) -> list[TopKResult]:
        """Run a batch of ``(aggregation, k)`` queries across the pool.

        A spec may carry a third element, the registry strategy that
        member's shards run (each shard auto-selects without one).
        ``epsilon`` relaxes every member's probes, as in :meth:`top_k`.

        The whole batch merges round-synchronously: every in-flight
        query's probe requests for the current round are shipped in
        the same P per-pool tasks, so the workers chew one big batch
        per round instead of hundreds of per-probe round trips (the
        coordinator's submit path would otherwise cap throughput —
        see the module docstring); inline (``processes=0``) rounds run
        the same probes one after another. Results come back in input
        order, each with the same deterministic ledger it would have
        alone: batching changes the transport, never which probes run.
        """
        requests = [(*spec, None)[:3] for spec in specs]
        if not requests:
            return []
        self._require_open()
        epsilon = validate_epsilon(epsilon)
        merges = [
            self._start_merge(agg, k, member, epsilon)
            for agg, k, member in requests
        ]
        active = [i for i, merge in enumerate(merges) if merge.pending]
        while active:
            tagged = [
                (i, request)
                for i in active
                for request in merges[i].requests()
            ]
            for i, s, probe in self._run_round(tagged):
                merges[i].absorb(s, probe)
            active = [i for i in active if merges[i].advance()]
        return [merge.finish() for merge in merges]

    def _start_merge(
        self, aggregation, k, strategy, epsilon: float
    ) -> "_QueryMerge":
        """Validate one query and open its merge state (no probes yet)."""
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be a positive int, got {k!r}")
        if k > self._num_objects:
            raise InsufficientObjectsError(k, self._num_objects)
        return _QueryMerge(
            self, self._wire_aggregation(aggregation), k, strategy, epsilon
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _wire_aggregation(self, aggregation):
        """Prefer the wire name; fall back to pickling the instance."""
        if isinstance(aggregation, str):
            if aggregation not in _worker.WIRE_AGGREGATIONS:
                raise ShardingError(
                    f"unknown wire aggregation {aggregation!r}; known: "
                    f"{', '.join(sorted(_worker.WIRE_AGGREGATIONS))}"
                )
            return aggregation
        for name, known in _worker.WIRE_AGGREGATIONS.items():
            if aggregation is known:
                return name
        if not isinstance(aggregation, AggregationFunction):
            raise ShardingError(
                "sharded queries take an AggregationFunction or a wire "
                f"name, got {type(aggregation).__name__}"
            )
        return aggregation

    def _run_round(self, tagged):
        """Execute one transport round of probes.

        ``tagged`` is an iterable of ``(tag, (shard, spec, wire, k,
        strategy, epsilon))`` — the tag routes each result back to its
        owner, the query's index in the ``run_many`` batch.
        Pooled mode ships ONE task per pool carrying every probe
        pinned to it; inline mode runs them directly. Yields
        ``(tag, shard, ProbeResult)``.
        """
        if not self._pools:
            for tag, request in tagged:
                yield tag, request[0], _worker.run_probe(*request[1:])
            return
        by_pool: dict[int, list] = {}
        for tag, request in tagged:
            by_pool.setdefault(request[0] % self._processes, []).append(
                (tag, request)
            )
        futures = [
            (
                p,
                entries,
                self._pools[p].submit(
                    _worker.run_probe_batch,
                    tuple(request[1:] for _, request in entries),
                ),
            )
            for p, entries in by_pool.items()
        ]
        for p, entries, future in futures:
            try:
                probes = future.result()
            except BrokenProcessPool as exc:
                self._broken = True
                shards = sorted({request[0] for _, request in entries})
                raise ShardingError(
                    f"shard worker died mid-probe (pool {p}, "
                    f"shards {shards}): {exc}"
                ) from exc
            for (tag, request), probe in zip(entries, probes):
                yield tag, request[0], probe

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self.num_shards}, "
            f"processes={self._processes}, backend={self._backend!r}, "
            f"N={self._num_objects}, m={self._num_lists})"
        )


def _first_probe_size(k: int, num_shards: int) -> int:
    """min(k, ⌈k/S⌉ + ⌈√(k/S)⌉ + 1), in integer arithmetic.

    ⌈√(k/S)⌉ is the least r with r² ≥ k/S, i.e. with r² ≥ ⌈k/S⌉.
    """
    share = -(-k // num_shards)
    return min(k, share + math.isqrt(share - 1) + 2)


def _rank_key(obj, grade: float) -> tuple:
    """An item's place in the library's total order (smaller first)."""
    return (-grade, tie_break_key(obj))


class _QueryMerge:
    """One query's threshold-exchange merge, transport-agnostic.

    The state machine behind :meth:`ShardedEngine.run_many`: its
    merges are driven round-synchronously, their probe requests
    batched into the same per-pool tasks (``top_k`` is a batch of
    one). The cycle per round is
    ``requests() -> absorb(each probe) -> advance()``; ``advance``
    returns whether another round is needed, and ``finish`` seals the
    counters and builds the :class:`TopKResult`. Every probe executed
    is charged, including ones a deeper re-probe supersedes (a restart
    is a re-issued subquery) — so stats accumulate at absorb time, not
    from the surviving per-shard results.
    """

    __slots__ = (
        "_engine",
        "wire",
        "k",
        "strategy",
        "epsilon",
        "asked",
        "results",
        "stats",
        "probes",
        "reprobes",
        "rounds",
        "pending",
        "answer",
    )

    def __init__(
        self,
        engine: ShardedEngine,
        wire,
        k: int,
        strategy: str | None,
        epsilon: float,
    ) -> None:
        self._engine = engine
        self.wire = wire
        self.k = k
        self.strategy = strategy
        self.epsilon = epsilon
        first = _first_probe_size(k, engine.num_shards)
        self.asked = [min(first, spec.num_objects) for spec in engine._specs]
        self.results: dict[int, _worker.ProbeResult] = {}
        self.stats = AccessStats(
            (0,) * engine._num_lists, (0,) * engine._num_lists
        )
        self.probes = self.reprobes = self.rounds = 0
        self.pending = list(range(engine.num_shards))
        self.answer: tuple = ()

    def requests(self):
        """This round's probe requests:
        ``(shard, spec, wire, k', strategy, epsilon)``."""
        self.rounds += 1
        return [
            (
                s,
                self._engine._specs[s],
                self.wire,
                self.asked[s],
                self.strategy,
                self.epsilon,
            )
            for s in self.pending
        ]

    def absorb(self, s: int, probe: "_worker.ProbeResult") -> None:
        self.results[s] = probe
        self.stats = self.stats + AccessStats(
            tuple(probe.sorted_by_list), tuple(probe.random_by_list)
        )

    def advance(self) -> bool:
        """Exchange thresholds; returns True when a re-probe round is due."""
        self.probes += len(self.pending)
        self.answer = top_k_of(
            [pair for probe in self.results.values() for pair in probe.items],
            self.k,
        )
        # Fewer than k pooled items can only happen while some shard is
        # still deepening (the engine checked k <= N up front): then
        # every unexhausted shard must deepen.
        if len(self.answer) < self.k:
            kth = None
        else:
            last = self.answer[-1]
            kth = _rank_key(last.obj, last.grade)
        self.pending = [
            s
            for s, probe in sorted(self.results.items())
            if not probe.exhausted
            and (kth is None or _rank_key(*probe.items[-1]) < kth)
        ]
        for s in self.pending:
            self.asked[s] = min(
                self._engine._specs[s].num_objects, self.k, 2 * self.asked[s]
            )
        self.reprobes += len(self.pending)
        return bool(self.pending)

    def finish(self) -> TopKResult:
        engine = self._engine
        with engine._lock:
            engine._counters["queries"] += 1
            engine._counters["probes"] += self.probes
            engine._counters["reprobes"] += self.reprobes
            engine._counters["merge_rounds"] += self.rounds
        inner = self.results[0].algorithm if self.results else "?"
        details = {
            "shards": engine.num_shards,
            "processes": engine._processes,
            "backend": engine._backend,
            "merge_rounds": self.rounds,
            "probes": self.probes,
            "reprobes": self.reprobes,
            "per_shard_asked": tuple(self.asked),
            "threshold_exchange": True,
        }
        relaxed = sum(probe.relaxed for probe in self.results.values())
        if relaxed:
            # A retired shard's relaxed probe may hide objects up to
            # (1+ε) times the answer's k-th grade τ.
            guarantee = Guarantee(
                "approximate",
                self.epsilon,
                threshold=(1.0 + self.epsilon) * self.answer[-1].grade,
            )
            details["epsilon"] = self.epsilon
            details["relaxed_probes"] = relaxed
        else:
            guarantee = EXACT_GUARANTEE
        return TopKResult(
            self.answer,
            self.stats,
            f"sharded-{inner}",
            details=details,
            guarantee=guarantee,
        )
