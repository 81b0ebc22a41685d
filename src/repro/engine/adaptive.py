"""Adaptive planning: a plan cache and an access-count chooser.

Section 5 prices every run as ``c1*S + c2*R`` with the constants
given; the context's static :class:`~repro.access.cost.CostModel`
carries them. This module adds two cooperating pieces on top:

* :class:`PlanCache` — memoizes physical plans under a *normalized
  query shape* (atoms modulo constants, aggregation, k-band,
  subsystem set, store fingerprint), so the dominant traffic pattern
  at scale — repeated query shapes — skips ``Planner.plan`` entirely.
  Single-flight minting (the :class:`~repro.subsystems.base.RankingCache`
  discipline), LRU-bounded, invalidated whenever the catalog or store
  fingerprint moves.
* :class:`AdaptiveChooser` — keeps a per-shape ledger of *measured*
  access costs per strategy and overrides the static selection when
  the evidence disagrees with the estimate (explore rarely, exploit
  the winner). The ledger is LRU-bounded like the plan cache.
  Decisions are surfaced through ``explain()`` with both the estimate
  and the evidence.

Determinism contract
--------------------
The chooser must not make perf-harness replays (or parallel batches)
nondeterministic, so every input to a *decision* is a deterministic
function of the query sequence:

* histories record **access counts** weighted by the context's static
  :class:`~repro.access.cost.CostModel` — never wall-clock seconds;
* exploration is **counter-based** (every ``explore_every``-th query of
  a shape after a warmup), not randomized;
* ``run_many`` batches and cursors reuse cached plans but never consult
  nor advance the chooser — the serial/parallel count-parity gates stay
  bit-identical.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.access.cost import AccessStats, CostModel
from repro.core.query import And, AtomicQuery, Ft, Not, Or, Query, Weighted
from repro.engine.registry import (
    estimate_access_costs,
    get_registration,
    select_strategy,
)
from repro.middleware.compile import CompiledQueryAggregation
from repro.middleware.plan import (
    AlgorithmPlan,
    FilteredConjunctPlan,
    InternalConjunctionPlan,
    PhysicalPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregation import AggregationFunction
    from repro.core.semantics import FuzzySemantics
    from repro.middleware.catalog import Catalog

__all__ = [
    "AdaptiveOptions",
    "QueryShape",
    "shape_of_query",
    "shape_of_aggregation",
    "PlanCache",
    "AdaptiveChooser",
    "AdaptiveDecision",
    "AdaptivePlanner",
]


# ----------------------------------------------------------------------
# Options
# ----------------------------------------------------------------------

#: LRU bound on distinct shapes, shared by the plan cache and the
#: chooser's ledger.
PLAN_CACHE_CAPACITY = 256

#: EWMA step for a shape's per-strategy measured-cost cell:
#: ``new = (1 - HISTORY_DECAY) * old + HISTORY_DECAY * sample``.
HISTORY_DECAY = 0.3

#: A measured winner must beat the incumbent's measured cost by this
#: factor to take over (guards against noise flapping).
OVERRIDE_MARGIN = 0.9

#: Never trial a candidate whose *estimated* cost exceeds this multiple
#: of the best measured cost on the shape — exploration must not torch
#: the latency budget (e.g. a naive full scan on a shape the incumbent
#: answers in hundreds of accesses).
EXPLORE_COST_CAP = 3.0


@dataclass(frozen=True)
class AdaptiveOptions:
    """The chooser's exploration cadence.

    The defaults are deliberately conservative: a shape must repeat
    ``explore_after`` times before the first exploration, so short-lived
    engines (tests, scripts) behave exactly like the static planner.
    Serving deployments with long-lived engines and a latency budget
    for trials can lower ``explore_after``/``explore_every``.

    Attributes
    ----------
    explore_after:
        Number of decisions a shape must accumulate before the chooser
        may run its first exploration trial.
    explore_every:
        Deterministic cadence of exploration slots after the warmup
        (every Nth decision on the shape is a trial slot).
    min_trials:
        Samples a strategy needs on a shape before its measured cost
        can win an override (and before exploration stops re-trialing
        it).
    """

    explore_after: int = 32
    explore_every: int = 64
    min_trials: int = 3

    def __post_init__(self) -> None:
        if self.explore_after < 1 or self.explore_every < 1:
            raise ValueError(
                "explore_after and explore_every must be positive, got "
                f"{self.explore_after}/{self.explore_every}"
            )
        if self.min_trials < 1:
            raise ValueError(
                f"min_trials must be positive, got {self.min_trials}"
            )


# ----------------------------------------------------------------------
# Query shapes
# ----------------------------------------------------------------------


def k_band(k: int) -> int:
    """The power-of-two band a k falls in (k in [2^(b-1), 2^b))."""
    return max(1, int(k).bit_length())


def _selectivity_band(selectivity: float | None) -> int | None:
    """Quantized selectivity: -log2 bucketed, or None when unknown.

    Coarse on purpose — the band only has to keep apart atoms whose
    selectivity difference would flip the planner's filtered-conjunct
    decision, without making every constant its own shape.
    """
    if selectivity is None:
        return None
    return min(30, max(0, int(-math.log2(max(selectivity, 1e-9)))))


@dataclass(frozen=True)
class QueryShape:
    """A normalized query identity: structure modulo constants.

    Two queries share a shape iff the plan the static planner would
    mint — and the candidate set the chooser ranks — are the same up
    to rebinding the atoms' target constants.
    """

    kind: str  # "catalog" | "source"
    structure: tuple
    aggregation: str
    band: int
    num_atoms: int
    conjunction: str
    random_access: bool
    fingerprint: tuple
    #: The query's approximation slack ε. ε-relaxed runs stop
    #: earlier, so their measured access counts would poison the exact
    #: histories (and vice versa): the slack is part of the identity,
    #: separating plan-cache entries and cost ledgers per ε.
    epsilon: float = 0.0

    @property
    def label(self) -> str:
        """Compact human-readable form for explain() and metrics."""
        lo = 2 ** (self.band - 1)
        hi = 2 ** self.band
        text = (
            f"{_structure_label(self.structure)} | agg={self.aggregation} "
            f"| k∈[{lo},{hi}) | m={self.num_atoms}"
        )
        if self.epsilon:
            text += f" | ε={self.epsilon:g}"
        return text


def _structure_label(structure: tuple) -> str:
    tag = structure[0]
    if tag == "atom":
        _, attribute, op, crisp, band = structure
        suffix = f"#s{band}" if crisp and band is not None else ""
        return f"{attribute}{op}{suffix}"
    if tag in ("and", "or"):
        inner = ", ".join(_structure_label(s) for s in structure[1:])
        return f"{tag.upper()}({inner})"
    if tag == "not":
        return f"NOT {_structure_label(structure[1])}"
    if tag == "ft":
        inner = ", ".join(_structure_label(s) for s in structure[2:])
        return f"F[{structure[1]}]({inner})"
    if tag == "weighted":
        inner = ", ".join(_structure_label(s) for s in structure[2:])
        return f"W({inner})"
    if tag == "agg":
        return f"{structure[1]}×{structure[2]}"
    return repr(structure)  # pragma: no cover - future node kinds


def _normalize(query: Query, catalog: "Catalog") -> tuple:
    """The structure tuple of a query: atoms keep (attribute, op,
    crispness, selectivity band) but drop their target constants."""
    if isinstance(query, AtomicQuery):
        crisp = catalog.is_crisp(query)
        band = (
            _selectivity_band(catalog.selectivity(query)) if crisp else None
        )
        return ("atom", query.attribute, query.op, crisp, band)
    if isinstance(query, And):
        return ("and", *(_normalize(op, catalog) for op in query.operands))
    if isinstance(query, Or):
        return ("or", *(_normalize(op, catalog) for op in query.operands))
    if isinstance(query, Not):
        return ("not", _normalize(query.operand, catalog))
    if isinstance(query, Ft):
        return (
            "ft",
            query.aggregation.name,
            *(_normalize(op, catalog) for op in query.operands),
        )
    if isinstance(query, Weighted):
        return (
            "weighted",
            query.weights,
            *(_normalize(op, catalog) for op in query.operands),
        )
    raise TypeError(  # pragma: no cover - exhaustive over the AST
        f"cannot normalize query node {type(query).__name__}"
    )


def shape_of_query(
    query: Query,
    catalog: "Catalog",
    k: int,
    conjunction: str,
    random_access: bool,
    fingerprint: tuple,
    epsilon: float = 0.0,
) -> QueryShape:
    """The normalized shape of a catalog query (post-rewrite)."""
    atoms = query.atoms()
    return QueryShape(
        kind="catalog",
        structure=_normalize(query, catalog),
        aggregation="<compiled>",
        band=k_band(k),
        num_atoms=len(atoms),
        conjunction=conjunction,
        random_access=random_access,
        fingerprint=fingerprint,
        epsilon=epsilon,
    )


def shape_of_aggregation(
    aggregation: "AggregationFunction",
    num_lists: int,
    k: int,
    random_access: bool,
    fingerprint: tuple,
    epsilon: float = 0.0,
) -> QueryShape:
    """The shape of a source-backed run: aggregation identity + m."""
    return QueryShape(
        kind="source",
        structure=("agg", aggregation.name, num_lists),
        aggregation=aggregation.name,
        band=k_band(k),
        num_atoms=num_lists,
        conjunction="external",
        random_access=random_access,
        fingerprint=fingerprint,
        epsilon=epsilon,
    )


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _CachedPlan:
    """One cache entry: the minted plan and the query it was built for
    (kept so a hit with different constants knows to rebind)."""

    plan: PhysicalPlan
    query: Query


class PlanCache:
    """LRU, single-flight cache of physical plans keyed by QueryShape.

    Mirrors :class:`~repro.subsystems.base.RankingCache`'s concurrency
    discipline: a per-shape build lock ensures concurrent first
    requests plan once; every later request is a dict hit under the
    cache lock — O(1) planner work on the hot path.

    Invalidation: every lookup carries the current store fingerprint
    (catalog version + population, or the source backing's identity).
    The first lookup under a new fingerprint clears the cache — plans
    minted against a replaced store never survive it.
    """

    def __init__(self, capacity: int = PLAN_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[QueryShape, _CachedPlan]" = OrderedDict()
        self._building: dict[QueryShape, threading.Lock] = {}
        self._fingerprint: tuple | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _check_fingerprint_locked(self, fingerprint: tuple) -> None:
        # Called under self._lock.
        if self._fingerprint != fingerprint:
            if self._fingerprint is not None and self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._fingerprint = fingerprint

    def lookup(
        self, shape: QueryShape, build: Callable[[], _CachedPlan]
    ) -> tuple[_CachedPlan, bool]:
        """The cached entry for ``shape`` (built single-flight on miss).

        Returns ``(entry, hit)``.
        """
        with self._lock:
            self._check_fingerprint_locked(shape.fingerprint)
            entry = self._entries.get(shape)
            if entry is not None:
                self._entries.move_to_end(shape)
                self.hits += 1
                return entry, True
            build_lock = self._building.setdefault(shape, threading.Lock())
        with build_lock:
            with self._lock:
                # Re-check: another thread may have built while we
                # waited, or the fingerprint may have moved again.
                self._check_fingerprint_locked(shape.fingerprint)
                entry = self._entries.get(shape)
                if entry is not None:
                    self._entries.move_to_end(shape)
                    self.hits += 1
                    return entry, True
            entry = build()
            with self._lock:
                self._check_fingerprint_locked(shape.fingerprint)
                self.misses += 1
                self._entries[shape] = entry
                self._entries.move_to_end(shape)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                self._building.pop(shape, None)
            return entry, False

    def clear(self) -> None:
        with self._lock:
            if self._entries:
                self.invalidations += 1
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }


def rebind_plan(
    plan: PhysicalPlan,
    cached_query: Query,
    query: Query,
    semantics: "FuzzySemantics",
) -> PhysicalPlan:
    """A cached plan re-targeted at a same-shape query.

    Same shape means same tree structure, attributes, operators and
    crispness — only the target constants may differ — so the plan
    *kind* and strategy carry over verbatim; the atoms and
    any compiled aggregation are rebuilt from the new query.
    """
    if query == cached_query:
        return plan
    atoms = query.atoms()
    if isinstance(plan, AlgorithmPlan):
        aggregation = plan.aggregation
        if isinstance(aggregation, CompiledQueryAggregation):
            aggregation = CompiledQueryAggregation(query, semantics)
        return _dc_replace(
            plan, query=query, atoms=atoms, aggregation=aggregation
        )
    if isinstance(plan, FilteredConjunctPlan):
        cached_atoms = cached_query.atoms()
        filter_idx = [
            i for i, a in enumerate(cached_atoms) if a in plan.filter_atoms
        ]
        filter_atoms = tuple(atoms[i] for i in filter_idx)
        graded_atoms = tuple(
            a for i, a in enumerate(atoms) if i not in set(filter_idx)
        )
        return _dc_replace(
            plan,
            query=query,
            filter_atoms=filter_atoms,
            graded_atoms=graded_atoms,
            aggregation=CompiledQueryAggregation(query, semantics),
        )
    if isinstance(plan, InternalConjunctionPlan):
        return _dc_replace(plan, query=query, atoms=atoms)
    return plan  # pragma: no cover - future plan kinds plan fresh


# ----------------------------------------------------------------------
# Adaptive chooser
# ----------------------------------------------------------------------


class _HistoryCell:
    __slots__ = ("ewma", "samples")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.samples = 0

    def update(self, cost: float) -> None:
        if self.samples == 0:
            self.ewma = cost
        else:
            self.ewma = (
                (1.0 - HISTORY_DECAY) * self.ewma + HISTORY_DECAY * cost
            )
        self.samples += 1


class _ShapeLedger:
    """One shape's chooser state: how many decisions it has had, and
    one measured-cost cell per strategy that ran on it."""

    __slots__ = ("decisions", "cells")

    def __init__(self) -> None:
        self.decisions = 0
        self.cells: dict[str, _HistoryCell] = {}


@dataclass(frozen=True)
class AdaptiveDecision:
    """One chooser verdict, carried into the plan's reason string."""

    strategy: str
    mode: str  # "static" | "explore" | "exploit"
    reason: str


def canonical_strategy_name(name: str) -> str:
    """Registry-canonical name for an algorithm's self-reported name."""
    try:
        return get_registration(name).name
    except Exception:
        return name


class AdaptiveChooser:
    """Per-shape measured-cost ledger + decision rule.

    All decisions are deterministic functions of the decision sequence
    (see the module docstring's determinism contract). The ledger
    keeps the :data:`PLAN_CACHE_CAPACITY` most recently used shapes: a
    shape carries its ``WEIGHTED(...)`` weights and its ε, so wire
    traffic can mint new shapes without end. An evicted shape that
    comes back starts its warmup again.
    """

    def __init__(self, options: AdaptiveOptions) -> None:
        self._options = options
        self._lock = threading.Lock()
        self._ledgers: "OrderedDict[QueryShape, _ShapeLedger]" = OrderedDict()
        self.decisions = 0
        self.explorations = 0
        self.overrides = 0

    def _ledger_locked(self, shape: QueryShape) -> _ShapeLedger:
        # Called under self._lock; marks the shape most recently used.
        ledger = self._ledgers.get(shape)
        if ledger is not None:
            self._ledgers.move_to_end(shape)
            return ledger
        ledger = self._ledgers[shape] = _ShapeLedger()
        if len(self._ledgers) > PLAN_CACHE_CAPACITY:
            self._ledgers.popitem(last=False)
        return ledger

    def record(self, shape: QueryShape, name: str, cost: float) -> None:
        """Fold one measured run (static cost-model units) into the ledger."""
        name = canonical_strategy_name(name)
        with self._lock:
            cells = self._ledger_locked(shape).cells
            cell = cells.get(name)
            if cell is None:
                cell = cells[name] = _HistoryCell()
            cell.update(cost)

    def decide(
        self,
        shape: QueryShape,
        incumbent: str,
        candidates: Sequence[tuple[str, float]],
    ) -> AdaptiveDecision:
        """Pick the strategy for this run of ``shape``.

        ``incumbent`` is the static selection's canonical name;
        ``candidates`` are (canonical name, estimated cost) pairs for
        every capable strategy with a registered cost estimator.
        """
        opts = self._options
        with self._lock:
            ledger = self._ledger_locked(shape)
            count = ledger.decisions
            ledger.decisions = count + 1
            self.decisions += 1

            sampled = {name: ledger.cells.get(name) for name, _ in candidates}
            measured = {
                name: cell
                for name, cell in sampled.items()
                if cell is not None and cell.samples >= opts.min_trials
            }
            best_name = min(
                measured, key=lambda n: measured[n].ewma, default=None
            )

            explore_slot = (
                count >= opts.explore_after
                and (count - opts.explore_after) % opts.explore_every == 0
            )
            if explore_slot:
                anchor = None
                if best_name is not None:
                    anchor = measured[best_name].ewma
                else:
                    cell = sampled.get(incumbent)
                    if cell is not None and cell.samples > 0:
                        anchor = cell.ewma
                if anchor is not None:
                    cap = EXPLORE_COST_CAP * anchor
                    untried = sorted(
                        (
                            (
                                sampled[name].samples if sampled[name] else 0,
                                estimate,
                                name,
                            )
                            for name, estimate in candidates
                            if name != incumbent
                            and (
                                sampled[name] is None
                                or sampled[name].samples < opts.min_trials
                            )
                            and estimate <= cap
                        ),
                    )
                    if untried:
                        _, estimate, name = untried[0]
                        self.explorations += 1
                        return AdaptiveDecision(
                            strategy=name,
                            mode="explore",
                            reason=(
                                f"trial {name!r} (estimate ~{estimate:.0f} "
                                f"accesses, under {EXPLORE_COST_CAP}x "
                                f"the measured anchor {anchor:.0f})"
                            ),
                        )

            incumbent_cell = sampled.get(incumbent)
            if (
                best_name is not None
                and best_name != incumbent
                and incumbent_cell is not None
                and incumbent_cell.samples >= opts.min_trials
                and measured[best_name].ewma
                < OVERRIDE_MARGIN * incumbent_cell.ewma
            ):
                self.overrides += 1
                return AdaptiveDecision(
                    strategy=best_name,
                    mode="exploit",
                    reason=(
                        f"measured winner {best_name!r} averages "
                        f"{measured[best_name].ewma:.0f} accesses vs the "
                        f"static choice {incumbent!r} at "
                        f"{incumbent_cell.ewma:.0f} — the ledger overrules "
                        "the estimate"
                    ),
                )
            return AdaptiveDecision(
                strategy=incumbent,
                mode="static",
                reason=f"static selection {incumbent!r} stands",
            )

    def evidence(self, shape: QueryShape) -> list[tuple[str, float, int]]:
        """Measured (strategy, avg cost, samples) rows for a shape."""
        with self._lock:
            ledger = self._ledgers.get(shape)
            cells = ledger.cells.items() if ledger is not None else ()
            rows = [(name, cell.ewma, cell.samples) for name, cell in cells]
        return sorted(rows, key=lambda r: r[1])

    def metrics(self) -> dict:
        with self._lock:
            return {
                "decisions": self.decisions,
                "explorations": self.explorations,
                "overrides": self.overrides,
                "shapes": sum(
                    1 for ledger in self._ledgers.values() if ledger.decisions
                ),
            }


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------


class AdaptivePlanner:
    """The engine-facing bundle: plan cache + chooser.

    One instance per :class:`~repro.engine.engine.Engine`; every method
    is thread-safe. The engine consults it in three places: plan
    minting (cache), one-shot strategy choice (chooser), and query
    completion (the chooser's ledger).
    """

    def __init__(self, options: AdaptiveOptions | None = None) -> None:
        self.options = options or AdaptiveOptions()
        self.plan_cache = PlanCache()
        self.chooser = AdaptiveChooser(self.options)

    # -- plan cache ----------------------------------------------------

    @staticmethod
    def catalog_fingerprint(catalog: "Catalog") -> tuple:
        return ("catalog", catalog.version)

    @staticmethod
    def source_fingerprint(backing: object) -> tuple:
        return ("source", id(backing))

    def plan_catalog(
        self,
        query: Query,
        shape: QueryShape,
        semantics: "FuzzySemantics",
        build: Callable[[], PhysicalPlan],
    ) -> tuple[PhysicalPlan, bool]:
        """The (possibly cached) plan for a rewritten catalog query.

        On a hit the cached template is rebound to this query's
        constants and — for algorithm plans — gets a fresh strategy
        instance, so concurrent consumers never share algorithm state.
        Returns ``(plan, cache_hit)``.
        """
        entry, hit = self.plan_cache.lookup(
            shape, lambda: _CachedPlan(plan=build(), query=query)
        )
        plan = entry.plan
        if hit:
            plan = rebind_plan(plan, entry.query, query, semantics)
            if isinstance(plan, AlgorithmPlan) and plan.algorithm is not None:
                plan = _dc_replace(
                    plan,
                    algorithm=get_registration(
                        plan.algorithm.name
                    ).create(),
                )
        return plan, hit

    # -- chooser -------------------------------------------------------

    def _candidates(
        self,
        aggregation: "AggregationFunction",
        num_lists: int,
        num_objects: int,
        k: int,
        random_access: bool,
        cost_model: CostModel,
    ) -> list[tuple[str, float]]:
        return estimate_access_costs(
            aggregation,
            num_lists,
            num_objects,
            k,
            random_access=random_access,
            cost_model=cost_model,
        )

    def choose(
        self,
        shape: QueryShape,
        plan: PhysicalPlan,
        num_objects: int,
        k: int,
        cost_model: CostModel,
    ) -> PhysicalPlan:
        """Apply the chooser to an auto-selected algorithm plan.

        Non-algorithm plans (filtered conjunct, pushdown) pass
        through: their strategy is structural, not a table pick.
        """
        if not isinstance(plan, AlgorithmPlan) or plan.algorithm is None:
            return plan
        assert plan.aggregation is not None
        incumbent = canonical_strategy_name(plan.algorithm.name)
        candidates = self._candidates(
            plan.aggregation, plan.num_lists, num_objects, k,
            shape.random_access, cost_model,
        )
        decision = self.chooser.decide(shape, incumbent, candidates)
        if decision.strategy == incumbent:
            return plan
        choice = select_strategy(
            plan.aggregation,
            plan.num_lists,
            random_access=shape.random_access,
            cost_model=cost_model,
            require=decision.strategy,
        )
        return _dc_replace(
            plan,
            algorithm=choice.algorithm,
            reason=f"{plan.reason} | adaptive {decision.mode}: "
            f"{decision.reason}",
        )

    def record(
        self,
        shape: QueryShape,
        strategy_name: str,
        stats: AccessStats,
        cost_model: CostModel,
    ) -> None:
        """Fold one completed run's weighted accesses into the chooser's
        ledger."""
        self.chooser.record(shape, strategy_name, cost_model.cost(stats))

    # -- reporting -----------------------------------------------------

    def explain_lines(
        self,
        shape: QueryShape,
        plan: PhysicalPlan,
        cache_hit: bool | None,
        num_objects: int,
        k: int,
        cost_model: CostModel,
    ) -> list[str]:
        """The adaptive suffix of an ``explain()`` report.

        ``cache_hit`` is None for plans that bypass the plan cache.
        """
        stats = self.plan_cache.stats()
        if cache_hit is None:
            state = "not used (a registry lookup plans raw lists)"
        else:
            state = "HIT (cached plan rebound)" if cache_hit else "MISS (minted)"
        lines = [
            "--- adaptive planning ---",
            f"shape: {shape.label}",
            f"plan cache: {state} — {stats['entries']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses",
        ]
        if isinstance(plan, AlgorithmPlan) and plan.algorithm is not None:
            name = canonical_strategy_name(plan.algorithm.name)
            assert plan.aggregation is not None
            for cand, estimate in self._candidates(
                plan.aggregation, plan.num_lists, num_objects, k,
                shape.random_access, cost_model,
            ):
                if cand == name:
                    lines.append(
                        f"estimate: {name!r} ~{estimate:.0f} weighted accesses"
                    )
                    break
        evidence = self.chooser.evidence(shape)
        if evidence:
            rows = "; ".join(
                f"{name}: {cost:.0f} avg over {samples} run(s)"
                for name, cost, samples in evidence
            )
            lines.append(f"measured history: {rows}")
        else:
            lines.append("measured history: none yet for this shape")
        return lines

    def metrics(self) -> dict:
        """The ``planner`` block of ``Engine.metrics_snapshot()``."""
        return {
            "enabled": True,
            "plan_cache": self.plan_cache.stats(),
            "chooser": self.chooser.metrics(),
        }
