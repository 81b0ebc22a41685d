"""Adaptive planning: measured costs, a plan cache, and a chooser.

Section 5 prices every run as ``c1*S + c2*R`` — but the paper's
constants are *givens*, while a running middleware can measure them.
This module closes that loop with three cooperating pieces:

* :class:`CalibratedCostModel` — fits per-subsystem sorted/random unit
  costs (seconds per access) and batch-amortization factors from the
  ``AccessStats`` + wall-clock telemetry every executed query already
  produces. Exponentially-decayed online least squares, thread-safe,
  snapshot/restore serializable.
* :class:`PlanCache` — memoizes physical plans under a *normalized
  query shape* (atoms modulo constants, aggregation, k-band,
  subsystem set, store fingerprint), so the dominant traffic pattern
  at scale — repeated query shapes — skips ``Planner.plan`` entirely.
  Single-flight minting (the :class:`~repro.subsystems.base.RankingCache`
  discipline), LRU-bounded, invalidated whenever the catalog or store
  fingerprint moves.
* :class:`AdaptiveChooser` — keeps a per-(shape, strategy) ledger of
  *measured* access costs and overrides the static selection when the
  evidence disagrees with the estimate (explore rarely, exploit the
  winner). Decisions are surfaced through ``explain()`` with both the
  estimate and the evidence.

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

The calibrated *seconds* feed estimates, ``explain()`` text and the
``/metrics`` planner block only.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace as _dc_replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

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
    FullScanPlan,
    InternalConjunctionPlan,
    PhysicalPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.aggregation import AggregationFunction
    from repro.core.semantics import FuzzySemantics
    from repro.middleware.catalog import Catalog

__all__ = [
    "AdaptiveOptions",
    "CalibratedCostModel",
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


@dataclass(frozen=True)
class AdaptiveOptions:
    """Tuning knobs for the adaptive planning layer.

    The defaults are deliberately conservative: a shape must repeat
    ``explore_after`` times before the first exploration, so short-lived
    engines (tests, scripts) behave exactly like the static planner.
    Serving deployments with long-lived engines and a latency budget
    for trials can lower ``explore_after``/``explore_every``.

    Attributes
    ----------
    plan_cache_capacity:
        LRU bound on distinct cached shapes.
    calibration_decay:
        Forgetting factor of the decayed least-squares fit (weight of
        history per new observation; closer to 1 = longer memory).
    history_decay:
        EWMA step for the per-(shape, strategy) measured-cost ledger:
        ``new = (1 - history_decay) * old + history_decay * sample``.
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
    override_margin:
        A measured winner must beat the incumbent's measured cost by
        this factor to take over (guards against noise flapping).
    explore_cost_cap:
        Never trial a candidate whose *estimated* cost exceeds this
        multiple of the best measured cost on the shape — exploration
        must not torch the latency budget (e.g. a naive full scan on a
        shape the incumbent answers in hundreds of accesses).
    """

    plan_cache_capacity: int = 256
    calibration_decay: float = 0.9
    history_decay: float = 0.3
    explore_after: int = 32
    explore_every: int = 64
    min_trials: int = 3
    override_margin: float = 0.9
    explore_cost_cap: float = 3.0

    def __post_init__(self) -> None:
        if self.plan_cache_capacity < 1:
            raise ValueError(
                f"plan_cache_capacity must be positive, "
                f"got {self.plan_cache_capacity}"
            )
        if not 0.0 < self.calibration_decay <= 1.0:
            raise ValueError(
                f"calibration_decay must be in (0, 1], "
                f"got {self.calibration_decay}"
            )
        if not 0.0 < self.history_decay <= 1.0:
            raise ValueError(
                f"history_decay must be in (0, 1], got {self.history_decay}"
            )
        if self.explore_after < 1 or self.explore_every < 1:
            raise ValueError(
                "explore_after and explore_every must be positive, got "
                f"{self.explore_after}/{self.explore_every}"
            )
        if self.min_trials < 1:
            raise ValueError(
                f"min_trials must be positive, got {self.min_trials}"
            )
        if not 0.0 < self.override_margin <= 1.0:
            raise ValueError(
                f"override_margin must be in (0, 1], "
                f"got {self.override_margin}"
            )
        if self.explore_cost_cap < 1.0:
            raise ValueError(
                f"explore_cost_cap must be >= 1, got {self.explore_cost_cap}"
            )


# ----------------------------------------------------------------------
# Calibrated cost model
# ----------------------------------------------------------------------

#: Pseudo-scope aggregating every observation (the global fit reported
#: when a per-subsystem scope has too little data).
GLOBAL_SCOPE = "__all__"

#: Observations a scope needs before its fitted units are trusted.
MIN_CALIBRATION_OBSERVATIONS = 5


class _ScopeFit:
    """Decayed least-squares state for one scope (subsystem or global).

    Fits ``elapsed ~= c1 * S + c2 * R`` by minimizing the
    exponentially-weighted squared error; the sufficient statistics are
    five decayed sums, so an update is O(1) and a solve is a 2x2
    system. When the design is degenerate (e.g. the scope never served
    a random access) the fit falls back to a per-access rate.
    """

    __slots__ = (
        "ss", "rr", "sr", "st", "rt", "tt",
        "weight", "observations",
        "unit_seconds", "batched_seconds",
    )

    def __init__(self) -> None:
        self.ss = self.rr = self.sr = self.st = self.rt = self.tt = 0.0
        self.weight = 0.0
        self.observations = 0
        #: EWMA seconds-per-access over unit-transport observations
        #: and over batched-transport ones; their ratio is the batch
        #: amortization factor.
        self.unit_seconds: float | None = None
        self.batched_seconds: float | None = None

    def observe(
        self,
        sorted_count: int,
        random_count: int,
        elapsed: float,
        decay: float,
        batched: bool | None,
    ) -> None:
        s = float(sorted_count)
        r = float(random_count)
        self.ss = decay * self.ss + s * s
        self.rr = decay * self.rr + r * r
        self.sr = decay * self.sr + s * r
        self.st = decay * self.st + s * elapsed
        self.rt = decay * self.rt + r * elapsed
        self.tt = decay * self.tt + elapsed
        self.weight = decay * self.weight + (s + r)
        self.observations += 1
        total = s + r
        if batched is not None and total > 0:
            per_access = elapsed / total
            if batched:
                prior = self.batched_seconds
                self.batched_seconds = (
                    per_access if prior is None
                    else 0.7 * prior + 0.3 * per_access
                )
            else:
                prior = self.unit_seconds
                self.unit_seconds = (
                    per_access if prior is None
                    else 0.7 * prior + 0.3 * per_access
                )

    def units(self) -> tuple[float, float] | None:
        """Fitted (sorted, random) seconds per access, or None."""
        if self.observations == 0 or self.weight <= 0:
            return None
        rate = self.tt / self.weight  # blended seconds per access
        det = self.ss * self.rr - self.sr * self.sr
        if det > 1e-18 * max(self.ss, self.rr, 1.0) ** 2:
            c1 = (self.st * self.rr - self.rt * self.sr) / det
            c2 = (self.rt * self.ss - self.st * self.sr) / det
            # A negative coefficient means the design is too collinear
            # for a 2-parameter fit; fall back to the blended rate for
            # the offending axis.
            if c1 > 0 and c2 > 0:
                return (c1, c2)
        if self.ss > 0 and self.rr == 0:
            return (self.st / self.ss, rate)
        if self.rr > 0 and self.ss == 0:
            return (rate, self.rt / self.rr)
        return (rate, rate)

    def amortization(self) -> float | None:
        """batched/unit seconds-per-access ratio (< 1 = batching pays)."""
        if self.unit_seconds is None or self.batched_seconds is None:
            return None
        if self.unit_seconds <= 0:
            return None
        return self.batched_seconds / self.unit_seconds

    def snapshot(self) -> dict:
        return {
            "ss": self.ss, "rr": self.rr, "sr": self.sr,
            "st": self.st, "rt": self.rt, "tt": self.tt,
            "weight": self.weight,
            "observations": self.observations,
            "unit_seconds": self.unit_seconds,
            "batched_seconds": self.batched_seconds,
        }

    @classmethod
    def from_snapshot(cls, data: Mapping) -> "_ScopeFit":
        fit = cls()
        fit.ss = float(data["ss"])
        fit.rr = float(data["rr"])
        fit.sr = float(data["sr"])
        fit.st = float(data["st"])
        fit.rt = float(data["rt"])
        fit.tt = float(data["tt"])
        fit.weight = float(data["weight"])
        fit.observations = int(data["observations"])
        fit.unit_seconds = data.get("unit_seconds")
        fit.batched_seconds = data.get("batched_seconds")
        return fit


class CalibratedCostModel:
    """Online fit of per-scope access unit costs from telemetry.

    ``observe`` apportions one query's elapsed wall-clock across the
    subsystem scopes it touched (proportionally to their access
    counts) and updates each scope's decayed least-squares state plus
    the global scope. Thread-safe; all reads return plain data.
    """

    def __init__(self, decay: float = 0.9) -> None:
        self._decay = decay
        self._lock = threading.Lock()
        self._scopes: dict[str, _ScopeFit] = {}

    def observe(
        self,
        scopes: Mapping[str, tuple[int, int]],
        elapsed: float,
        batched: bool | None = None,
    ) -> None:
        """Record one completed query.

        ``scopes`` maps scope name -> (sorted, random) access counts;
        ``elapsed`` is the query's wall-clock seconds; ``batched``
        says which transport served it (None = unknown).
        """
        if elapsed < 0:
            return
        total = sum(s + r for s, r in scopes.values())
        if total <= 0:
            return
        with self._lock:
            for name, (s, r) in scopes.items():
                share = elapsed * (s + r) / total
                self._fit(name).observe(s, r, share, self._decay, batched)
            global_s = sum(s for s, _ in scopes.values())
            global_r = sum(r for _, r in scopes.values())
            self._fit(GLOBAL_SCOPE).observe(
                global_s, global_r, elapsed, self._decay, batched
            )

    def _fit(self, name: str) -> _ScopeFit:
        fit = self._scopes.get(name)
        if fit is None:
            fit = self._scopes[name] = _ScopeFit()
        return fit

    @property
    def observations(self) -> int:
        with self._lock:
            fit = self._scopes.get(GLOBAL_SCOPE)
            return fit.observations if fit is not None else 0

    def units(self, scope: str = GLOBAL_SCOPE) -> tuple[float, float] | None:
        """(sorted, random) seconds per access for a scope, or None."""
        with self._lock:
            fit = self._scopes.get(scope)
            if fit is None or fit.observations < MIN_CALIBRATION_OBSERVATIONS:
                return None
            return fit.units()

    def estimate_seconds(
        self, sorted_count: float, random_count: float
    ) -> float | None:
        """Predicted wall-clock for (S, R) accesses under the global fit."""
        units = self.units()
        if units is None:
            return None
        return units[0] * sorted_count + units[1] * random_count

    def as_cost_model(self) -> CostModel | None:
        """The calibrated (c1, c2) as a normalized :class:`CostModel`."""
        units = self.units()
        if units is None:
            return None
        return CostModel.from_calibration(*units)

    def snapshot(self) -> dict:
        """Serializable state: per-scope sums plus solved units."""
        with self._lock:
            scopes = {
                name: fit.snapshot() for name, fit in self._scopes.items()
            }
        return {"decay": self._decay, "scopes": scopes}

    def restore(self, data: Mapping) -> None:
        """Load a :meth:`snapshot` (replaces current state)."""
        scopes = {
            str(name): _ScopeFit.from_snapshot(fit)
            for name, fit in dict(data.get("scopes", {})).items()
        }
        with self._lock:
            self._decay = float(data.get("decay", self._decay))
            self._scopes = scopes

    def metrics(self) -> dict:
        """JSON-ready per-scope units for the ``/metrics`` plane."""
        with self._lock:
            fits = dict(self._scopes)
            out: dict[str, object] = {}
            for name, fit in fits.items():
                units = fit.units() if fit.observations else None
                out[name] = {
                    "observations": fit.observations,
                    "sorted_unit_us": (
                        round(units[0] * 1e6, 4) if units else None
                    ),
                    "random_unit_us": (
                        round(units[1] * 1e6, 4) if units else None
                    ),
                    "batch_amortization": (
                        round(fit.amortization(), 4)
                        if fit.amortization() is not None
                        else None
                    ),
                }
        return out


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
    #: The quality contract's approximation slack. ε-relaxed runs stop
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

    def __init__(self, capacity: int = 256) -> None:
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
    *kind*, strategy and batch size carry over verbatim; the atoms and
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
    if isinstance(plan, FullScanPlan):
        return _dc_replace(
            plan,
            query=query,
            atoms=atoms,
            aggregation=CompiledQueryAggregation(query, semantics),
        )
    return plan  # pragma: no cover - future plan kinds plan fresh


# ----------------------------------------------------------------------
# Adaptive chooser
# ----------------------------------------------------------------------


class _HistoryCell:
    __slots__ = ("ewma", "samples")

    def __init__(self) -> None:
        self.ewma = 0.0
        self.samples = 0

    def update(self, cost: float, alpha: float) -> None:
        if self.samples == 0:
            self.ewma = cost
        else:
            self.ewma = (1.0 - alpha) * self.ewma + alpha * cost
        self.samples += 1


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
    """Per-(shape, strategy) measured-cost ledger + decision rule.

    All decisions are deterministic functions of the decision sequence
    (see the module docstring's determinism contract).
    """

    def __init__(self, options: AdaptiveOptions) -> None:
        self._options = options
        self._lock = threading.Lock()
        self._history: dict[tuple[QueryShape, str], _HistoryCell] = {}
        self._counts: dict[QueryShape, int] = {}
        self.decisions = 0
        self.explorations = 0
        self.overrides = 0

    def _cell(self, shape: QueryShape, name: str) -> _HistoryCell:
        key = (shape, name)
        cell = self._history.get(key)
        if cell is None:
            cell = self._history[key] = _HistoryCell()
        return cell

    def record(self, shape: QueryShape, name: str, cost: float) -> None:
        """Fold one measured run (static cost-model units) into the ledger."""
        with self._lock:
            self._cell(shape, canonical_strategy_name(name)).update(
                cost, self._options.history_decay
            )

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
            count = self._counts.get(shape, 0)
            self._counts[shape] = count + 1
            self.decisions += 1

            sampled = {
                name: self._history.get((shape, name))
                for name, _ in candidates
            }
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
                    cap = opts.explore_cost_cap * anchor
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
                                f"accesses, under {opts.explore_cost_cap}x "
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
                < opts.override_margin * incumbent_cell.ewma
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
            rows = [
                (name, cell.ewma, cell.samples)
                for (s, name), cell in self._history.items()
                if s == shape and cell.samples > 0
            ]
        return sorted(rows, key=lambda r: r[1])

    def metrics(self) -> dict:
        with self._lock:
            return {
                "decisions": self.decisions,
                "explorations": self.explorations,
                "overrides": self.overrides,
                "shapes": len(self._counts),
            }


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------


class AdaptivePlanner:
    """The engine-facing bundle: calibration + plan cache + chooser.

    One instance per :class:`~repro.engine.engine.Engine`; every method
    is thread-safe. The engine consults it in three places: plan
    minting (cache), one-shot strategy choice (chooser), and query
    completion (telemetry).
    """

    def __init__(self, options: AdaptiveOptions | None = None) -> None:
        self.options = options or AdaptiveOptions()
        self.calibration = CalibratedCostModel(self.options.calibration_decay)
        self.plan_cache = PlanCache(self.options.plan_cache_capacity)
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

        Non-algorithm plans (filtered conjunct, pushdown, full scan)
        pass through: their strategy is structural, not a table pick.
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

    # -- telemetry -----------------------------------------------------

    def record(
        self,
        shape: QueryShape | None,
        strategy_name: str | None,
        stats: AccessStats,
        elapsed: float,
        scopes: Mapping[str, tuple[int, int]],
        cost_model: CostModel,
        batched: bool | None = None,
    ) -> None:
        """Fold one completed query into calibration and (when the run
        had a choosable strategy) the chooser's ledger."""
        self.calibration.observe(scopes, elapsed, batched)
        if shape is not None and strategy_name is not None:
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
                    seconds = self.calibration.estimate_seconds(estimate, 0)
                    timing = (
                        f" (~{seconds * 1e3:.2f} ms at calibrated units)"
                        if seconds is not None
                        else " (calibration warming up)"
                    )
                    lines.append(
                        f"estimate: {name!r} ~{estimate:.0f} weighted "
                        f"accesses{timing}"
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
            "calibration": self.calibration.metrics(),
        }
