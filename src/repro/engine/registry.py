"""The strategy registry: algorithms self-describe, selection is lookup.

The paper establishes a small decision table (Sections 4, 6, 7 and
Remark 6.1) mapping query shape to the best applicable algorithm:

* standard fuzzy **disjunction** (max) — algorithm B0, cost m*k
  (Theorem 4.5, Remark 6.1);
* **median** aggregation, m >= 3 — the Remark 6.1 construction,
  cost O(sqrt(N*k)) for m = 3;
* standard fuzzy **conjunction** (min) — algorithm A0' (Theorem 4.4),
  a constant factor cheaper than A0 in random accesses;
* any other **monotone** query — algorithm A0 (Theorem 4.2);
* anything else (negation, non-monotone aggregations) — only the naive
  full scan is guaranteed correct (and for Q AND NOT Q, Theorem 7.1
  shows nothing asymptotically better exists).

Instead of hard-coding that table in one function, each algorithm
module registers itself here with **capability metadata** (is it
restricted to monotone queries? does it need random access? which
aggregations does it accept?) plus, for table members, a *selector*
that claims a workload with a paper-grounded justification.
:func:`select_strategy` walks the registrations in priority order —
the table is now a registry lookup, and new algorithms join it by
registering, not by editing a selection function.

Users can also force a strategy by name through
``Engine.query(...).strategy("fagin")``; :func:`capable_strategies`
answers "which registered strategies could run this workload at all?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Mapping

from repro.access.cost import CostModel
from repro.exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps imports acyclic
    from repro.algorithms.base import TopKAlgorithm
    from repro.core.aggregation import AggregationFunction

__all__ = [
    "EXPENSIVE_RANDOM_ACCESS_RATIO",
    "StrategyCapabilities",
    "StrategyRegistration",
    "StrategyChoice",
    "UnknownStrategyError",
    "register_strategy",
    "get_registration",
    "create_strategy",
    "available_strategies",
    "capable_strategies",
    "select_strategy",
    "estimate_access_costs",
]

#: An access-count envelope: ``(num_objects, num_lists, k) ->
#: (estimated sorted accesses, estimated random accesses)``. Coarse by
#: design — paper-grounded expected-case formulas (Theorem 5.3's depth
#: envelope and the per-algorithm access patterns), used by the
#: adaptive chooser to rank candidates and bound exploration, never to
#: certify a cost.
CostEstimator = Callable[[int, int, int], tuple[float, float]]


def envelope_depth(num_objects: int, num_lists: int, k: int) -> float:
    """Theorem 5.3's expected sorted depth ``N^((m-1)/m) * k^(1/m)``.

    The per-list depth at which the top-k intersection is expected to
    close on independently-drawn lists — the common building block of
    the registered access-count envelopes.
    """
    if num_lists <= 1:
        return float(k)
    return float(num_objects) ** ((num_lists - 1) / num_lists) * float(
        k
    ) ** (1 / num_lists)

#: If random access costs at least this many times a sorted access
#: (c2/c1), prefer the sorted-only NRA for monotone queries. The E16
#: benchmark calibrates this heuristic: NRA's sorted phase runs a small
#: constant factor deeper than A0's, but avoids ~c2 * (number of seen
#: objects) of random-access spend.
EXPENSIVE_RANDOM_ACCESS_RATIO = 10.0


class UnknownStrategyError(ReproError, KeyError):
    """Raised when a strategy name is not in the registry."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        super().__init__(
            f"no strategy named {name!r} is registered "
            f"(known: {', '.join(sorted(known)) or '<none>'})"
        )

    # KeyError.__str__ repr-quotes the message; keep it readable.
    __str__ = Exception.__str__


@dataclass(frozen=True)
class StrategyCapabilities:
    """What a registered strategy can and cannot evaluate.

    Attributes
    ----------
    monotone_only:
        The strategy is only guaranteed correct for monotone
        aggregations (Theorem 4.2's precondition). The naive scan is
        the one registered strategy with this off.
    needs_random_access:
        The strategy performs random accesses, so every involved
        subsystem must support them (Section 4, footnote 5).
    strict_only:
        The strategy's *optimality* story additionally assumes a strict
        aggregation (Theorem 6.5); correctness never requires it, so
        this is advisory metadata, surfaced by ``explain``-style tools.
    min_lists:
        Smallest m the strategy supports (3 for the Remark 6.1 median
        construction, 2 for Ullman's two-subsystem algorithm).
    aggregation_guard:
        Optional predicate ``(aggregation, num_lists) -> bool`` for
        strategies tied to one aggregation (B0 to max, A0' to min,
        MedianTopK to the median).
    """

    monotone_only: bool = True
    needs_random_access: bool = True
    strict_only: bool = False
    min_lists: int = 1
    aggregation_guard: (
        Callable[["AggregationFunction", int], bool] | None
    ) = None

    def admits(
        self,
        aggregation: "AggregationFunction | None",
        num_lists: int | None,
        random_access: bool,
    ) -> bool:
        """Can a strategy with these capabilities run this workload?"""
        if self.needs_random_access and not random_access:
            return False
        if num_lists is not None and num_lists < self.min_lists:
            return False
        if aggregation is not None:
            if self.monotone_only and not aggregation.monotone:
                return False
            if self.strict_only and not getattr(aggregation, "strict", False):
                return False
            if self.aggregation_guard is not None:
                if num_lists is None or not self.aggregation_guard(
                    aggregation, num_lists
                ):
                    return False
        return True


#: A selector claims a workload for its strategy: it returns the
#: paper-grounded justification string, or None to pass.
Selector = Callable[
    ["AggregationFunction", int, bool, CostModel | None], "str | None"
]


@dataclass(frozen=True)
class StrategyRegistration:
    """One registered strategy: factory, capabilities, selection hook."""

    name: str
    factory: Callable[[], "TopKAlgorithm"]
    capabilities: StrategyCapabilities
    #: Position in the auto-selection scan; None = manual-only (the
    #: strategy can be forced by name but never auto-selected).
    priority: int | None = None
    selector: Selector | None = None
    aliases: tuple[str, ...] = ()
    summary: str = ""
    #: Optional access-count envelope (see :data:`CostEstimator`).
    #: Strategies without one are never auto-explored by the adaptive
    #: chooser (it cannot bound what a trial would cost).
    cost_estimate: CostEstimator | None = None

    def create(self) -> "TopKAlgorithm":
        return self.factory()


@dataclass(frozen=True)
class StrategyChoice:
    """A selected strategy plus the justification for the choice."""

    algorithm: "TopKAlgorithm"
    reason: str

    @property
    def name(self) -> str:
        return self.algorithm.name


_REGISTRY: dict[str, StrategyRegistration] = {}
_ALIASES: dict[str, str] = {}


def register_strategy(
    name: str,
    factory: Callable[[], "TopKAlgorithm"],
    capabilities: StrategyCapabilities,
    *,
    priority: int | None = None,
    selector: Selector | None = None,
    aliases: tuple[str, ...] = (),
    summary: str = "",
    cost_estimate: CostEstimator | None = None,
) -> StrategyRegistration:
    """Register a top-k strategy under ``name`` (idempotent per name).

    Called at import time by each algorithm module — the registry is
    how :func:`select_strategy` (and through it the planner and the
    engine) finds algorithms. Re-registering
    the same name replaces the entry, so module reloads stay safe.
    """
    registration = StrategyRegistration(
        name=name,
        factory=factory,
        capabilities=capabilities,
        priority=priority,
        selector=selector,
        aliases=tuple(aliases),
        summary=summary,
        cost_estimate=cost_estimate,
    )
    _REGISTRY[name] = registration
    for alias in registration.aliases:
        _ALIASES[alias] = name
    return registration


def _ensure_registered() -> None:
    """Import the algorithm catalogue so self-registrations have run."""
    import repro.algorithms  # noqa: F401  (import side effect)


def get_registration(name: str) -> StrategyRegistration:
    """Look up a registration by name or alias."""
    _ensure_registered()
    key = _ALIASES.get(name, name)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownStrategyError(name, tuple(_REGISTRY)) from None


def create_strategy(name: str) -> "TopKAlgorithm":
    """A fresh instance of the named strategy."""
    return get_registration(name).create()


def available_strategies() -> Mapping[str, StrategyRegistration]:
    """All registrations, keyed by canonical name."""
    _ensure_registered()
    return dict(_REGISTRY)


def _in_priority_order() -> Iterator[StrategyRegistration]:
    autoselectable = [r for r in _REGISTRY.values() if r.priority is not None]
    return iter(sorted(autoselectable, key=lambda r: r.priority))  # type: ignore[arg-type]


def capable_strategies(
    aggregation: "AggregationFunction | None" = None,
    num_lists: int | None = None,
    *,
    random_access: bool = True,
) -> tuple[str, ...]:
    """Names of every registered strategy able to run this workload.

    Pure capability filtering — no ranking. A strategy appears iff its
    declared capabilities admit the aggregation (monotonicity and any
    aggregation guard), the list count, and the random-access regime.
    """
    _ensure_registered()
    return tuple(
        sorted(
            r.name
            for r in _REGISTRY.values()
            if r.capabilities.admits(aggregation, num_lists, random_access)
        )
    )


def select_strategy(
    aggregation: "AggregationFunction",
    num_lists: int,
    *,
    random_access: bool = True,
    cost_model: CostModel | None = None,
    require: str | None = None,
) -> StrategyChoice:
    """Select the best applicable strategy for ``Ft(A1..Am)``.

    The paper's decision table as a registry scan: registrations are
    visited in priority order and the first selector to claim the
    workload wins, returning its justification. With ``require`` the
    scan is skipped — the named strategy is instantiated after a
    capability check (the registry still refuses impossible pairings,
    e.g. a random-access strategy without random access).

    >>> from repro.core.tnorms import MINIMUM
    >>> select_strategy(MINIMUM, 2).name
    'A0-prime'
    >>> select_strategy(MINIMUM, 2, random_access=False).name
    'NRA'
    """
    if num_lists < 1:
        raise ValueError(f"need at least one list, got {num_lists}")
    _ensure_registered()

    if require is not None:
        registration = get_registration(require)
        if not registration.capabilities.admits(
            aggregation, num_lists, random_access
        ):
            raise ValueError(
                f"strategy {registration.name!r} cannot evaluate this "
                f"workload (aggregation {aggregation.name!r}, m="
                f"{num_lists}, random_access={random_access}); capable "
                f"strategies: "
                f"{', '.join(capable_strategies(aggregation, num_lists, random_access=random_access))}"
            )
        return StrategyChoice(
            registration.create(),
            f"strategy {registration.name!r} forced by caller",
        )

    for registration in _in_priority_order():
        assert registration.selector is not None, registration.name
        reason = registration.selector(
            aggregation, num_lists, random_access, cost_model
        )
        if reason is not None:
            return StrategyChoice(registration.create(), reason)
    raise ReproError(  # pragma: no cover - naive's selector is total
        f"no registered strategy claims aggregation {aggregation.name!r}"
    )


def estimate_access_costs(
    aggregation: "AggregationFunction",
    num_lists: int,
    num_objects: int,
    k: int,
    *,
    random_access: bool = True,
    cost_model: CostModel | None = None,
) -> list[tuple[str, float]]:
    """Estimated weighted costs of every estimable capable strategy.

    For each registration whose capabilities admit the workload *and*
    which registered a :data:`CostEstimator`, evaluates the envelope at
    ``(num_objects, num_lists, k)`` and weights it under ``cost_model``
    (unweighted S + R by default). Returns ``(canonical name, cost)``
    pairs sorted cheapest-first — the adaptive chooser's candidate
    slate.
    """
    _ensure_registered()
    weights = cost_model or CostModel()
    out: list[tuple[str, float]] = []
    for registration in _REGISTRY.values():
        if registration.cost_estimate is None:
            continue
        if not registration.capabilities.admits(
            aggregation, num_lists, random_access
        ):
            continue
        est_sorted, est_random = registration.cost_estimate(
            num_objects, num_lists, k
        )
        out.append(
            (
                registration.name,
                weights.sorted_weight * est_sorted
                + weights.random_weight * est_random,
            )
        )
    return sorted(out, key=lambda pair: (pair[1], pair[0]))
