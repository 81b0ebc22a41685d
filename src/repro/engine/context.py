"""The execution context: one object for every run-time knob.

Semantics, cost model and planner options live in one object,
:class:`ExecutionContext`: build one, hand it to
:class:`~repro.engine.engine.Engine`, and every query, cursor and
batch executed by that engine shares the same rules — the same way
one Garlic deployment would serve one installation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.access.cost import UNWEIGHTED, CostModel
from repro.core.certify import validate_epsilon
from repro.core.semantics import STANDARD_FUZZY, FuzzySemantics
from repro.engine.adaptive import AdaptiveOptions
from repro.middleware.planner import PlannerOptions

__all__ = ["ExecutionContext"]

#: Conjunction evaluation modes (Section 8): external re-aggregates in
#: the middleware; internal pushes the conjunction into a capable
#: subsystem, whose own semantics then applies.
_CONJUNCTION_MODES = ("external", "internal")


@dataclass(frozen=True)
class ExecutionContext:
    """Everything an engine run needs besides the query itself.

    Attributes
    ----------
    semantics:
        The fuzzy evaluation rules; defaults to the standard min/max/
        (1 - x) rules that Theorem 3.1 singles out.
    cost_model:
        The (c1, c2) access-cost weighting of Section 5; used for
        strategy selection (expensive random access prefers NRA) and
        for pricing results. Defaults to the unweighted model.
    planner:
        Planner tuning (filtered-conjunct threshold, cost-based
        comparison, internal-conjunction opt-in).
    conjunction:
        Default conjunction mode, ``"external"`` or ``"internal"``
        (Section 8); individual queries may override it.
    default_k:
        The k used when a query does not name one (the usual "page
        size" of a deployment).
    adaptive:
        Enable the adaptive planning layer
        (:class:`~repro.engine.adaptive.AdaptivePlanner`): the
        shape-keyed plan cache and the measured-history chooser. On
        by default; individual queries can opt out with
        ``QueryBuilder.adaptive(False)``.
    adaptive_options:
        The chooser's exploration cadence (warmup, trial spacing,
        samples per trial).
    epsilon:
        Deployment-wide default approximation slack. 0 (the default)
        keeps every query exact; ε > 0 lets contract-aware algorithms
        stop under the θ/(1+ε) rule, certifying that every returned
        grade is within a (1+ε) factor of anything excluded.
        Individual queries override it with
        ``QueryBuilder.epsilon(...)``.
    """

    semantics: FuzzySemantics = STANDARD_FUZZY
    cost_model: CostModel = UNWEIGHTED
    planner: PlannerOptions = field(default_factory=PlannerOptions)
    conjunction: str = "external"
    default_k: int = 10
    adaptive: bool = True
    adaptive_options: AdaptiveOptions = field(default_factory=AdaptiveOptions)
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))
        if self.conjunction not in _CONJUNCTION_MODES:
            raise ValueError(
                f"conjunction must be one of {_CONJUNCTION_MODES}, "
                f"got {self.conjunction!r}"
            )
        if self.default_k < 1:
            raise ValueError(
                f"default_k must be at least 1, got {self.default_k}"
            )

    def planner_options(self, conjunction: str | None = None) -> PlannerOptions:
        """Planner options with the conjunction mode folded in."""
        mode = conjunction if conjunction is not None else self.conjunction
        if mode not in _CONJUNCTION_MODES:
            raise ValueError(
                f"conjunction must be one of {_CONJUNCTION_MODES}, "
                f"got {mode!r}"
            )
        options = self.planner
        if mode == "internal" and not options.allow_internal_conjunction:
            options = replace(options, allow_internal_conjunction=True)
        return options

    def but(self, **changes: object) -> "ExecutionContext":
        """A copy with the given fields replaced (fluent tweaks)."""
        return replace(self, **changes)  # type: ignore[arg-type]
