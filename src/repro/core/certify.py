"""Quality contracts, stopping rules, and certified results.

Every algorithm in this repository used to run to exact completion.
The paper's guarantee machinery supports strictly more: TA's threshold
value :math:`\\tau` and NRA's (lower, upper) bookkeeping are *live
certificates*, and relaxing the termination test against them yields
early stops whose answers still carry a provable quality statement.

This module is the contract layer those relaxations share:

``QualityContract``
    What the caller asked for — ``exact``, ``approximate`` (the
    :math:`\\theta`-approximation of Fagin–Lotem–Naor: stop once the
    k-th best certified grade :math:`g_k` satisfies
    :math:`(1+\\varepsilon)\\,g_k \\ge \\tau`), or ``anytime`` (run
    until a deadline, return the certified prefix plus bounds).

``StoppingRule``
    The pluggable termination test minted from a contract. The
    hard-coded ``kth_best >= tau`` checks in ``algorithms/threshold``
    and ``algorithms/nra`` route through it; at :math:`\\varepsilon=0`
    the comparisons are *literally* the exact ones (an explicit
    branch, not a ``1.0 * x`` multiplication), so exact runs stay
    bit-identical in both answers and access ledgers.

``Guarantee``
    What was actually delivered. An algorithm may deliver a *stronger*
    guarantee than asked (FA's match-count stop observes no grades, so
    it can never certify an early :math:`\\varepsilon`-stop — it runs
    to exact completion under any contract and says so).

``GradeBounds`` / ``CertifiedResult``
    The anytime surface: per-item (lower, upper) intervals plus an
    upper bound on everything not returned, as produced by
    ``ResultCursor.stop()``.

The certified-approximation statement, for the returned set :math:`Y`
and any object :math:`z \\notin Y`:

.. math::

    (1+\\varepsilon)\\,\\mu(y) \\ge \\mu(z) \\quad \\forall y \\in Y

because every returned grade is at least :math:`g_k`, and every
unreturned object's grade is at most the bound the rule stopped
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "CertifiedResult",
    "EXACT",
    "EXACT_GUARANTEE",
    "GradeBounds",
    "Guarantee",
    "QualityContract",
    "StoppingRule",
    "as_contract",
    "validate_epsilon",
]


def validate_epsilon(epsilon: float) -> float:
    """Validate an approximation slack: a finite float >= 0."""
    try:
        value = float(epsilon)
    except (TypeError, ValueError, OverflowError):
        # OverflowError: an int past float range, e.g. 10**400.
        raise ValueError(
            f"epsilon must be a non-negative real number, got {epsilon!r}"
        ) from None
    if math.isnan(value) or math.isinf(value) or value < 0.0:
        raise ValueError(
            f"epsilon must be a non-negative real number, got {epsilon!r}"
        )
    return value


@dataclass(frozen=True, slots=True)
class QualityContract:
    """What quality the caller asked for.

    ``kind`` is ``"exact"``, ``"approximate"`` or ``"anytime"``;
    ``epsilon`` is the relative slack (0 for exact). An approximate
    contract with ``epsilon == 0`` *is* the exact contract — the
    constructors normalise it so downstream code can branch on
    ``kind`` alone.
    """

    kind: str = "exact"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "approximate", "anytime"):
            raise ValueError(
                "contract kind must be 'exact', 'approximate' or "
                f"'anytime', got {self.kind!r}"
            )
        object.__setattr__(self, "epsilon", validate_epsilon(self.epsilon))
        if self.kind == "exact" and self.epsilon != 0.0:
            raise ValueError("an exact contract cannot carry epsilon > 0")

    # -- constructors ---------------------------------------------------

    @classmethod
    def exact(cls) -> "QualityContract":
        return EXACT

    @classmethod
    def approximate(cls, epsilon: float) -> "QualityContract":
        """The θ-approximate contract; ``epsilon == 0`` is exact."""
        epsilon = validate_epsilon(epsilon)
        if epsilon == 0.0:
            return EXACT
        return cls("approximate", epsilon)

    @classmethod
    def anytime(cls, epsilon: float = 0.0) -> "QualityContract":
        return cls("anytime", validate_epsilon(epsilon))

    # -- derived --------------------------------------------------------

    @property
    def relaxation(self) -> float:
        """The multiplicative slack ``1 + epsilon``."""
        return 1.0 + self.epsilon

    def stopping_rule(self) -> "StoppingRule":
        return StoppingRule(self.epsilon)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "epsilon": self.epsilon}

    def __str__(self) -> str:
        if self.kind == "exact":
            return "exact"
        return f"{self.kind}(ε={self.epsilon:g})"


#: The default contract: run to exact completion.
EXACT = QualityContract()


def as_contract(value: Any) -> QualityContract:
    """Coerce ``None`` / a float ε / a contract into a contract."""
    if value is None:
        return EXACT
    if isinstance(value, QualityContract):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret {value!r} as a quality contract")
    if isinstance(value, (int, float)):
        return QualityContract.approximate(value)
    raise ValueError(f"cannot interpret {value!r} as a quality contract")


class StoppingRule:
    """The θ/(1+ε) termination test, pluggable into any algorithm.

    The exact rules this replaces:

    * TA stops when ``kth_best >= tau`` → :meth:`met`.
    * NRA keeps a candidate alive while ``upper > kth_best`` → it
      compares ``upper`` against :meth:`limit`.

    At ``epsilon == 0`` each method takes an explicit exact branch so
    the float comparisons are bit-identical to the historical checks
    (no ``1.0 * x`` round-trip in the hot loop).
    """

    __slots__ = ("epsilon", "_relaxation")

    def __init__(self, epsilon: float = 0.0) -> None:
        self.epsilon = validate_epsilon(epsilon)
        self._relaxation = 1.0 + self.epsilon

    @property
    def exact(self) -> bool:
        return self.epsilon == 0.0

    def met(self, kth_best: float, upper: float) -> bool:
        """Stop? — the k-th certified grade is within ε of ``upper``."""
        if self.epsilon == 0.0:
            return kth_best >= upper
        return self._relaxation * kth_best >= upper

    def limit(self, kth_best: float) -> float:
        """The relaxed bar ``(1+ε) * kth_best`` — what vectorised
        candidate sweeps compare uppers against (``kth_best`` itself at
        ε=0, preserving bit-identity)."""
        if self.epsilon == 0.0:
            return kth_best
        return self._relaxation * kth_best

    def guarantee(self, threshold: float | None = None) -> "Guarantee":
        """The guarantee a run stopping under this rule delivers."""
        if self.epsilon == 0.0:
            return EXACT_GUARANTEE if threshold is None else Guarantee(
                "exact", 0.0, threshold
            )
        return Guarantee("approximate", self.epsilon, threshold)

    def __repr__(self) -> str:
        return f"StoppingRule(epsilon={self.epsilon:g})"


@dataclass(frozen=True, slots=True)
class Guarantee:
    """The quality statement a finished (or stopped) run certifies.

    ``kind``
        ``"exact"``: the items are the true top k (up to grade ties).
        ``"approximate"``: for every returned y and unreturned z,
        ``(1 + epsilon) * grade(y) >= grade(z)``.
        ``"anytime"``: the items are the *exact* top r for the r
        answers returned, and ``threshold`` bounds the grade of every
        object not returned.
    ``epsilon``
        The certified relative slack (0 for exact and for anytime —
        an anytime prefix is exact for its own length).
    ``threshold``
        The bound the run stopped against: TA's τ, NRA's best live
        upper, or a cursor's remaining-grade upper bound. ``None``
        when the run drained the population and no bound was in play.
    """

    kind: str
    epsilon: float = 0.0
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "approximate", "anytime"):
            raise ValueError(
                "guarantee kind must be 'exact', 'approximate' or "
                f"'anytime', got {self.kind!r}"
            )

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def as_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "epsilon": self.epsilon}
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        return payload

    def __str__(self) -> str:
        if self.kind == "exact":
            return "exact"
        return f"{self.kind}(ε={self.epsilon:g})"


#: The guarantee every historical run delivered.
EXACT_GUARANTEE = Guarantee("exact")


@dataclass(frozen=True, slots=True)
class GradeBounds:
    """A certified (lower, upper) interval for one object's grade."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(
                f"lower bound {self.lower} exceeds upper {self.upper}"
            )

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, grade: float) -> bool:
        return self.lower <= grade <= self.upper

    def as_tuple(self) -> tuple[float, float]:
        return (self.lower, self.upper)


@dataclass(frozen=True, slots=True)
class CertifiedResult:
    """A (possibly partial) answer plus the certificate it carries.

    Returned by ``ResultCursor.stop()``: ``items`` is the certified
    prefix in rank order, ``bounds`` maps each returned object to its
    interval (exact ``[g, g]`` for an A0-incremental cursor), and
    ``guarantee.threshold`` bounds every object *not* in ``items``.
    """

    items: tuple
    guarantee: Guarantee
    bounds: Mapping[Any, GradeBounds] = field(default_factory=dict)
    details: Mapping[str, Any] = field(default_factory=dict)

    @property
    def answers(self) -> int:
        return len(self.items)

    def as_dict(self) -> dict:
        return {
            "answers": self.answers,
            "items": [
                {"obj": item.obj, "grade": item.grade} for item in self.items
            ],
            "guarantee": self.guarantee.as_dict(),
            "bounds": {
                obj: bounds.as_tuple() for obj, bounds in self.bounds.items()
            },
            "details": dict(self.details),
        }
