"""The middleware cost model of Section 5.

    "The sorted access cost is the total number of objects obtained
    from the database under sorted access. … Similarly, the random
    access cost is the total number of objects obtained from the
    database under random access. Let S be the sorted access cost, and
    let R be the random access cost. We take the middleware cost to be
    c1*S + c2*R, for some positive constants c1 and c2. … We may refer
    to [S + R] as the unweighted middleware cost."

Every access an algorithm performs flows through a :class:`CostTracker`
shared by the sources of one run; the tracker produces immutable
:class:`AccessStats` snapshots that benchmarks and tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["CostModel", "UNWEIGHTED", "AccessStats", "CostTracker"]


@dataclass(frozen=True)
class CostModel:
    """The positive constants (c1, c2) weighting sorted vs random access.

    The defaults give the *unweighted* middleware cost S + R. Section 5
    notes the weighted and unweighted costs are within constant factors
    of each other (inequality (1)), so asymptotic statements transfer.
    """

    sorted_weight: float = 1.0
    random_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.sorted_weight <= 0 or self.random_weight <= 0:
            raise ValueError(
                "cost constants c1, c2 must be positive, got "
                f"c1={self.sorted_weight}, c2={self.random_weight}"
            )

    def cost(self, stats: "AccessStats") -> float:
        """The middleware cost c1*S + c2*R of an access-stats snapshot."""
        return (
            self.sorted_weight * stats.sorted_cost
            + self.random_weight * stats.random_cost
        )

    @property
    def random_access_ratio(self) -> float:
        """c2/c1 — how much dearer a random access is than a sorted one.

        The quantity strategy selection compares against
        :data:`~repro.engine.registry.EXPENSIVE_RANDOM_ACCESS_RATIO`.
        """
        return self.random_weight / self.sorted_weight


#: The unweighted model (c1 = c2 = 1) used throughout the benchmarks.
UNWEIGHTED = CostModel()


@dataclass(frozen=True, slots=True)
class AccessStats:
    """An immutable snapshot of access counts, per list and total."""

    sorted_by_list: tuple[int, ...]
    random_by_list: tuple[int, ...]

    @property
    def num_lists(self) -> int:
        return len(self.sorted_by_list)

    @property
    def sorted_cost(self) -> int:
        """S — the total number of objects obtained under sorted access."""
        return sum(self.sorted_by_list)

    @property
    def random_cost(self) -> int:
        """R — the total number of objects obtained under random access."""
        return sum(self.random_by_list)

    @property
    def sum_cost(self) -> int:
        """S + R — the unweighted middleware cost of Section 5."""
        return self.sorted_cost + self.random_cost

    def middleware_cost(self, model: CostModel = UNWEIGHTED) -> float:
        """c1*S + c2*R under the given cost model."""
        return model.cost(self)

    def max_sorted_depth(self) -> int:
        """The deepest sorted prefix read from any single list.

        This is the per-list depth T whose distribution Theorem 5.3 and
        the Wimmers tail bounds are about.
        """
        return max(self.sorted_by_list, default=0)

    def __add__(self, other: "AccessStats") -> "AccessStats":
        if self.num_lists != other.num_lists:
            raise ValueError(
                f"cannot add stats over {self.num_lists} and "
                f"{other.num_lists} lists"
            )
        return AccessStats(
            tuple(a + b for a, b in zip(self.sorted_by_list, other.sorted_by_list)),
            tuple(a + b for a, b in zip(self.random_by_list, other.random_by_list)),
        )

    def __sub__(self, other: "AccessStats") -> "AccessStats":
        """The accesses made between snapshot ``other`` and this one."""
        if self.num_lists != other.num_lists:
            raise ValueError(
                f"cannot subtract stats over {other.num_lists} lists from "
                f"stats over {self.num_lists} lists"
            )
        return AccessStats(
            tuple(a - b for a, b in zip(self.sorted_by_list, other.sorted_by_list)),
            tuple(a - b for a, b in zip(self.random_by_list, other.random_by_list)),
        )

    def __repr__(self) -> str:
        return (
            f"AccessStats(S={self.sorted_cost}, R={self.random_cost}, "
            f"S+R={self.sum_cost})"
        )


class CostTracker:
    """Mutable per-run accumulator of access counts.

    One tracker is shared by all sources of a middleware session; each
    sorted or random access charges the list it touched. Snapshots are
    cheap and immutable, so algorithms can record phase boundaries
    (e.g. "cost of the sorted access phase alone").
    """

    def __init__(self, num_lists: int) -> None:
        if num_lists < 1:
            raise ValueError(f"need at least one list, got {num_lists}")
        self._sorted = [0] * num_lists
        self._random = [0] * num_lists

    @property
    def num_lists(self) -> int:
        return len(self._sorted)

    def charge_sorted(self, list_index: int, amount: int = 1) -> None:
        """Record ``amount`` objects obtained by sorted access to a list.

        ``amount > 1`` is the bulk form used by the batched access
        protocol: a batch of b accesses costs exactly b unit accesses.
        """
        if amount < 0:
            raise ValueError(f"cannot charge negative amount {amount}")
        self._sorted[list_index] += amount

    def charge_random(self, list_index: int, amount: int = 1) -> None:
        """Record ``amount`` objects obtained by random access to a list."""
        if amount < 0:
            raise ValueError(f"cannot charge negative amount {amount}")
        self._random[list_index] += amount

    def snapshot(self) -> AccessStats:
        """An immutable copy of the current counts."""
        return AccessStats(tuple(self._sorted), tuple(self._random))

    def reset(self) -> None:
        """Zero all counters (start of a fresh measured run)."""
        self._sorted = [0] * len(self._sorted)
        self._random = [0] * len(self._random)

    def __repr__(self) -> str:
        return f"CostTracker({self.snapshot()!r})"


def combine_stats(stats: Sequence[AccessStats]) -> AccessStats:
    """Sum a sequence of snapshots (e.g. the three A0 runs of Remark 6.1)."""
    if not stats:
        raise ValueError("combine_stats needs at least one snapshot")
    total = stats[0]
    for s in stats[1:]:
        total = total + s
    return total
