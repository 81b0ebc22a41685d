"""Internal vs external conjunction (Section 8).

    "Perhaps the most natural way to account for this issue is to
    define two flavors of conjunction, which we could call internal
    conjunction and external conjunction. … The user could request an
    internal conjunction for the sake of efficiency. If the user
    requests an external conjunction, then the external conjunction,
    which might involve many calls to the subsystem, must be used."

:func:`compare_conjunction_modes` runs the same conjunction both ways
through an :class:`~repro.engine.engine.Engine` and reports where the
answers differ — the
mismatch Section 8 warns about when the subsystem's internal semantics
(e.g. QBIC's score averaging) is not Garlic's min rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.middleware.executor import QueryAnswer

__all__ = ["ModeComparison", "compare_conjunction_modes"]


@dataclass(frozen=True)
class ModeComparison:
    """Side-by-side external/internal answers for one conjunction."""

    external: QueryAnswer
    internal: QueryAnswer

    @property
    def same_objects(self) -> bool:
        """Do both modes return the same answer *set* (order aside)?"""
        return set(self.external.result.objects()) == set(
            self.internal.result.objects()
        )

    @property
    def external_cost(self) -> int:
        return self.external.result.stats.sum_cost

    @property
    def internal_cost(self) -> int:
        return self.internal.result.stats.sum_cost

    def summary(self) -> str:
        lines = [
            "external (Garlic semantics, possibly many subsystem calls):",
            f"  answers: {list(self.external.items)}",
            f"  cost:    {self.external_cost} accesses",
            "internal (subsystem's own semantics, one pushed-down call):",
            f"  answers: {list(self.internal.items)}",
            f"  cost:    {self.internal_cost} accesses",
            (
                "answer sets agree"
                if self.same_objects
                else "answer sets DIFFER — the subsystem's conjunction "
                "semantics is not Garlic's (Section 8's caveat)"
            ),
        ]
        return "\n".join(lines)


def compare_conjunction_modes(
    engine, query, k: int = 10
) -> ModeComparison:
    """Evaluate ``query`` under both conjunction flavours.

    ``engine`` is a catalog-backed
    :class:`~repro.engine.engine.Engine`; ``query`` is query-language
    text or a parsed AND-of-atoms whose atoms all live in a subsystem
    that supports internal conjunction (otherwise the internal run
    raises).
    """
    external = engine.query(query).conjunction("external").top(k)
    internal = engine.query(query).conjunction("internal").top(k)
    return ModeComparison(external=external, internal=internal)
