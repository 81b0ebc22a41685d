"""A subsystem's sources under the batch protocol.

``Subsystem.evaluate`` is the middleware's one way to an atom's
source. Read through its native batch methods, a source must deliver
the *same* answers with the *same* per-list access accounting as the
same source read one object at a time behind ``UnbatchedSource``.
"""

from repro.access import MiddlewareSession, UnbatchedSource
from repro.core.query import AtomicQuery
from repro.core.tnorms import MINIMUM
from repro.subsystems import SyntheticSubsystem


def synthetic(num_objects=40, attrs=("a", "b"), seed=7):
    import random

    rng = random.Random(seed)
    tables = {
        attr: {obj: rng.random() for obj in range(1, num_objects + 1)}
        for attr in attrs
    }
    return SyntheticSubsystem("syn", tables=tables)


class TestFederatedAnswersThroughBatchedSources:
    def test_topk_parity_unit_vs_batched_sources(self):
        """The acceptance contract: identical answers and per-list
        counts whether the m sources from evaluate are read one object
        at a time or through their native batch methods."""
        from repro.algorithms.fa import FaginA0

        sub = synthetic(num_objects=60, attrs=("a", "b", "c"), seed=11)
        atoms = [AtomicQuery(attr, None, "~") for attr in ("a", "b", "c")]
        unit = MiddlewareSession.over_sources(
            [UnbatchedSource(sub.evaluate(atom)) for atom in atoms]
        )
        batched = MiddlewareSession.over_sources(
            [sub.evaluate(atom) for atom in atoms]
        )
        unit_result = FaginA0().top_k(unit, MINIMUM, 8)
        batched_result = FaginA0().top_k(batched, MINIMUM, 8)
        assert batched_result.items == unit_result.items
        assert batched_result.stats == unit_result.stats
