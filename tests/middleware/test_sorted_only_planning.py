"""Sorted-only federations: planning and failure modes.

Satellite coverage for the capability model of Section 4, footnote 5:
a subsystem that cannot answer "the grade of any given object" — no
random access — must steer the planner to the NRA-style sorted-only
strategies, while anything that *does* attempt a random access against
such a subsystem fails with a clean
:class:`~repro.exceptions.SubsystemCapabilityError` rather than a
silent miscount.
"""

import pytest

from repro.core.query import AtomicQuery, And
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.exceptions import SubsystemCapabilityError
from repro.middleware.plan import AlgorithmPlan
from repro.subsystems import StreamOnlySubsystem, SyntheticSubsystem


def _tables(attrs, num_objects=30, seed=5):
    import random

    rng = random.Random(seed)
    return {
        attr: {obj: rng.random() for obj in range(1, num_objects + 1)}
        for attr in attrs
    }


@pytest.fixture
def sorted_only_engine():
    """Two subsystems, one of them stream-only (no random access)."""
    engine = Engine()
    engine.register(SyntheticSubsystem("full", tables=_tables(["a"])))
    engine.register(
        StreamOnlySubsystem(
            SyntheticSubsystem("streaming", tables=_tables(["b"], seed=9))
        )
    )
    return engine


QUERY = And([AtomicQuery("a", None, "~"), AtomicQuery("b", None, "~")])


class TestPlannerRouting:
    def test_monotone_query_routes_to_nra(self, sorted_only_engine):
        plan = sorted_only_engine.plan(QUERY)
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name == "NRA"
        assert "random access" in plan.reason

    def test_executed_answer_matches_full_capability_answer(
        self, sorted_only_engine
    ):
        """NRA over the degraded federation returns the same top-k as
        A0 over the same data with full capabilities."""
        full_engine = Engine()
        full_engine.register(SyntheticSubsystem("full", tables=_tables(["a"])))
        full_engine.register(
            SyntheticSubsystem("streaming", tables=_tables(["b"], seed=9))
        )
        degraded = sorted_only_engine.query(QUERY).top(5)
        reference = full_engine.query(QUERY).top(5)
        assert degraded.items == reference.items
        assert degraded.result.stats.random_cost == 0

    def test_all_streaming_federation_also_plans_sorted_only(self):
        engine = Engine()
        engine.register(
            StreamOnlySubsystem(
                SyntheticSubsystem("s1", tables=_tables(["a"]))
            )
        )
        plan = engine.plan(AtomicQuery("a", None, "~"))
        assert isinstance(plan, AlgorithmPlan)
        assert plan.algorithm.name in ("NRA", "B0", "naive")


class TestCleanFailures:
    def test_forcing_a_random_access_strategy_is_rejected_at_selection(
        self, sorted_only_engine
    ):
        with pytest.raises(ValueError, match="capable strategies"):
            sorted_only_engine.query(QUERY).strategy("fagin").top(5)

    def test_random_access_against_stream_only_source_raises(self):
        sub = StreamOnlySubsystem(
            SyntheticSubsystem("streaming", tables=_tables(["b"]))
        )
        source = sub.evaluate(AtomicQuery("b", None, "~"))
        with pytest.raises(SubsystemCapabilityError, match="random access"):
            source.random_access(1)

    def test_bulk_random_access_raises_the_same_error(self):
        sub = StreamOnlySubsystem(
            SyntheticSubsystem("streaming", tables=_tables(["b"]))
        )
        source = sub.evaluate(AtomicQuery("b", None, "~"))
        with pytest.raises(SubsystemCapabilityError, match="random access"):
            source.random_access_many([1, 2, 3])

    def test_running_a0_by_hand_over_stream_only_sources_raises(self):
        """Bypassing the planner does not bypass the capability check:
        the source itself refuses, loudly."""
        from repro.access import MiddlewareSession
        from repro.algorithms.fa import FaginA0

        sub = StreamOnlySubsystem(
            SyntheticSubsystem(
                "streaming", tables=_tables(["a", "b"], num_objects=20)
            )
        )
        session = MiddlewareSession.over_sources(
            [
                sub.evaluate(AtomicQuery("a", None, "~")),
                sub.evaluate(AtomicQuery("b", None, "~")),
            ]
        )
        with pytest.raises(SubsystemCapabilityError):
            FaginA0().top_k(session, MINIMUM, 5)

    def test_internal_conjunction_unsupported_raises_capability_error(self):
        sub = SyntheticSubsystem("syn", tables=_tables(["a", "b"]))
        with pytest.raises(SubsystemCapabilityError, match="internal"):
            sub.evaluate_conjunction(
                [AtomicQuery("a", None, "~"), AtomicQuery("b", None, "~")]
            )
