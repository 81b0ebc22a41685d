"""The adaptive planning layer: shapes and the chooser.

Covers the pieces of :mod:`repro.engine.adaptive` in isolation (shape
normalization modulo constants, deterministic explore/exploit
decisions, the bounded ledger) and their engine wiring (the
``adaptive(False)`` opt-out, explain() reporting, the metrics block,
and the determinism contract: cursors and batches never advance the
chooser).
"""

import pytest

from repro.core.means import ARITHMETIC_MEAN
from repro.core.tnorms import MINIMUM
from repro.engine import Engine
from repro.engine.adaptive import (
    PLAN_CACHE_CAPACITY,
    AdaptiveChooser,
    AdaptiveOptions,
    QueryShape,
    k_band,
    shape_of_aggregation,
)
from repro.engine.context import ExecutionContext
from repro.subsystems import RelationalSubsystem, SyntheticSubsystem
from repro.workloads.skeletons import independent_database

N = 200


def catalog_engine(context: ExecutionContext | None = None) -> Engine:
    objs = [f"o{i}" for i in range(60)]
    engine = Engine(context)
    engine.register(
        RelationalSubsystem(
            "rel",
            {o: {"Genre": "jazz" if i % 3 else "rock"} for i, o in enumerate(objs)},
        )
    )
    engine.register(
        SyntheticSubsystem(
            "syn",
            tables={
                "tempo": {o: ((i * 37) % 60) / 60 for i, o in enumerate(objs)},
                "mood": {o: ((i * 11) % 60) / 60 for i, o in enumerate(objs)},
            },
        )
    )
    return engine


def shape(structure=("agg", "min", 2), band=4, kind="source", **overrides):
    """A hand-built QueryShape for driving the chooser directly."""
    fields = dict(
        kind=kind,
        structure=structure,
        aggregation="min",
        band=band,
        num_atoms=2,
        conjunction="external",
        random_access=True,
        fingerprint=("test", 0),
    )
    fields.update(overrides)
    return QueryShape(**fields)


class TestAdaptiveOptions:
    def test_defaults_validate(self):
        AdaptiveOptions()

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("explore_after", 0),
            ("explore_every", 0),
            ("min_trials", 0),
        ],
    )
    def test_rejects_bad_values(self, field, bad):
        with pytest.raises(ValueError):
            AdaptiveOptions(**{field: bad})


class TestShapes:
    def test_k_band_powers_of_two(self):
        assert k_band(1) == 1
        assert k_band(8) == 4
        assert k_band(10) == k_band(15) == 4
        assert k_band(16) == 5

    def engine_shapes(self, texts, k=10):
        engine = catalog_engine()
        layer = engine._adaptive
        shapes = []
        for text in texts:
            rewritten = engine._planner(None).rewrite(engine._parse(text))
            from repro.engine.adaptive import shape_of_query

            shapes.append(
                shape_of_query(
                    rewritten,
                    engine.catalog,
                    k,
                    "external",
                    True,
                    layer.catalog_fingerprint(engine.catalog),
                )
            )
        return shapes

    def test_constants_do_not_split_shapes(self):
        a, b = self.engine_shapes(
            [
                '(Genre = "jazz") AND (tempo ~ "fast")',
                '(Genre = "jazz") AND (tempo ~ "slow")',
            ]
        )
        assert a == b

    def test_crisp_selectivity_bands_split_shapes(self):
        """Crisp constants whose selectivity lands in different -log2
        bands get distinct shapes: the band is what the planner's
        filtered-conjunct decision keys on."""
        a, b = self.engine_shapes(
            [
                '(Genre = "jazz") AND (tempo ~ "fast")',  # sel 2/3
                '(Genre = "rock") AND (tempo ~ "fast")',  # sel 1/3
            ]
        )
        assert a != b

    def test_structure_splits_shapes(self):
        a, b = self.engine_shapes(
            [
                '(tempo ~ "fast") AND (mood ~ "dark")',
                '(tempo ~ "fast") OR (mood ~ "dark")',
            ]
        )
        assert a != b

    def test_k_band_splits_shapes(self):
        engine = catalog_engine()
        (small,) = self.engine_shapes(['tempo ~ "fast"'], k=10)
        (large,) = self.engine_shapes(['tempo ~ "fast"'], k=20)
        assert small != large
        assert small.band == 4 and large.band == 5

    def test_rewrite_dedup_cannot_alias(self):
        """`A AND A` rewrites to fewer atoms than `A AND B`; shapes are
        taken post-rewrite, so the two cannot share a cache key."""
        a, b = self.engine_shapes(
            [
                '(tempo ~ "fast") AND (tempo ~ "fast")',
                '(tempo ~ "fast") AND (mood ~ "dark")',
            ]
        )
        assert a != b

    def test_source_shape_label(self):
        s = shape_of_aggregation(MINIMUM, 3, 10, True, ("source", 1))
        assert s.kind == "source"
        assert "k∈[8,16)" in s.label
        assert "m=3" in s.label


class TestChooser:
    OPTS = AdaptiveOptions(explore_after=3, explore_every=4, min_trials=2)
    CANDIDATES = [("nra", 50.0), ("fagin", 100.0), ("naive", 500.0)]

    def test_warmup_is_static(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        for _ in range(3):
            decision = chooser.decide(s, "fagin", self.CANDIDATES)
            assert decision.mode == "static"
            assert decision.strategy == "fagin"

    def test_explore_slot_is_counter_deterministic(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        for _ in range(2):
            chooser.record(s, "fagin", 120.0)
        modes = [
            chooser.decide(s, "fagin", self.CANDIDATES).mode
            for _ in range(8)
        ]
        # Warmup 3 static, then explore at count 3 and count 7.
        assert modes == [
            "static", "static", "static", "explore",
            "static", "static", "static", "explore",
        ]
        assert chooser.explorations == 2

    def test_explore_prefers_least_sampled_cheapest(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        chooser.record(s, "fagin", 120.0)
        for _ in range(3):
            chooser.decide(s, "fagin", self.CANDIDATES)
        decision = chooser.decide(s, "fagin", self.CANDIDATES)
        assert decision.mode == "explore"
        assert decision.strategy == "nra"  # cheapest estimate, 0 samples

    def test_explore_cost_cap_prunes_expensive_trials(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        chooser.record(s, "fagin", 100.0)
        chooser.record(s, "nra", 90.0)
        chooser.record(s, "nra", 90.0)  # nra fully sampled
        for _ in range(3):
            chooser.decide(s, "fagin", self.CANDIDATES)
        # Only 'naive' is under-sampled, but 500 > 3.0 * 90 — pruned.
        decision = chooser.decide(s, "fagin", self.CANDIDATES)
        assert decision.mode == "static"
        assert chooser.explorations == 0

    def test_no_anchor_means_no_exploration(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        for _ in range(6):
            decision = chooser.decide(s, "fagin", self.CANDIDATES)
            assert decision.mode == "static"

    def test_measured_winner_overrides_incumbent(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        for _ in range(2):
            chooser.record(s, "fagin", 200.0)
            chooser.record(s, "nra", 60.0)
        decision = chooser.decide(s, "fagin", self.CANDIDATES)
        assert decision.mode == "exploit"
        assert decision.strategy == "nra"
        assert chooser.overrides == 1

    def test_override_margin_blocks_marginal_wins(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        for _ in range(2):
            chooser.record(s, "fagin", 100.0)
            chooser.record(s, "nra", 95.0)  # better, but not 10% better
        decision = chooser.decide(s, "fagin", self.CANDIDATES)
        assert decision.mode == "static"
        assert decision.strategy == "fagin"

    def test_histories_are_per_shape(self):
        chooser = AdaptiveChooser(self.OPTS)
        a, b = shape(band=4), shape(band=5)
        for _ in range(2):
            chooser.record(a, "fagin", 200.0)
            chooser.record(a, "nra", 60.0)
        # Shape b has no evidence: its decision stays static.
        assert chooser.decide(b, "fagin", self.CANDIDATES).mode == "static"
        assert chooser.decide(a, "fagin", self.CANDIDATES).mode == "exploit"

    def test_evidence_rows_sorted_by_cost(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        chooser.record(s, "fagin", 200.0)
        chooser.record(s, "nra", 60.0)
        rows = chooser.evidence(s)
        assert [name for name, _, _ in rows] == ["nra", "fagin"]
        assert rows[0][2] == 1  # samples

    def test_history_is_an_ewma_with_step_0_3(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        chooser.record(s, "fagin", 100.0)
        chooser.record(s, "fagin", 200.0)
        ((name, cost, samples),) = chooser.evidence(s)
        assert (name, samples) == ("fagin", 2)
        assert cost == pytest.approx(130.0)

    def test_ledger_is_bounded_and_evicted_shapes_warm_up_again(self):
        """Every ε (and every WEIGHTED(...) weight vector) is its own
        shape, so wire traffic can mint shapes without end; the ledger
        keeps the plan cache's capacity of them, least recent out."""
        chooser = AdaptiveChooser(self.OPTS)
        first = shape()
        chooser.record(first, "fagin", 120.0)
        for _ in range(3):
            chooser.decide(first, "fagin", self.CANDIDATES)
        # The next decision on `first` would be its first trial slot.
        for i in range(PLAN_CACHE_CAPACITY + 50):
            other = shape(epsilon=(i + 1) / 10_000)
            chooser.record(other, "fagin", 100.0)
            chooser.decide(other, "fagin", self.CANDIDATES)
        assert chooser.metrics()["shapes"] == PLAN_CACHE_CAPACITY
        assert chooser.evidence(first) == []
        # Evicted with its history and decision count: it warms up anew.
        chooser.record(first, "fagin", 120.0)
        modes = [
            chooser.decide(first, "fagin", self.CANDIDATES).mode
            for _ in range(4)
        ]
        assert modes == ["static", "static", "static", "explore"]

    def test_metrics_counts(self):
        chooser = AdaptiveChooser(self.OPTS)
        s = shape()
        chooser.decide(s, "fagin", self.CANDIDATES)
        metrics = chooser.metrics()
        assert metrics == {
            "decisions": 1, "explorations": 0, "overrides": 0, "shapes": 1,
        }


class TestEngineWiring:
    def test_opt_out_per_query(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        engine.query(MINIMUM).adaptive(False).top(5)
        planner = engine.metrics_snapshot()["planner"]
        assert planner["enabled"] is True
        assert planner["chooser"]["decisions"] == 0

    def test_opt_out_engine_wide(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db, ExecutionContext(adaptive=False))
        engine.query(MINIMUM).top(5)
        assert engine.metrics_snapshot()["planner"] == {"enabled": False}

    def test_builder_adaptive_rejects_non_bool(self):
        engine = Engine.over(independent_database(2, 50, seed=1))
        with pytest.raises(TypeError):
            engine.query(MINIMUM).adaptive("yes")

    def test_source_queries_feed_chooser(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        for _ in range(3):
            engine.query(MINIMUM).top(5)
        planner = engine.metrics_snapshot()["planner"]
        assert planner["chooser"]["decisions"] == 3
        assert planner["chooser"]["shapes"] == 1

    def test_identical_queries_identical_stats_during_warmup(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        results = [engine.query(MINIMUM).top(5) for _ in range(5)]
        assert all(r.stats == results[0].stats for r in results)
        assert all(r.items == results[0].items for r in results)

    def test_cursors_do_not_advance_chooser(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        cursor = engine.query(MINIMUM).cursor()
        cursor.next_k(5)
        cursor.next_k(5)
        assert (
            engine.metrics_snapshot()["planner"]["chooser"]["decisions"] == 0
        )

    def test_run_many_does_not_advance_chooser(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        engine.run_many([MINIMUM, ARITHMETIC_MEAN, MINIMUM], k=5)
        assert (
            engine.metrics_snapshot()["planner"]["chooser"]["decisions"] == 0
        )

    def test_run_many_parity_with_adaptive_on(self):
        """The serial/parallel count-parity gate must hold with the
        adaptive layer enabled (batches bypass the chooser)."""
        db = independent_database(3, N, seed=11)
        serial = Engine.over(db).run_many([MINIMUM, ARITHMETIC_MEAN] * 3, k=5)
        parallel = Engine.over(db).run_many(
            [MINIMUM, ARITHMETIC_MEAN] * 3, k=5, parallel=4
        )
        assert [r.items for r in serial] == [r.items for r in parallel]
        assert serial.total_sorted == parallel.total_sorted
        assert serial.total_random == parallel.total_random

    def test_forced_strategy_string_still_records_history(self):
        db = independent_database(3, N, seed=11)
        engine = Engine.over(db)
        engine.query(MINIMUM).strategy("nra").top(5)
        planner = engine.metrics_snapshot()["planner"]
        # Forced-by-name runs don't ask the chooser but do feed it.
        assert planner["chooser"]["decisions"] == 0
        s = shape_of_aggregation(
            MINIMUM, 3, 5, True,
            engine._adaptive.source_fingerprint(db),
        )
        # The history ledger has an entry for the forced strategy.
        assert engine._adaptive.chooser.evidence(s) != []

    def test_explain_reports_adaptive_block(self):
        engine = catalog_engine()
        text = '(tempo ~ "fast") AND (mood ~ "dark")'
        engine.query(text).top(10)
        engine.query(text).top(10)
        report = engine.query(text).explain()
        assert "--- adaptive planning ---" in report
        assert "plan cache: HIT (cached plan rebound)" in report
        assert "estimate:" in report
        assert "measured history:" in report

    def test_explain_on_opted_out_query_is_static(self):
        engine = catalog_engine()
        report = (
            engine.query('tempo ~ "fast"').adaptive(False).explain()
        )
        assert "--- adaptive planning ---" not in report

    def test_adaptive_answers_match_static_answers(self):
        """Cache hits and rebinds never change results: an adaptive
        engine and a static engine agree item-for-item."""
        adaptive = catalog_engine()
        static = catalog_engine(ExecutionContext(adaptive=False))
        queries = [
            '(Genre = "jazz") AND (tempo ~ "fast")',
            '(Genre = "rock") AND (tempo ~ "slow")',
            '(tempo ~ "fast") OR (mood ~ "dark")',
            '(Genre = "jazz") AND (tempo ~ "fast")',
        ]
        for text in queries:
            a = adaptive.query(text).top(10)
            b = static.query(text).top(10)
            assert a.items == b.items
            assert a.result.stats == b.result.stats
