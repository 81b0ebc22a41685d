"""The subsystem-side ranking cache of materialised rankings.

Every concrete subsystem — relational, text, QBIC, synthetic — now
routes ``evaluate`` through a shared
:class:`~repro.subsystems.base.RankingCache`: the descending sort of a
query's graded set is paid once, later sessions are O(1) mints over
the cached ranking, and the hit/miss counters make the behaviour
observable. Repeated federated queries (``run_many`` batches issued
again and again) must hit across the board. Entries are kept in LRU
order, and a full cache admits a new ranking only when its atom has
been requested at least as often as the LRU victim
(:class:`TestAdmission`).
"""

import gc
import random
import threading
import time
from collections import OrderedDict

import pytest

from repro.access.source import rank_items
from repro.core.query import AtomicQuery
from repro.engine import Engine
from repro.subsystems import (
    DEFAULT_RANKING_CACHE_CAPACITY,
    QbicSubsystem,
    RankingCache,
    RelationalSubsystem,
    SyntheticSubsystem,
    TextSubsystem,
)

OBJS = [f"o{i}" for i in range(24)]


def relational():
    return RelationalSubsystem(
        "rel",
        {o: {"Artist": "Beatles" if i < 3 else f"a{i % 5}"}
         for i, o in enumerate(OBJS)},
    )


def text():
    return TextSubsystem(
        "txt",
        {o: f"doc {i} raw soul energy {'beat' * (i % 4)}"
         for i, o in enumerate(OBJS)},
        attribute="Blurb",
    )


def qbic():
    return QbicSubsystem(
        "img",
        {"Color": {o: (i / 24, 0.2, 0.1) for i, o in enumerate(OBJS)}},
    )


SUBSYSTEM_QUERIES = [
    (relational, AtomicQuery("Artist", "Beatles", "=")),
    (text, AtomicQuery("Blurb", "raw soul", "~")),
    (qbic, AtomicQuery("Color", "red", "~")),
]


class TestPerSubsystemCaching:
    @pytest.mark.parametrize(
        "factory,query", SUBSYSTEM_QUERIES, ids=("relational", "text", "qbic")
    )
    def test_repeat_evaluate_hits_and_preserves_ranking(self, factory, query):
        sub = factory()
        first = sub.evaluate(query)
        assert sub.ranking_cache.misses == 1
        assert sub.ranking_cache.hits == 0
        second = sub.evaluate(query)
        assert sub.ranking_cache.misses == 1
        assert sub.ranking_cache.hits == 1
        # Independent cursors over the same graded set.
        a = [first.next_sorted() for _ in range(5)]
        b = [second.next_sorted() for _ in range(5)]
        assert a == b
        assert first.random_access(OBJS[7]) == second.random_access(OBJS[7])

    def test_distinct_queries_miss_independently(self):
        sub = relational()
        sub.evaluate(AtomicQuery("Artist", "Beatles", "="))
        sub.evaluate(AtomicQuery("Artist", "a1", "="))
        assert sub.ranking_cache.misses == 2
        assert sub.ranking_cache.hits == 0

    def test_capacity_is_configurable_and_lru_evicts(self):
        sub = RelationalSubsystem(
            "rel",
            {o: {"Artist": f"a{i % 5}"} for i, o in enumerate(OBJS)},
            cache_capacity=2,
        )
        assert sub.ranking_cache.capacity == 2
        q = [AtomicQuery("Artist", f"a{i}", "=") for i in range(3)]
        sub.evaluate(q[0])
        sub.evaluate(q[1])
        sub.evaluate(q[0])  # refresh q0: q1 becomes the LRU entry
        sub.evaluate(q[2])  # evicts q1
        assert len(sub.ranking_cache) == 2
        sub.evaluate(q[1])  # re-miss after eviction
        assert sub.ranking_cache.misses == 4
        assert sub.ranking_cache.hits == 1

    def test_default_capacity(self):
        assert relational().ranking_cache.capacity == (
            DEFAULT_RANKING_CACHE_CAPACITY
        )

    def test_unhashable_target_bypasses_cache(self):
        sub = qbic()
        query = AtomicQuery("Color", [0.5, 0.5, 0.5], "~")  # list target
        first = sub.evaluate(query)
        second = sub.evaluate(query)
        assert sub.ranking_cache.hits == 0
        assert sub.ranking_cache.misses == 0
        assert first.next_sorted() == second.next_sorted()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            RankingCache(0)

    def test_synthetic_generated_attribute_survives_eviction(self):
        """Evicting a generated attribute's ranking must not redraw its
        grades — the drawn table lives outside the ranking cache."""
        from repro.workloads.distributions import Uniform

        sub = SyntheticSubsystem(
            "syn",
            generated={"score": Uniform()},
            objects=OBJS,
            cache_capacity=1,
        )
        q_score = AtomicQuery("score", "t1", "~")
        before = [sub.evaluate(q_score).next_sorted() for _ in range(1)]
        sub.evaluate(AtomicQuery("score", "t2", "~"))  # evicts t1
        after = [sub.evaluate(q_score).next_sorted() for _ in range(1)]
        assert before == after


class TestFederatedRunManyCaching:
    def _engine(self):
        engine = Engine()
        engine.register(relational())
        engine.register(text())
        engine.register(qbic())
        return engine

    def test_repeated_run_many_batches_hit_every_subsystem(self):
        engine = self._engine()
        queries = [
            '(Artist = "Beatles") AND (Color ~ "red")',
            '(Blurb ~ "raw soul") OR (Color ~ "red")',
        ]
        engine.run_many(queries, k=5)
        caches = {
            sub.name: sub.ranking_cache for sub in engine.catalog.subsystems
        }
        # First batch: every distinct atom ranked once; the second
        # member's issue of the shared Color atom is an O(1) mint off
        # the first member's entry.
        assert caches["rel"].misses == 1
        assert caches["txt"].misses == 1
        assert caches["img"].misses == 1
        assert (caches["rel"].hits, caches["txt"].hits) == (0, 0)
        assert caches["img"].hits == 1

        first = engine.run_many(queries, k=5)
        # Second identical batch: pure hits, O(1) mints across the board.
        assert caches["rel"].misses == 1
        assert caches["txt"].misses == 1
        assert caches["img"].misses == 1
        assert caches["rel"].hits == 1
        assert caches["txt"].hits == 1
        assert caches["img"].hits == 3

        second = engine.run_many(queries, k=5)
        for a, b in zip(first.answers, second.answers):
            assert a.items == b.items
            assert a.result.stats == b.result.stats


class TestThreadSafety:
    """Concurrent evaluate calls must not corrupt the LRU or counters."""

    def test_concurrent_evaluate_single_flight(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        calls = {"builds": 0}
        lock = threading.Lock()
        cache = RankingCache(capacity=None)
        query = AtomicQuery("Artist", "Beatles", "=")
        grades = {o: i / len(OBJS) for i, o in enumerate(OBJS)}

        def build():
            with lock:
                calls["builds"] += 1
            return grades

        barrier = threading.Barrier(8)

        def evaluate(_):
            barrier.wait()
            return cache.source("rel", query, build)

        with ThreadPoolExecutor(max_workers=8) as pool:
            sources = list(pool.map(evaluate, range(8)))

        # Single-flight: eight racing threads, one build, one miss.
        assert calls["builds"] == 1
        assert cache.misses == 1
        assert cache.hits == 7
        first = [sources[0].next_sorted() for _ in range(3)]
        for src in sources[1:]:
            assert [src.next_sorted() for _ in range(3)] == first

    def test_concurrent_mixed_keys_keep_exact_counters(self):
        from concurrent.futures import ThreadPoolExecutor

        sub = relational()
        queries = [AtomicQuery("Artist", f"a{i % 5}", "=") for i in range(40)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(sub.evaluate, queries))
        cache = sub.ranking_cache
        assert cache.misses == 5  # one per distinct atom
        assert cache.hits == 35
        assert len(cache) == 5


class TestFailedBuilds:
    def test_failed_build_releases_per_key_state_and_retries(self):
        cache = RankingCache()
        query = AtomicQuery("Artist", "x", "=")
        attempts = {"n": 0}

        def flaky_build():
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("subsystem hiccup")
            return {"a": 0.5, "b": 0.25}

        with pytest.raises(RuntimeError):
            cache.source("rel", query, flaky_build)
        # The failed build must not leak its in-flight lock...
        assert cache._building == {}
        # ...and a retry builds cleanly.
        source = cache.source("rel", query, flaky_build)
        assert source.next_sorted().obj == "a"
        assert cache.misses == 1

    def test_clear_drops_in_flight_build_locks(self):
        cache = RankingCache()
        cache.source("rel", AtomicQuery("A", "t", "~"), lambda: {"a": 1.0})
        cache._building["stale"] = object()
        cache.clear()
        assert len(cache) == 0
        assert cache._building == {}


def tracked_growth(action) -> int:
    """How many more objects the cyclic garbage collector tracks after
    ``action()``, each side counted after a full collection. Automatic
    collection is paused in between and restored afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = len(gc.get_objects())
        action()
        gc.collect()
        return len(gc.get_objects()) - before
    finally:
        if was_enabled:
            gc.enable()


class TestCollectorLoad:
    """An entry is two column tuples and a grade map of atoms (str,
    int, float), which the cyclic garbage collector stops tracking;
    a tuple of one item per object would keep N objects in every
    full collection."""

    @pytest.mark.parametrize(
        "population",
        [tuple(range(500)), tuple(f"o{i}" for i in range(500))],
        ids=("int", "str"),
    )
    def test_entry_columns_and_grade_map_are_untracked(self, population):
        rng = random.Random(5)
        grades = [rng.random() for _ in population]
        cache = RankingCache()
        query = AtomicQuery("Color", "red", "~")
        source = cache.source("img", query, lambda: grades, population)
        assert source.ranking() == rank_items(dict(zip(population, grades)))
        gc.collect()
        (objects, ranked), grade_map = cache._entries[
            (query.attribute, query.op, query.target)
        ]
        assert len(objects) == len(ranked) == len(grade_map) == len(population)
        assert not gc.is_tracked(objects)
        assert not gc.is_tracked(ranked)
        assert not gc.is_tracked(grade_map)

    def test_a_miss_adds_almost_no_tracked_objects(self):
        population = tuple(range(3000))
        rng = random.Random(6)
        grades = [rng.random() for _ in population]
        cache = RankingCache()
        query = AtomicQuery("Color", "red", "~")

        def miss():
            cache.source("img", query, lambda: grades, population)

        growth = tracked_growth(miss)
        assert cache.misses == 1
        assert growth < 50


def request(cache, key, build=lambda: {"a": 1.0, "b": 0.5}):
    """One request for the atom ``A = key`` through ``cache``."""
    return cache.source("t", AtomicQuery("A", key, "="), build)


def resident(cache, key) -> bool:
    return ("A", "=", key) in cache


def lru_hits(keys, capacity) -> int:
    """Hits of a plain LRU of ``capacity`` entries over ``keys``."""
    lru: OrderedDict = OrderedDict()
    hits = 0
    for key in keys:
        if key in lru:
            hits += 1
            lru.move_to_end(key)
        else:
            lru[key] = None
            if len(lru) > capacity:
                lru.popitem(last=False)
    return hits


#: Requests counted between two halvings of every count, per entry of
#: capacity.
WINDOW = 10


class TestAdmission:
    @pytest.mark.parametrize("capacity", [1, 4, 32])
    def test_skewed_replay_beats_lru(self, capacity):
        """A seeded Zipf stream over twice as many keys as entries: the
        gate keeps the popular keys that LRU keeps evicting."""
        rng = random.Random(capacity)
        pool = list(range(2 * capacity))
        weights = [1 / (rank + 1) ** 0.8 for rank in range(len(pool))]
        keys = rng.choices(pool, weights, k=200 * capacity)
        cache = RankingCache(capacity)
        for key in keys:
            request(cache, key)
        assert cache.hits + cache.misses == len(keys)
        assert cache.hits > lru_hits(keys, capacity)
        assert cache.rejected > 0

    @pytest.mark.parametrize("capacity", [1, 4, 32])
    def test_a_new_hot_set_is_resident_within_three_windows(self, capacity):
        """``capacity`` hot keys take most of the traffic beside cold
        one-off keys; once a new hot set replaces them, aging lets every
        new hot key in within three count windows."""
        rng = random.Random(capacity)
        cold = iter(range(10**6))
        cache = RankingCache(capacity)

        def draw(hot):
            if rng.random() < 0.8:
                return rng.choice(hot)
            return ("cold", next(cold))

        old_hot = [("old", i) for i in range(capacity)]
        for _ in range(30 * WINDOW * capacity):
            request(cache, draw(old_hot))
        assert all(resident(cache, key) for key in old_hot)
        new_hot = [("new", i) for i in range(capacity)]
        for _ in range(3 * WINDOW * capacity):
            request(cache, draw(new_hot))
            if all(resident(cache, key) for key in new_hot):
                break
        assert all(resident(cache, key) for key in new_hot)

    @pytest.mark.parametrize("capacity", [1, 8])
    def test_count_table_stays_bounded(self, capacity):
        """100 x capacity distinct keys, with a few repeated ones mixed
        in, never hold more than 2 x WINDOW x capacity counts: aging
        drops every key counted once since the last halving."""
        cache = RankingCache(capacity)
        largest = 0
        for i in range(100 * capacity):
            request(cache, ("once", i))
            request(cache, ("often", i % 3))
            largest = max(largest, len(cache._counts))
        assert largest <= 2 * WINDOW * capacity
        assert len(cache) == capacity

    def test_declined_build_serves_a_correct_ranking_and_is_not_kept(self):
        cache = RankingCache(1)
        request(cache, "hot")
        request(cache, "hot")
        source = request(cache, "cold", lambda: {"x": 0.25, "y": 0.75})
        assert [(it.obj, it.grade) for it in source.ranking()] == [
            ("y", 0.75), ("x", 0.25),
        ]
        assert source.random_access("x") == 0.25
        assert (cache.hits, cache.misses, cache.rejected) == (1, 2, 1)
        assert not resident(cache, "cold")
        assert resident(cache, "hot")
        assert "rejected=1" in repr(cache)

    def test_ties_admit_and_evict_the_lru_entry(self):
        cache = RankingCache(2)
        for key in ("a", "b", "a", "b", "c", "c"):
            request(cache, key)
        # c reached b's count (2) on its second request and evicted a,
        # the LRU entry, whose count is also 2.
        assert cache.rejected == 1
        assert [resident(cache, key) for key in "abc"] == [False, True, True]

    def test_declined_key_is_never_built_twice_at_once(self):
        """Two threads race one key the gate declines: one builds it,
        and the other, waiting on that build, is served the declined
        entry instead of building it again."""
        cache = RankingCache(1)
        for _ in range(3):
            request(cache, "hot")
        builds = []

        def build():
            builds.append(threading.current_thread().name)
            # Hold the build until the other request has been counted:
            # from then on it waits on this build.
            deadline = time.monotonic() + 10
            while cache._counts.get(("A", "=", "cold"), 0) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            return {"x": 0.25, "y": 0.75}

        barrier = threading.Barrier(2, timeout=10)
        rankings = []

        def race():
            barrier.wait()
            rankings.append(
                [(it.obj, it.grade) for it in request(cache, "cold", build).ranking()]
            )

        threads = [threading.Thread(target=race) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(builds) == 1
        assert rankings == [[("y", 0.75), ("x", 0.25)]] * 2
        assert (cache.hits, cache.misses, cache.rejected) == (3, 2, 1)
        assert resident(cache, "hot") and not resident(cache, "cold")
        assert cache._building == {}

    def test_unbounded_cache_keeps_no_counts(self):
        cache = RankingCache(capacity=None)
        for key in ("a", "b", "a"):
            request(cache, key)
        assert cache._counts is None
        cache.clear()
        assert cache._counts is None
        assert (cache.hits, cache.misses, cache.rejected) == (1, 2, 0)

    def test_clear_drops_entries_and_counts_but_keeps_counters(self):
        cache = RankingCache(1)
        for key in ("hot", "hot", "cold"):
            request(cache, key)
        cache.clear()
        assert len(cache) == 0
        assert cache._counts == {}
        assert (cache.hits, cache.misses, cache.rejected) == (1, 2, 1)
        # Counts start over: kept counts (hot 3, cold 2) would decline
        # cold here; fresh ones tie at 1, and ties admit.
        request(cache, "hot")
        request(cache, "cold")
        assert resident(cache, "cold") and not resident(cache, "hot")
        assert cache.rejected == 1
