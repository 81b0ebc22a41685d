"""Subsystem abstraction: what Garlic sits on top of (Sections 1-2, 8).

    "Garlic … is designed to be capable of integrating data that
    resides in different database systems as well as a variety of
    non-database data servers. A single Garlic query can access data in
    a number of different subsystems."

A :class:`Subsystem` owns some attributes of the common object
population and evaluates atomic queries over them, returning a
:class:`~repro.access.source.SortedRandomSource` — the only interface
the middleware may use (Section 4's sorted/random access model).
Capability flags record what each subsystem can do:

* ``supports_random_access`` — Section 4 footnote 5 assumes QBIC can
  ("which, in fact, it can"); a subsystem without it restricts the
  planner to sorted-only strategies.
* ``supports_internal_conjunction`` — Section 8: a subsystem may be
  able to evaluate a conjunction itself, under *its own* semantics,
  which may differ from Garlic's.

:meth:`Subsystem.evaluate` is the middleware's only way to an atom's
source, and every consumer reads it through the batch protocol
(``sorted_access_batch`` / ``random_access_many``). A source that
cannot ship batches inherits the protocol's unit loops, at identical
Section 5 counts; one that pages over a wire pages inside itself,
the one place that knows its page size.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Callable, Mapping, Sequence

from repro.access.source import (
    MaterializedSource,
    SortedRandomSource,
    graded_population,
    rank_population,
)
from repro.access.types import ObjectId, RankedColumns
from repro.core.query import AtomicQuery
from repro.exceptions import SubsystemCapabilityError

__all__ = [
    "DEFAULT_RANKING_CACHE_CAPACITY",
    "RankingCache",
    "Subsystem",
    "StreamOnlySubsystem",
]

#: Distinct atomic queries whose materialised rankings a subsystem
#: retains by default. Federated workloads re-issue a handful of atoms
#: over and over (run_many batches, repeated dashboards), so a small
#: cache makes every repeat an O(1) session mint. Atom pools larger
#: than this are what the admission gate of :class:`RankingCache` is
#: for; a larger default would grow every subsystem's cache to fit one
#: workload's pools.
DEFAULT_RANKING_CACHE_CAPACITY = 32

#: The count window, in multiples of the capacity: once this many
#: requests have been counted since the last aging, every request
#: count is halved (TinyLFU's reset).
_AGING_WINDOW = 10


class RankingCache:
    """Materialised rankings keyed by the atom's cache key: LRU order,
    admission by request frequency.

    A subsystem's graded set for a fixed atomic query never changes, so
    the descending sort (and the grade map for random access) can be
    paid once and shared by every later session —
    :meth:`~repro.access.source.MaterializedSource.trusted` mints an
    O(1) cursor over the cached entry. An entry is the ranking as two
    parallel tuples, objects and grades in rank order
    (:data:`~repro.access.types.RankedColumns`), beside its grade map:
    tuples and dicts of atoms that the cyclic garbage collector stops
    tracking, where a tuple of one item per object would keep N
    objects in every collection's traversal. Eviction is safe by the
    same determinism: a re-miss only re-pays the sort, it cannot change
    the graded set. ``hits`` / ``misses`` / ``rejected`` are surfaced
    for tests and capacity tuning; ``capacity=None`` means unbounded.

    **Admission** (TinyLFU's gate, Einziger, Friedman and Manes, ACM
    TOS 2017): every request for a hashable key is counted, hit or
    miss. Hits refresh the LRU order, and the LRU entry is the victim,
    but a full cache keeps a newly built ranking only when its atom
    has been requested at least as often as the victim; otherwise the
    requester is served from the built entry, which is not kept, and
    ``rejected`` goes up. Ties admit, so a cold cache and equally
    requested atoms behave exactly as plain LRU. Each time the
    requests since the last aging reach ``10 * capacity``, every count
    is halved and the keys that reach 0 are dropped, so the count
    table never holds more than ``20 * capacity`` keys and follows a
    shift in popularity within a few windows. The gate reads counts,
    never clocks, so the hit and miss counts of a seeded workload
    repeat exactly. An unbounded cache admits everything and keeps no
    counts.

    The cache is **thread-safe with single-flight misses**: the LRU
    dict, the request counts and the counters mutate only under an
    internal lock, and a miss takes a per-key build lock so that
    concurrent requests for the *same* atom run ``build_grades`` (and
    the descending sort) exactly once — the losers of the race block
    briefly, then mint off the winner's entry, kept or declined.
    Requests for *different* atoms build in parallel; hits never block
    on a build.
    """

    def __init__(
        self, capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"ranking cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self._entries: OrderedDict[
            object, tuple[RankedColumns, Mapping[ObjectId, float]]
        ] = OrderedDict()
        self._lock = threading.Lock()
        #: In-flight builds: key -> [the lock its first requester holds,
        #: the built entry if the gate declined it, for the waiters].
        self._building: dict[object, list] = {}
        #: Request counts (None when unbounded: every entry is kept) and
        #: the requests counted since the counts were last halved.
        self._counts: dict[object, int] | None = (
            None if capacity is None else {}
        )
        self._window = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def _hit_locked(self, key: object):
        """Under ``self._lock``: the entry for ``key``, LRU-refreshed."""
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def _count_locked(self, key: object) -> None:
        """Under ``self._lock``: one more request for ``key`` (bounded
        caches only); halve every count once the window is full."""
        counts, capacity = self._counts, self.capacity
        if counts is None or capacity is None:
            return
        counts[key] = counts.get(key, 0) + 1
        self._window += 1
        if self._window >= _AGING_WINDOW * capacity:
            self._window = 0
            self._counts = {k: c >> 1 for k, c in counts.items() if c > 1}

    def _admit_locked(self, key: object, entry) -> bool:
        """Under ``self._lock``: keep a built entry, evicting the LRU
        one, unless the cache is full and ``key`` has been requested
        less often than that victim. True if the entry was kept."""
        entries, counts, capacity = self._entries, self._counts, self.capacity
        if counts is not None and capacity is not None and len(entries) >= capacity:
            victim = next(iter(entries))
            if counts.get(key, 0) < counts.get(victim, 0):
                self.rejected += 1
                return False
            del entries[victim]
        entries[key] = entry
        return True

    def source(
        self,
        name: str,
        query: AtomicQuery,
        build_grades: Callable[[], Mapping[ObjectId, float] | Sequence[float]],
        population: Sequence[ObjectId] | None = None,
    ) -> SortedRandomSource:
        """A fresh source for ``query``, ranked at most once per entry.

        On a hit the cached ranking backs an O(1)
        :meth:`~repro.access.source.MaterializedSource.trusted` mint; on
        a miss ``build_grades`` is invoked, its result ranked (and
        validated) once by
        :func:`~repro.access.source.rank_population`, and the entry
        stored. ``build_grades`` returns the atom's graded set: when
        ``population`` (the subsystem's objects in
        :func:`~repro.access.source.tie_break_order`) is given, as a
        grade vector aligned with it — the bulk path every concrete
        subsystem takes — otherwise as a mapping from object to grade.
        A full cache keeps the entry only if the admission gate lets it
        in; a declined entry still serves this request and the requests
        that waited on its build (each counted as a hit). An unhashable
        cache key (an exotic target object) bypasses the cache (and its
        counts) entirely rather than failing the query. Safe to call
        from any thread; the same atom is never built twice
        concurrently (single-flight).
        """
        key: object = (query.attribute, query.op, query.target)
        try:
            hash(key)
        except TypeError:  # unhashable target: serve uncached
            columns, grade_map = _ranked(build_grades(), population)
            return MaterializedSource.trusted(name, columns, grade_map)
        # Single-flight: exactly one designated builder per key at a
        # time. Waiters block on the builder's lock, then take the
        # entry the gate declined, if any, or *re-check* — never build
        # off a captured lock reference — so a failed build neither
        # leaks its lock nor lets two racers build at once (one waiter
        # is promoted to the next builder instead).
        counted = False  # a waiter that loops is still one request
        while True:
            with self._lock:
                if not counted:
                    self._count_locked(key)
                    counted = True
                entry = self._hit_locked(key)
                if entry is not None:
                    columns, grade_map = entry
                    return MaterializedSource.trusted(name, columns, grade_map)
                flight = self._building.get(key)
                if flight is None:
                    build_lock = threading.Lock()
                    build_lock.acquire()
                    flight = self._building[key] = [build_lock, None]
                    break  # this thread is the builder
            # Another thread is building this key: wait for it to
            # finish (success or failure), then serve its entry if the
            # gate declined it, or loop and re-check.
            build_lock, _ = flight
            build_lock.acquire()
            build_lock.release()
            declined = flight[1]
            if declined is not None:  # no build ran for this request
                with self._lock:
                    self.hits += 1
                columns, grade_map = declined
                return MaterializedSource.trusted(name, columns, grade_map)
        try:
            entry = _ranked(build_grades(), population)
            with self._lock:
                self.misses += 1
                if not self._admit_locked(key, entry):
                    flight[1] = entry
        finally:
            with self._lock:
                if self._building.get(key) is flight:  # clear() may have dropped it
                    del self._building[key]
            build_lock.release()
        columns, grade_map = entry
        return MaterializedSource.trusted(name, columns, grade_map)

    def clear(self) -> None:
        """Drop every entry and request count (the hit, miss and
        rejected counters are kept — they describe traffic)."""
        with self._lock:
            self._entries.clear()
            if self._counts is not None:
                self._counts = {}
                self._window = 0
            # Dropping in-flight build locks is safe: a racer holding
            # one re-checks the entries dict and, at worst, rebuilds
            # the same deterministic graded set.
            self._building.clear()

    def __repr__(self) -> str:
        return (
            f"RankingCache({len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"rejected={self.rejected})"
        )


def _ranked(
    grades: Mapping[ObjectId, float] | Sequence[float],
    population: Sequence[ObjectId] | None,
) -> tuple[RankedColumns, Mapping[ObjectId, float]]:
    """``((objects, grades), grade_map)`` for a built graded set (see
    :meth:`RankingCache.source` for the two shapes it comes in)."""
    if population is None:
        return rank_population(*graded_population(grades))  # type: ignore[arg-type]
    return rank_population(population, grades)  # type: ignore[arg-type]


class Subsystem(ABC):
    """A data server owning some attributes of the object population."""

    name: str = "subsystem"

    #: Can the middleware ask for the grade of a specific object?
    supports_random_access: bool = True

    #: Can this subsystem evaluate conjunctions internally (Section 8)?
    supports_internal_conjunction: bool = False

    #: Are this subsystem's grades always crisp (0/1)?
    crisp: bool = False

    #: Capacity of :attr:`ranking_cache`
    #: (:data:`DEFAULT_RANKING_CACHE_CAPACITY` unless a subsystem's
    #: constructor overrides it; ``None`` means unbounded).
    ranking_cache_capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY

    @property
    def ranking_cache(self) -> RankingCache:
        """This subsystem's per-query ranking cache (lazily created).

        Concrete subsystems route their :meth:`evaluate` through
        :meth:`RankingCache.source`, so repeated federated queries are
        O(1) session mints instead of per-call re-sorts. The property is
        the tests' window onto the hit, miss and rejected counters.
        """
        cache = self.__dict__.get("_ranking_cache")
        if cache is None:
            # setdefault is atomic under the GIL: when two threads race
            # the first mint, both end up with the same cache instance.
            cache = self.__dict__.setdefault(
                "_ranking_cache", RankingCache(self.ranking_cache_capacity)
            )
        return cache

    @abstractmethod
    def attributes(self) -> frozenset[str]:
        """The attribute names this subsystem can evaluate."""

    @abstractmethod
    def object_ids(self) -> frozenset[ObjectId]:
        """The objects this subsystem grades (the shared population)."""

    @abstractmethod
    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        """The graded result of one atomic query, as a fresh source.

        Every object in :meth:`object_ids` is graded (Section 5 model);
        each call returns an independent source with its own cursor,
        read by sorted and random access, one by one or in batches.
        """

    def evaluate_conjunction(
        self, queries: Sequence[AtomicQuery]
    ) -> SortedRandomSource:
        """Internal conjunction under this subsystem's own semantics.

        Default: not supported. Subsystems that override this must
        document their internal semantics — the whole point of
        Section 8 is that it may differ from Garlic's.
        """
        raise SubsystemCapabilityError(
            f"subsystem {self.name!r} cannot evaluate conjunctions internally"
        )

    #: Does :meth:`estimate_selectivity` return *exact* fractions
    #: (true matches / population) rather than estimates? Only an
    #: exact declaration lets the filtered-conjunct executor size its
    #: paged block reads from the statistic — an over-estimate would
    #: over-read and inflate the Section 5 sorted counts relative to
    #: the paper's one-by-one protocol. Subsystems with approximate
    #: statistics keep the default (False) and are read in unit-sized
    #: pages, count-exact by construction.
    selectivity_is_exact: bool = False

    def estimate_selectivity(self, query: AtomicQuery) -> float | None:
        """Optional statistics hook: the expected fraction of objects
        with a non-zero grade under ``query``.

        Used by the planner to pick the filtered-conjunct strategy of
        Section 4 ("Under the reasonable assumption that there are not
        many objects that satisfy the first conjunct …"). ``None``
        means no estimate is available. This models a catalogue-
        statistics lookup, so it is not charged as an access. Declare
        :attr:`selectivity_is_exact` when the returned fraction is a
        true count, not an estimate.
        """
        return None

    def validate_query(self, query: AtomicQuery) -> None:
        """Raise if this subsystem cannot evaluate ``query``."""
        if query.attribute not in self.attributes():
            raise SubsystemCapabilityError(
                f"subsystem {self.name!r} does not serve attribute "
                f"{query.attribute!r} (serves: {sorted(self.attributes())})"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StreamOnlySubsystem(Subsystem):
    """Wraps a subsystem, removing its random-access capability.

    Useful both for modelling genuinely stream-only data servers and
    for testing the planner's no-random-access strategy selection (the
    NRA path) against a known-good graded source. Sorted batches pass
    through; bulk random lookups are refused like unit ones.
    """

    supports_random_access = False

    def __init__(self, inner: Subsystem) -> None:
        self._inner = inner
        self.name = f"{inner.name} (stream-only)"
        self.crisp = inner.crisp
        self.selectivity_is_exact = inner.selectivity_is_exact

    def attributes(self) -> frozenset[str]:
        return self._inner.attributes()

    def object_ids(self):
        return self._inner.object_ids()

    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        from repro.access.source import StreamOnlySource

        return StreamOnlySource(self._inner.evaluate(query))

    def estimate_selectivity(self, query: AtomicQuery) -> float | None:
        return self._inner.estimate_selectivity(query)
