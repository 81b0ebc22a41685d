"""Parity suite: batched and unit-step access paths are equivalent.

Every algorithm is run on four backings of the same scoring database:

* ``unit`` — sources wrapped in :class:`UnbatchedSource`, so every
  batched call decomposes into the unit accesses the pre-batching
  implementations performed;
* ``row`` — plain ``ScoringDatabase`` sessions (``MaterializedSource``
  with its slice-based batch overrides);
* ``columnar`` — ``ColumnarScoringDatabase`` sessions (numpy columns,
  shared rank orders, vectorized computation phases downstream);
* ``federated`` — the same lists served by a
  :class:`~repro.subsystems.synthetic.SyntheticSubsystem` through
  ``evaluate``, each source shipping a deliberately awkward page of at
  most 7 objects per exchange (:class:`PagedSource`), so every request
  for more comes back short.

All four must produce identical top-k answers and identical per-list
sorted/random access counts; ``IncrementalFagin`` must additionally
resume identically batch after batch, and its first batch must be A0's
run on a fresh session of the same store.
"""

import pytest

from repro.access import (
    ColumnarScoringDatabase,
    MaterializedSource,
    MiddlewareSession,
    SortedRandomSource,
    UnbatchedSource,
)
from repro.core.query import AtomicQuery
from repro.subsystems.synthetic import SyntheticSubsystem
from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.fa import FaginA0, IncrementalFagin
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.fa_variants import EarlyStopFagin, ShrunkenFagin
from repro.algorithms.median import MedianTopK
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.aggregation import AggregationFunction
from repro.core.means import ARITHMETIC_MEAN, MEDIAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import MINIMUM
from repro.workloads.correlated import correlated_database
from repro.workloads.skeletons import independent_database

DATABASES = {
    "independent-m3": lambda: independent_database(3, 240, seed=13),
    "correlated+0.7-m2": lambda: correlated_database(2, 200, 0.7, seed=31),
    "correlated-0.5-m3": lambda: correlated_database(3, 150, -0.4, seed=8),
}

ALGORITHMS = [
    ("fagin", FaginA0, (MINIMUM, ARITHMETIC_MEAN)),
    ("fa-min", FaginA0Min, (MINIMUM,)),
    ("threshold", ThresholdAlgorithm, (MINIMUM, ARITHMETIC_MEAN)),
    ("nra", NoRandomAccessAlgorithm, (MINIMUM, ARITHMETIC_MEAN)),
    ("naive", NaiveAlgorithm, (MINIMUM, ARITHMETIC_MEAN)),
    ("early-stop", EarlyStopFagin, (MINIMUM,)),
    ("shrunken", ShrunkenFagin, (MINIMUM,)),
    ("b0", DisjunctionB0, (MAXIMUM,)),
    ("median", MedianTopK, (MEDIAN,)),
]


class PagedSource(SortedRandomSource):
    """At most ``page`` objects per exchange, as a source paging over a
    wire would ship them; short batches are legal under the protocol."""

    def __init__(self, inner: SortedRandomSource, page: int) -> None:
        self.inner, self.page, self.name = inner, page, inner.name

    def __len__(self):
        return len(self.inner)

    @property
    def position(self):
        return self.inner.position

    def next_sorted(self):
        return self.inner.next_sorted()

    def random_access(self, obj):
        return self.inner.random_access(obj)

    def restart(self):
        self.inner.restart()

    def sorted_access_batch(self, count):
        return self.inner.sorted_access_batch(min(count, self.page))

    def random_access_many(self, objs):
        pages = range(0, len(objs), self.page)
        return [
            grade
            for start in pages
            for grade in self.inner.random_access_many(
                objs[start : start + self.page]
            )
        ]


def federated_session(db) -> MiddlewareSession:
    """The db's lists behind a subsystem, shipped in pages of 7."""
    subsystem = SyntheticSubsystem(
        "fed",
        tables={
            f"attr{i}": db.graded_set(i).as_dict()
            for i in range(db.num_lists)
        },
    )
    return MiddlewareSession.over_sources(
        [
            PagedSource(
                subsystem.evaluate(AtomicQuery(f"attr{i}", None, "~")), 7
            )
            for i in range(db.num_lists)
        ],
        num_objects=db.num_objects,
    )


def sessions_for(db_factory):
    db = db_factory()
    columnar = ColumnarScoringDatabase.from_scoring_database(db)
    unit = MiddlewareSession.over_sources(
        [
            UnbatchedSource(MaterializedSource(f"list-{i}", db.ranking(i)))
            for i in range(db.num_lists)
        ],
        num_objects=db.num_objects,
    )
    return {
        "unit": unit,
        "row": db.session(),
        "columnar": columnar.session(),
        "federated": federated_session(db),
    }


@pytest.mark.parametrize("db_name", DATABASES)
@pytest.mark.parametrize(
    "algo_name,algo_cls,aggregations", ALGORITHMS, ids=lambda a: str(a)
)
def test_three_paths_agree(db_name, algo_name, algo_cls, aggregations):
    if algo_cls is MedianTopK and DATABASES[db_name]().num_lists < 3:
        pytest.skip("the median construction needs at least 3 lists")
    for aggregation in aggregations:
        for k in (1, 5, 20):
            results = {
                path: algo_cls().top_k(session, aggregation, k)
                for path, session in sessions_for(DATABASES[db_name]).items()
            }
            unit = results["unit"]
            for path in ("row", "columnar", "federated"):
                other = results[path]
                assert other.items == unit.items, (
                    f"{db_name}/{algo_name}/{aggregation.name}/k={k}: "
                    f"{path} answers diverge from unit-step"
                )
                assert other.stats == unit.stats, (
                    f"{db_name}/{algo_name}/{aggregation.name}/k={k}: "
                    f"{path} access counts diverge from unit-step "
                    f"({other.stats!r} vs {unit.stats!r})"
                )


class _ScalarOnly(AggregationFunction):
    """A kernel-less clone of an aggregation: same answers, scalar fold.

    Its type is not in the kernel registry and it carries no
    ``aggregate_columns``, so every bulk scoring phase falls back to
    the per-object ``evaluate_trusted`` loop — the lane that isolates
    the vectorized computation phase.
    """

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.arity = inner.arity
        self.monotone = inner.monotone
        self.strict = inner.strict

    def aggregate(self, grades):
        return self._inner.aggregate(grades)

    def evaluate_trusted(self, grades):
        return self._inner.evaluate_trusted(grades)


@pytest.mark.parametrize("db_name", DATABASES)
@pytest.mark.parametrize("aggregation", (MINIMUM, ARITHMETIC_MEAN),
                         ids=lambda a: a.name)
def test_threshold_kernel_lane_parity(db_name, aggregation):
    """TA's three lanes — unit access, batched access with the kernel
    sweep, batched access with the scalar fallback — must agree item
    for item and count for count, including on the exhaustion path
    (k past the population, every list drained)."""
    db = DATABASES[db_name]()
    scalar = _ScalarOnly(aggregation)
    # k = N is the exhaustion path: the lists are drained completely.
    for k in (1, 5, 20, db.num_objects):
        sessions = sessions_for(DATABASES[db_name])
        unit = ThresholdAlgorithm().top_k(sessions["unit"], aggregation, k)
        kernel = ThresholdAlgorithm().top_k(
            sessions["columnar"], aggregation, k
        )
        scalar_run = ThresholdAlgorithm().top_k(
            sessions["federated"], scalar, k
        )
        assert kernel.items == unit.items
        assert kernel.stats == unit.stats
        assert scalar_run.items == unit.items
        assert scalar_run.stats == unit.stats
        assert kernel.details["rounds"] == unit.details["rounds"]
        if k == db.num_objects:
            # Full drain: rounds reports the real sorted depth.
            assert unit.details["rounds"] == unit.stats.max_sorted_depth()


def test_fixed_arity_aggregation_still_raises_on_wrong_list_count():
    """The trusted scoring path must not silently drop grades when a
    fixed-arity aggregation meets the wrong number of lists."""
    from repro.core.weights import FaginWimmersWeighting
    from repro.exceptions import AggregationArityError

    weighted = FaginWimmersWeighting(MINIMUM, (0.7, 0.3))  # arity 2
    db = independent_database(3, 30, seed=2)
    with pytest.raises(AggregationArityError):
        FaginA0().top_k(db.session(), weighted, 3)


def test_top_k_of_zero_k_returns_empty():
    from repro.algorithms.base import top_k_of

    assert top_k_of({"a": 0.5, "b": 0.9}, 0) == ()


@pytest.mark.parametrize("db_name", DATABASES)
def test_incremental_fagin_resumes_identically(db_name):
    cursors = {
        path: IncrementalFagin(session, MINIMUM)
        for path, session in sessions_for(DATABASES[db_name]).items()
    }
    for batch_index in range(4):
        batches = {
            path: cursor.next_batch(6) for path, cursor in cursors.items()
        }
        unit = batches["unit"]
        for path in ("row", "columnar", "federated"):
            other = batches[path]
            assert other.items == unit.items, (
                f"{db_name} batch {batch_index}: {path} answers diverge"
            )
            assert other.stats == unit.stats, (
                f"{db_name} batch {batch_index}: {path} per-batch access "
                f"deltas diverge ({other.stats!r} vs {unit.stats!r})"
            )
    for path in ("row", "columnar", "federated"):
        assert cursors[path].returned == cursors["unit"].returned


@pytest.mark.parametrize("db_name", DATABASES)
@pytest.mark.parametrize("aggregation", (MINIMUM, ARITHMETIC_MEAN),
                         ids=lambda a: a.name)
def test_first_cursor_page_is_a0(db_name, aggregation):
    """A cursor's first page is A0 itself: same answers, same per-list
    sorted and random counts and the same depth T, on every backing."""
    for k in (1, 5, 20):
        pages = sessions_for(DATABASES[db_name])
        runs = sessions_for(DATABASES[db_name])
        for path, session in pages.items():
            page = IncrementalFagin(session, aggregation).next_batch(k)
            a0 = FaginA0().top_k(runs[path], aggregation, k)
            assert page.items == a0.items, f"{db_name}/{path}/k={k}"
            assert page.stats == a0.stats, f"{db_name}/{path}/k={k}"
            assert page.details["T"] == a0.details["T"], f"{db_name}/{path}/k={k}"
