"""Bulk ranking-cache misses are bit-identical to the scalar path.

Every concrete subsystem scores a missed atom as one grade vector
aligned with its population order, and the
:class:`~repro.subsystems.base.RankingCache` ranks that vector with one
bulk validation and one stable argsort
(:func:`~repro.access.source.rank_population`). These properties pin
the result to the scalar reference — each object graded on its own by
:func:`gaussian_similarity`, :func:`histogram_intersection`,
``TextSubsystem._cosine`` or an ``==`` scan, then ranked by the
decorate-sort that :func:`rank_items` used to run — item by item, with
objects identical and grades equal bit for bit, on a miss, on a hit,
after an eviction and for an uncached (unhashable) target.
"""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.access.columnar import rank_orders
from repro.access.source import rank_items, tie_break_key
from repro.core.query import AtomicQuery
from repro.exceptions import GradeRangeError
from repro.subsystems import (
    QbicSubsystem,
    RelationalSubsystem,
    SyntheticSubsystem,
    TextSubsystem,
    gaussian_similarity,
    histogram_intersection,
    tokenize,
)
from repro.workloads.distributions import Uniform

NAN = float("nan")


class Twin:
    """Distinct objects sharing one ``repr``: their tie-break keys
    collide, so only their iteration order separates them."""

    def __repr__(self) -> str:
        return "twin"


TWINS = [Twin() for _ in range(3)]

str_ids = st.text(alphabet="ab1-", max_size=4)
int_ids = st.one_of(
    st.integers(min_value=-20, max_value=40),
    # beyond int64: the columnar order's key-sort fallback
    st.integers(min_value=-(2**70), max_value=2**70),
)
mixed_ids = st.one_of(
    str_ids,
    int_ids,
    st.tuples(st.integers(0, 2), st.text(alphabet="ab", max_size=1)),
    st.sampled_from(TWINS),
)
#: Populations of str, int or mixed ids, N from 1 upward.
populations = st.sampled_from([str_ids, int_ids, mixed_ids]).flatmap(
    lambda ids: st.lists(ids, min_size=1, max_size=30, unique=True)
)

#: Grades with many exact duplicates (ties), ints and bools included.
tied_grades = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.1 + 0.2, 0.3, 1.0, 0, 1, True])
continuous_grades = st.floats(min_value=0.0, max_value=1.0)
coordinates = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)
)


def scalar_ranking(grades):
    """The scalar reference: validate, then decorate-sort by
    ``(-grade, tie_break_key)`` (stable, so collisions keep dict order)."""
    pairs = [(obj, float(grade)) for obj, grade in grades.items()]
    pairs.sort(key=lambda pair: (-pair[1], tie_break_key(pair[0])))
    return pairs


def assert_ranked_as(source, grades):
    """``source`` ranks and grades exactly as the scalar reference
    ranks ``grades``: same objects, grades equal bit for bit."""
    expected = scalar_ranking(grades)
    assert [(it.obj, it.grade) for it in rank_items(grades)] == expected
    got = source.ranking()
    assert len(got) == len(expected) == len(source)
    for item, (obj, grade) in zip(got, expected):
        assert item.obj is obj
        assert type(item.grade) is float
        assert item.grade.hex() == grade.hex()
    for obj, grade in expected:
        value = source.random_access(obj)
        assert type(value) is float
        assert value.hex() == grade.hex()


def assert_cache_paths(sub, query, other, grades):
    """Miss, hit, eviction by ``other``, re-miss: always the reference.

    ``query`` has been requested twice when ``other`` first misses, so
    the admission gate declines ``other`` once and admits it on its
    second request, which evicts ``query``."""
    cache = sub.ranking_cache
    assert cache.capacity == 1
    assert_ranked_as(sub.evaluate(query), grades)
    assert (cache.misses, cache.hits) == (1, 0)
    assert_ranked_as(sub.evaluate(query), grades)
    assert (cache.misses, cache.hits) == (1, 1)
    for requests in range(1, 4):
        sub.evaluate(other)
        if (other.attribute, other.op, other.target) in cache:
            break
    assert (requests, cache.rejected) == (2, 1)
    assert (query.attribute, query.op, query.target) not in cache
    assert_ranked_as(sub.evaluate(query), grades)
    assert (cache.misses, cache.hits) == (4, 1)


def assert_uncached(sub, query, grades):
    cache = sub.ranking_cache
    before = (cache.misses, cache.hits, len(cache))
    assert_ranked_as(sub.evaluate(query), grades)
    assert (cache.misses, cache.hits, len(cache)) == before


# ----------------------------------------------------------------------
# QBIC
# ----------------------------------------------------------------------

#: A named target no drawn object id can equal: the atom that evicts.
EVICT = "evict"


@st.composite
def gaussian_cases(draw):
    objects = draw(populations)
    dim = draw(st.integers(min_value=1, max_value=3))
    vector = st.tuples(*[coordinates] * dim)
    table = {obj: draw(vector) for obj in objects}
    bandwidth = draw(st.sampled_from([0.35, 0.05, 1.0, 2]))
    target = draw(st.one_of(st.sampled_from(objects), vector))
    return table, bandwidth, target, draw(vector)


@given(case=gaussian_cases())
@settings(max_examples=80, deadline=None)
def test_qbic_gaussian_matches_scalar(case):
    table, bandwidth, target, evict_vec = case
    sub = QbicSubsystem(
        "img",
        {"f": table},
        bandwidths={"f": bandwidth},
        named_targets={"f": {EVICT: evict_vec}},
        cache_capacity=1,
    )
    target_vec = table[target] if target in table else target
    grades = {
        obj: gaussian_similarity(vec, target_vec, bandwidth)
        for obj, vec in table.items()
    }
    query = AtomicQuery("f", target, "~")
    assert_cache_paths(sub, query, AtomicQuery("f", EVICT, "~"), grades)
    assert_uncached(sub, AtomicQuery("f", list(target_vec), "~"), grades)


@st.composite
def histogram_cases(draw):
    objects = draw(populations)
    bins = draw(st.integers(min_value=1, max_value=4))
    counts = st.lists(
        st.integers(min_value=0, max_value=3), min_size=bins, max_size=bins
    ).filter(any)
    histogram = counts.map(lambda c: tuple(x / sum(c) for x in c))
    table = {obj: draw(histogram) for obj in objects}
    target = draw(st.one_of(st.sampled_from(objects), histogram))
    return table, target, draw(histogram)


@given(case=histogram_cases())
@settings(max_examples=60, deadline=None)
def test_qbic_histogram_matches_scalar(case):
    table, target, evict_vec = case
    sub = QbicSubsystem(
        "img",
        {"h": table},
        scoring={"h": "histogram"},
        named_targets={"h": {EVICT: evict_vec}},
        cache_capacity=1,
    )
    target_vec = table[target] if target in table else target
    grades = {
        obj: histogram_intersection(vec, target_vec)
        for obj, vec in table.items()
    }
    query = AtomicQuery("h", target, "~")
    assert_cache_paths(sub, query, AtomicQuery("h", EVICT, "~"), grades)
    assert_uncached(sub, AtomicQuery("h", list(target_vec), "~"), grades)


#: Coordinates whose Gaussian grade (target 0, bandwidth 0.35) differs
#: in the last bit when the square is taken as ``d * d`` rather than
#: ``d ** 2`` (libm ``pow``), the call :func:`gaussian_similarity` makes.
POW_SENSITIVE = [
    float.fromhex(h)
    for h in (
        "0x1.80b16501613f2p-2",
        "0x1.5efb96279965fp-1",
        "0x1.88036f3c08bbep-2",
        "0x1.6508d66f9d9d0p-1",
    )
]


def test_qbic_squares_with_libm_pow():
    table = {f"p{i}": (x,) for i, x in enumerate(POW_SENSITIVE)}
    sub = QbicSubsystem("img", {"f": table})
    grades = {
        obj: gaussian_similarity(vec, (0.0,), 0.35) for obj, vec in table.items()
    }
    assert_ranked_as(sub.evaluate(AtomicQuery("f", (0.0,), "~")), grades)


def test_ranking_shares_the_scorers_float_objects():
    """Items and grade map hold the very floats the scorer produced:
    no grade is boxed a second time."""
    scores = [0.25, 0.75, 0.5, 0.75]
    sub = SyntheticSubsystem(
        "syn", tables={"t": dict(zip("abcd", scores))}
    )
    source = sub.evaluate(AtomicQuery("t", "x", "~"))
    ids = {id(score) for score in scores}
    for item in source.ranking():
        assert id(item.grade) in ids
        assert source.random_access(item.obj) is item.grade


def test_qbic_shares_frozen_coordinate_columns():
    sub = QbicSubsystem("img", {"Color": {"a": (0.1, 0.2, 0.3), "b": (1, 0, 0)}})
    columns = sub._columns["Color"]
    assert columns.shape == (3, 2)
    assert not columns.flags.writeable


@pytest.mark.parametrize("target", [(0.5, 0.5), (0.5, 0.5, 0.5, 0.5), ()])
def test_qbic_wrong_dimension_raises_the_scalar_error(target):
    table = {"a": (0.1, 0.2, 0.3), "b": (0.9, 0.8, 0.7)}
    sub = QbicSubsystem("img", {"f": table})
    with pytest.raises(ValueError) as scalar:
        gaussian_similarity(table["a"], target, 0.35)
    with pytest.raises(ValueError, match="dimension mismatch") as bulk:
        sub.evaluate(AtomicQuery("f", target, "~"))
    assert str(bulk.value) == str(scalar.value)
    assert len(sub.ranking_cache) == 0


@pytest.mark.parametrize("bandwidth", [0, 0.0, -0.35])
def test_qbic_nonpositive_bandwidth_raises_the_scalar_error(bandwidth):
    table = {"a": (0.1, 0.2), "b": (0.9, 0.8)}
    sub = QbicSubsystem("img", {"f": table}, bandwidths={"f": bandwidth})
    with pytest.raises(ValueError) as scalar:
        gaussian_similarity(table["a"], table["b"], bandwidth)
    with pytest.raises(ValueError, match="bandwidth must be positive") as bulk:
        sub.evaluate(AtomicQuery("f", "b", "~"))
    assert str(bulk.value) == str(scalar.value)


def test_qbic_ragged_vectors_score_object_by_object():
    table = {"a": (0.1, 0.2), "b": (0.3,), "c": (0.1, 0.2)}
    sub = QbicSubsystem("img", {"f": table})
    assert sub._columns["f"] is None
    with pytest.raises(ValueError, match="dimension mismatch"):
        sub.evaluate(AtomicQuery("f", (0.1, 0.2), "~"))


# ----------------------------------------------------------------------
# Text
# ----------------------------------------------------------------------

VOCABULARY = ["raw", "soul", "jazz", "blue", "note", "a", "soul's"]
documents = st.lists(st.sampled_from(VOCABULARY), max_size=6).map(" ".join)
text_queries = st.lists(
    st.sampled_from(VOCABULARY + ["unknown", "zzz"]), max_size=3
).map(" ".join)


@given(
    objects=populations,
    data=st.data(),
    text=text_queries,
)
@settings(max_examples=80, deadline=None)
def test_text_matches_scalar(objects, data, text):
    docs = {obj: data.draw(documents) for obj in objects}
    sub = TextSubsystem("txt", docs, attribute="Blurb", cache_capacity=1)
    query_vec = sub._vectorise(tokenize(text))
    grades = {
        obj: TextSubsystem._cosine(query_vec, sub._vectorise(tokenize(doc)))
        for obj, doc in docs.items()
    }
    other = AtomicQuery("Blurb", text + " evict", "~")
    assert_cache_paths(sub, AtomicQuery("Blurb", text, "~"), other, grades)


@pytest.mark.parametrize("text", ["", "   ", "zzz unknown", "!!!"])
def test_text_query_without_known_terms_grades_every_document_zero(text):
    docs = {f"d{i}": f"raw soul {'jazz ' * i}" for i in range(5)}
    docs["empty"] = ""
    sub = TextSubsystem("txt", docs)
    source = sub.evaluate(AtomicQuery("text", text, "~"))
    assert len(source) == len(docs)
    for obj in docs:
        grade = source.random_access(obj)
        assert type(grade) is float and grade.hex() == (0.0).hex()
    assert [it.obj for it in source.ranking()] == sorted(docs)


#: Documents with fewer distinct terms than the query that share three
#: or more terms with it. ``_cosine`` sums those in the document's term
#: order (and, from Python 3.12, compensates the sum); here, on either
#: version, adding the products in the query's order rounds one
#: document's grade differently in the last bit.
FEWER_TERMS_THAN_THE_QUERY = [
    (
        {"d0": "horn raw jazz blue beat", "d1": "jazz blue raw raw"},
        "blue beat jazz note raw soul",
    ),
    (
        {"d0": "jazz jazz horn note", "d1": "soul jazz raw note"},
        "note horn soul raw jazz beat",
    ),
    (
        {
            "d0": "jazz jazz horn",
            "d1": "blue raw note",
            "d2": "raw beat jazz blue note",
        },
        "jazz horn blue raw soul beat",
    ),
]


def in_query_order(query_vec, vec):
    """The cosine with its products added one by one in the query's
    term order: the bulk path's sum, without the builtin ``sum``."""
    total = 0.0
    for term, weight in query_vec.items():
        total += weight * vec.get(term, 0.0)
    return min(1.0, max(0.0, total))


@pytest.mark.parametrize("docs,text", FEWER_TERMS_THAN_THE_QUERY)
def test_text_documents_sharing_three_terms_are_scored_by_cosine(docs, text):
    sub = TextSubsystem("txt", docs)
    query_vec = sub._vectorise(tokenize(text))
    vectors = {obj: sub._vectorise(tokenize(doc)) for obj, doc in docs.items()}
    grades = {
        obj: TextSubsystem._cosine(query_vec, vec) for obj, vec in vectors.items()
    }
    summed = {obj: in_query_order(query_vec, vec) for obj, vec in vectors.items()}
    assert summed != grades  # the case tells the two sums apart
    assert_ranked_as(sub.evaluate(AtomicQuery("text", text, "~")), grades)


def test_text_miss_shares_one_zero_grade_object():
    """Documents sharing no query term all hold the one 0.0 the grade
    vector starts from: a miss boxes a float only for scored ones."""
    docs = {f"d{i}": f"jazz note {'blue ' * i}" for i in range(6)}
    docs.update({"r0": "raw soul", "r1": "soul"})
    sub = TextSubsystem("txt", docs)
    source = sub.evaluate(AtomicQuery("text", "raw soul", "~"))
    zeros = [item.grade for item in source.ranking() if item.grade == 0.0]
    assert len(zeros) == 6
    assert len({id(zero) for zero in zeros}) == 1
    assert source.random_access("d3") is zeros[0]


# ----------------------------------------------------------------------
# Relational
# ----------------------------------------------------------------------

#: Crisp grades are all ties; equal values of different types, NaN
#: (unequal to itself) and an unhashable list stress the value index.
RELATIONAL_VALUES = ["x", "y", 0, 1, 1.0, True, None, NAN, ("x",)]


@given(
    objects=populations,
    data=st.data(),
    target=st.sampled_from(RELATIONAL_VALUES + ["absent", 2]),
    with_list_values=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_relational_matches_scalar(objects, data, target, with_list_values):
    values = RELATIONAL_VALUES + [["x"]] if with_list_values else RELATIONAL_VALUES
    records = {
        obj: {"A": data.draw(st.sampled_from(values)), "B": "b"}
        for obj in objects
    }
    sub = RelationalSubsystem("rel", records, cache_capacity=1)

    def scan(t):
        return {
            obj: 1.0 if attrs["A"] == t else 0.0 for obj, attrs in records.items()
        }

    query = AtomicQuery("A", target, "=")
    assert_cache_paths(sub, query, AtomicQuery("B", "b", "="), scan(target))
    assert_uncached(sub, AtomicQuery("A", ["x"], "="), scan(["x"]))
    matches = {obj for obj, grade in scan(target).items() if grade == 1.0}
    assert sub.matching_set(query) == matches
    assert sub.estimate_selectivity(query) == len(matches) / len(records)


# ----------------------------------------------------------------------
# Synthetic
# ----------------------------------------------------------------------


@given(
    objects=populations,
    data=st.data(),
    grades=st.sampled_from([tied_grades, continuous_grades]),
    seed=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_synthetic_matches_scalar(objects, data, grades, seed):
    table = {obj: data.draw(grades) for obj in objects}
    sub = SyntheticSubsystem(
        "syn",
        tables={"t": table},
        generated={"g": Uniform()},
        objects=list(objects),
        seed=seed,
        cache_capacity=1,
    )
    assert_cache_paths(
        sub, AtomicQuery("t", "x", "~"), AtomicQuery("g", "x", "~"), table
    )
    assert_uncached(sub, AtomicQuery("t", ["x"], "~"), table)

    # Generated grades: drawn once per target from the seeded rng, over
    # the population set sorted by repr, then ranked like any table.
    rng = random.Random(seed)
    drawn = {
        obj: Uniform().sample(rng)
        for obj in sorted(frozenset(objects), key=repr)
    }
    fresh = SyntheticSubsystem(
        "syn", generated={"g": Uniform()}, objects=list(objects), seed=seed,
        cache_capacity=1,
    )
    assert_cache_paths(
        fresh, AtomicQuery("g", "x", "~"), AtomicQuery("g", "y", "~"), drawn
    )


@pytest.mark.parametrize("bad", [1.5, -0.1, NAN, "high", None])
def test_synthetic_invalid_grade_names_the_object(bad):
    sub = SyntheticSubsystem(
        "syn", tables={"t": {"a": 0.5, "photo-7": bad, 3: 0.25}}
    )
    with pytest.raises(GradeRangeError, match=r"object 'photo-7'"):
        sub.evaluate(AtomicQuery("t", "x", "~"))
    # The failed build leaves no entry and no in-flight state behind.
    assert len(sub.ranking_cache) == 0
    assert sub.ranking_cache.misses == 0
    assert sub.ranking_cache._building == {}


def _twins_out_of_set_order():
    """The twins in an order their frozenset does not iterate in (when
    one exists), so a population taken from the set would show."""
    for order in itertools.permutations(TWINS):
        if list(frozenset(order)) != list(order):
            break
    return list(order)


@pytest.mark.parametrize(
    "make,query",
    [
        (
            lambda objs: SyntheticSubsystem("s", tables={"t": dict.fromkeys(objs, 0.5)}),
            AtomicQuery("t", "x", "~"),
        ),
        (
            lambda objs: QbicSubsystem("q", {"f": dict.fromkeys(objs, (0.5, 0.5))}),
            AtomicQuery("f", (0.1, 0.9), "~"),
        ),
        (
            lambda objs: QbicSubsystem(
                "q", {"h": dict.fromkeys(objs, (0.5, 0.5))}, scoring={"h": "histogram"}
            ),
            AtomicQuery("h", (1.0, 0.0), "~"),
        ),
        (
            lambda objs: RelationalSubsystem("r", {obj: {"A": 1} for obj in objs}),
            AtomicQuery("A", 1, "="),
        ),
        (
            lambda objs: TextSubsystem("t", dict.fromkeys(objs, "raw soul")),
            AtomicQuery("text", "soul", "~"),
        ),
    ],
    ids=["synthetic", "gaussian", "histogram", "relational", "text"],
)
def test_colliding_tie_break_keys_keep_the_input_order(make, query):
    """Tied objects whose tie-break keys collide rank in the order the
    subsystem's own table lists them, as the scalar path ranked them."""
    order = _twins_out_of_set_order()
    ranking = make(order).evaluate(query).ranking()
    assert [item.obj for item in ranking] == order


def test_miss_formats_no_object_repr():
    """The bulk miss path validates and mints without formatting any
    per-object error context: no object's ``repr`` is taken."""

    class Quiet:
        reprs = 0

        def __init__(self, n):
            self.n = n

        def __repr__(self):
            Quiet.reprs += 1
            return f"Quiet({self.n})"

    objects = [Quiet(n) for n in range(50)]
    sub = SyntheticSubsystem(
        "syn", tables={"t": {obj: obj.n / 50 for obj in objects}}
    )
    Quiet.reprs = 0
    ranking = sub.evaluate(AtomicQuery("t", "x", "~")).ranking()
    assert Quiet.reprs == 0
    assert [it.obj.n for it in ranking] == list(range(49, -1, -1))


# ----------------------------------------------------------------------
# The shared routine behind the columnar store's rank orders
# ----------------------------------------------------------------------


@given(
    objects=populations,
    data=st.data(),
    grades=st.sampled_from([tied_grades, continuous_grades]),
)
@settings(max_examples=80, deadline=None)
def test_rank_orders_match_the_scalar_sort(objects, data, grades):
    objects = tuple(objects)
    columns = [
        np.asarray([float(data.draw(grades)) for _ in objects]) for _ in range(2)
    ]
    keys = [tie_break_key(obj) for obj in objects]
    for column, order in zip(columns, rank_orders(objects, columns)):
        expected = sorted(
            range(len(objects)), key=lambda j: (-column[j], keys[j])
        )
        assert list(order) == expected


# ----------------------------------------------------------------------
# Concurrency: bulk misses inside the single-flight build
# ----------------------------------------------------------------------


def test_concurrent_misses_hits_and_evictions_rank_as_the_serial_path():
    """More threads than cores race misses, hits, evictions and
    declined builds through two-entry caches: every ranking equals the
    serial one, and no hit, miss or request count is lost."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(7)
    objs = [f"o{i}" for i in range(300)]
    features = {o: (rng.random(), rng.random(), rng.random()) for o in objs}
    docs = {o: " ".join(rng.choice(VOCABULARY) for _ in range(5)) for o in objs}
    records = {o: {"A": rng.randrange(6)} for o in objs}

    def federation(capacity):
        return {
            "img": QbicSubsystem("img", {"Color": features}, cache_capacity=capacity),
            "txt": TextSubsystem("txt", docs, cache_capacity=capacity),
            "rel": RelationalSubsystem("rel", records, cache_capacity=capacity),
        }

    atoms = (
        [("img", AtomicQuery("Color", o, "~")) for o in objs[:6]]
        + [("txt", AtomicQuery("text", w, "~")) for w in VOCABULARY]
        + [("rel", AtomicQuery("A", v, "=")) for v in range(6)]
    )

    def bits(source):
        return [(item.obj, item.grade.hex()) for item in source.ranking()]

    serial = federation(None)
    expected = [bits(serial[name].evaluate(query)) for name, query in atoms]
    work = list(range(len(atoms))) * 8
    rng.shuffle(work)
    racing = federation(2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(
                pool.map(
                    lambda i: bits(racing[atoms[i][0]].evaluate(atoms[i][1])),
                    work,
                    timeout=120,
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected[i] for i in work]
    for name, sub in racing.items():
        calls = sum(1 for i in work if atoms[i][0] == name)
        assert sub.ranking_cache.hits + sub.ranking_cache.misses == calls
        assert len(sub.ranking_cache) <= 2
        # Every request was counted once: the admission gate's window
        # (10 x capacity requests between halvings) lost no update.
        assert sub.ranking_cache._window == calls % 20
    assert all(sub.ranking_cache.rejected for sub in racing.values())
