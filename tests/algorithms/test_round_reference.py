"""TA, NRA and the A0 cursor against their textbook unit-step forms.

The oracles below are the algorithms as Fagin, Lotem and Naor state
them, one ``next_sorted`` per list per round and one ``random_access``
per missing grade, with none of the library's shortcuts: TA completes
each object the moment it is first seen, and NRA recomputes every exact
grade and scans every partially seen object after every round. The
library's TA defers completion until a round could stop, and its NRA
runs A0's sorted phase, prunes certified candidates for good and stops
re-testing the unseen bound once it passes; both must still match the
oracles exactly — the same items with the same grade bits, the same
per-list sorted and random counts, the same ``details`` and the same
guarantee.

The cursor's oracle is Section 4's A0 that "continues where it left
off": each page extends the lockstep rounds until r + k objects are
matched, completes every seen object, and ranks the unreturned ones.
The library's cursor completes only the objects a page surfaced; page
by page it must match the oracle's items, per-list counts and depth.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.access import (
    ColumnarScoringDatabase,
    MaterializedSource,
    MiddlewareSession,
    UnbatchedSource,
)
from repro.access.scoring_database import ScoringDatabase
from repro.access.source import tie_break_key
from repro.algorithms.base import top_k_of
from repro.algorithms.fa import IncrementalFagin
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.core.certify import as_contract
from repro.core.means import ARITHMETIC_MEAN, GEOMETRIC_MEAN, MEDIAN
from repro.core.tconorms import MAXIMUM
from repro.core.tnorms import ALGEBRAIC_PRODUCT, EINSTEIN_PRODUCT, MINIMUM

# EINSTEIN_PRODUCT has no column kernel, so it runs the algorithms'
# scalar branches (TA's completion fold, NRA's scalar certification).
AGGREGATIONS = (
    MINIMUM,
    MAXIMUM,
    ARITHMETIC_MEAN,
    GEOMETRIC_MEAN,
    ALGEBRAIC_PRODUCT,
    MEDIAN,
    EINSTEIN_PRODUCT,
)


def row_session(lists, num_objects):
    return ScoringDatabase(lists).session()


def columnar_session(lists, num_objects):
    return ColumnarScoringDatabase(lists).session()


def unbatched_session(lists, num_objects):
    return MiddlewareSession.over_sources(
        [
            UnbatchedSource(MaterializedSource(f"l{i}", grades))
            for i, grades in enumerate(lists)
        ],
        num_objects=num_objects,
    )


BACKINGS = (row_session, columnar_session, unbatched_session)


def read_round(sources, bottoms):
    """One unit-step round: one sorted access per unexhausted list."""
    delivered = []
    for i, source in enumerate(sources):
        if source.exhausted:
            continue
        item = source.next_sorted()
        bottoms[i] = item.grade
        delivered.append((i, item))
    return delivered


def reference_ta(session, aggregation, k, epsilon):
    rule = as_contract(epsilon).stopping_rule()
    sources = session.sources
    m = len(sources)
    evaluate = aggregation.evaluate_trusted
    scored = {}
    bottoms = [1.0] * m
    rounds = 0
    tau = 1.0
    while True:
        delivered = read_round(sources, bottoms)
        if not delivered:
            break
        rounds += 1
        for i, item in delivered:
            if item.obj in scored:
                continue
            grades = [
                item.grade if j == i else sources[j].random_access(item.obj)
                for j in range(m)
            ]
            scored[item.obj] = evaluate(grades)
        tau = evaluate(bottoms)
        if len(scored) >= k:
            kth_best = sorted(scored.values(), reverse=True)[k - 1]
            if rule.met(kth_best, tau):
                break
    details = {"rounds": rounds, "threshold": tau, "seen": len(scored)}
    return top_k_of(scored, k), details, rule.guarantee(tau)


def reference_nra(session, aggregation, k, epsilon):
    rule = as_contract(epsilon).stopping_rule()
    sources = session.sources
    m = len(sources)
    evaluate = aggregation.evaluate_trusted
    known = {}
    bottoms = [1.0] * m
    rounds = 0

    def exact_grades():
        return {
            obj: evaluate([grades[j] for j in range(m)])
            for obj, grades in known.items()
            if len(grades) == m
        }

    while True:
        delivered = read_round(sources, bottoms)
        if not delivered:
            break
        rounds += 1
        for i, item in delivered:
            known.setdefault(item.obj, {})[i] = item.grade
        exact = exact_grades()
        if len(exact) < k:
            continue
        limit = rule.limit(sorted(exact.values(), reverse=True)[k - 1])
        if evaluate(bottoms) > limit:
            continue
        if all(
            evaluate([grades.get(j, bottoms[j]) for j in range(m)]) <= limit
            for obj, grades in known.items()
            if obj not in exact
        ):
            break
    exact = exact_grades()
    threshold = None
    if len(exact) >= k:
        threshold = rule.limit(sorted(exact.values(), reverse=True)[k - 1])
    details = {"rounds": rounds, "seen": len(known), "exact": len(exact)}
    return top_k_of(exact, k), details, rule.guarantee(threshold)


class ReferenceCursor:
    """Resumable unit-step A0: one ``next_sorted`` per list per round
    until r + k objects are matched, one ``random_access`` per missing
    grade of every seen object, then the next k unreturned objects by
    (-grade, tie-break key)."""

    def __init__(self, session, aggregation):
        self.sources = session.sources
        self.evaluate = aggregation.evaluate_trusted
        self.known = {}  # obj -> {list index: grade}, by either access
        self.delivered = {}  # obj -> lists that delivered it sorted
        self.depth = 0
        self.returned = []

    def next_page(self, k):
        m = len(self.sources)
        needed = len(self.returned) + k
        while sum(len(lists) == m for lists in self.delivered.values()) < needed:
            delivered = read_round(self.sources, [1.0] * m)
            assert delivered, "lists exhausted before r + k matches"
            for i, item in delivered:
                self.known.setdefault(item.obj, {})[i] = item.grade
                self.delivered.setdefault(item.obj, set()).add(i)
            self.depth += 1
        for obj, grades in self.known.items():
            for j, source in enumerate(self.sources):
                if j not in grades:
                    grades[j] = source.random_access(obj)
        overall = [
            (obj, self.evaluate([grades[j] for j in range(m)]))
            for obj, grades in self.known.items()
            if obj not in self.returned
        ]
        overall.sort(key=lambda og: (-og[1], tie_break_key(og[0])))
        page = overall[:k]
        batch_start = len(self.returned)
        self.returned.extend(obj for obj, _ in page)
        return page, {"T": self.depth, "batch_start": batch_start}


REFERENCES = {"TA": reference_ta, "NRA": reference_nra}


def bits(value):
    return value.hex() if isinstance(value, float) else value


def fingerprint(items, stats, details, guarantee):
    return (
        [(item.obj, item.grade.hex()) for item in items],
        stats.sorted_by_list,
        stats.random_by_list,
        {key: bits(value) for key, value in details.items()},
        (guarantee.kind, bits(guarantee.epsilon), bits(guarantee.threshold)),
    )


def assert_matches_reference(
    algorithm, backing, lists, num_objects, aggregation, k, epsilon
):
    result = algorithm.top_k(
        backing(lists, num_objects), aggregation, k, epsilon or None
    )
    session = backing(lists, num_objects)
    items, details, guarantee = REFERENCES[algorithm.name](
        session, aggregation, k, epsilon or None
    )
    assert fingerprint(
        result.items, result.stats, result.details, result.guarantee
    ) == fingerprint(items, session.tracker.snapshot(), details, guarantee)


tie_heavy = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
uniform = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def cases(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=60))
    grades = draw(st.sampled_from([tie_heavy, uniform]))
    if draw(st.booleans()):
        objects = list(range(n))
    else:
        objects = [f"o{i}" for i in range(n)]
    lists = [
        dict(zip(objects, draw(st.lists(grades, min_size=n, max_size=n))))
        for _ in range(m)
    ]
    return (
        draw(st.sampled_from(BACKINGS)),
        lists,
        n,
        draw(st.sampled_from(AGGREGATIONS)),
        draw(st.integers(min_value=1, max_value=n)),
        draw(st.sampled_from([0.0, 0.1, 0.5])),
    )


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_ta_matches_unit_step_reference(case):
    assert_matches_reference(ThresholdAlgorithm(), *case)


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_nra_matches_unit_step_reference(case):
    assert_matches_reference(NoRandomAccessAlgorithm(), *case)


@pytest.mark.parametrize(
    "algorithm", [ThresholdAlgorithm(), NoRandomAccessAlgorithm()],
    ids=lambda a: a.name,
)
def test_exhausted_session_matches_reference(algorithm):
    """Two 12-object lists under a session that claims 17 objects: the
    stop test never passes, and the run ends when the lists run out."""
    n = 12
    grades = {i: (n - i) / (n + 1) for i in range(n)}
    assert_matches_reference(
        algorithm,
        unbatched_session,
        [dict(grades), dict(grades)],
        n + 5,
        MINIMUM,
        n + 3,
        0.0,
    )


@given(case=cases())
@settings(max_examples=200, deadline=None)
def test_cursor_pages_match_resumable_reference(case):
    backing, lists, num_objects, aggregation, k, _ = case
    session = backing(lists, num_objects)
    cursor = IncrementalFagin(session, aggregation)
    reference_session = backing(lists, num_objects)
    reference = ReferenceCursor(reference_session, aggregation)
    tracker = reference_session.tracker
    for _ in range(num_objects // k):
        page = cursor.next_batch(k)
        before = tracker.snapshot()
        items, details = reference.next_page(k)
        spent = tracker.snapshot() - before
        assert [(item.obj, item.grade.hex()) for item in page.items] == [
            (obj, grade.hex()) for obj, grade in items
        ]
        assert page.stats.sorted_by_list == spent.sorted_by_list
        assert page.stats.random_by_list == spent.random_by_list
        assert page.details == details
