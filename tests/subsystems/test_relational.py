"""Tests for the crisp relational subsystem."""

import pytest

from repro.core.query import AtomicQuery
from repro.exceptions import SubsystemCapabilityError
from repro.subsystems.relational import RelationalSubsystem


@pytest.fixture
def rel():
    return RelationalSubsystem(
        "store",
        {
            "o1": {"Artist": "Beatles", "Year": 1967},
            "o2": {"Artist": "Beatles", "Year": 1969},
            "o3": {"Artist": "Miles Davis", "Year": 1959},
        },
    )


class TestConstruction:
    def test_attributes_and_objects(self, rel):
        assert rel.attributes() == {"Artist", "Year"}
        assert rel.object_ids() == {"o1", "o2", "o3"}

    def test_is_declared_crisp(self, rel):
        assert rel.crisp

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RelationalSubsystem("r", {})

    def test_rejects_ragged_schema(self):
        with pytest.raises(ValueError, match="schema"):
            RelationalSubsystem(
                "r", {"o1": {"A": 1}, "o2": {"A": 1, "B": 2}}
            )


class TestEvaluation:
    def test_crisp_grades(self, rel):
        source = rel.evaluate(AtomicQuery("Artist", "Beatles", "="))
        assert source.random_access("o1") == 1.0
        assert source.random_access("o3") == 0.0

    def test_sorted_stream_matches_first(self, rel):
        source = rel.evaluate(AtomicQuery("Artist", "Beatles", "="))
        first_two = {source.next_sorted().obj, source.next_sorted().obj}
        assert first_two == {"o1", "o2"}
        assert source.next_sorted().grade == 0.0

    def test_every_object_graded(self, rel):
        source = rel.evaluate(AtomicQuery("Year", 1967, "="))
        assert len(source) == 3

    def test_graded_op_rejected(self, rel):
        with pytest.raises(ValueError, match="crisp"):
            rel.evaluate(AtomicQuery("Artist", "Beatles", "~"))

    def test_unknown_attribute_rejected(self, rel):
        with pytest.raises(SubsystemCapabilityError):
            rel.evaluate(AtomicQuery("Nope", "x", "="))

    def test_no_match_all_zero(self, rel):
        source = rel.evaluate(AtomicQuery("Artist", "Nobody", "="))
        assert source.next_sorted().grade == 0.0


class TestStatistics:
    def test_selectivity_exact(self, rel):
        assert rel.estimate_selectivity(
            AtomicQuery("Artist", "Beatles", "=")
        ) == pytest.approx(2 / 3)

    def test_selectivity_no_match(self, rel):
        assert rel.estimate_selectivity(
            AtomicQuery("Artist", "Nobody", "=")
        ) == 0.0

    def test_selectivity_unknown_attribute(self, rel):
        assert rel.estimate_selectivity(AtomicQuery("Nope", "x", "=")) is None

    def test_matching_set(self, rel):
        assert rel.matching_set(
            AtomicQuery("Artist", "Beatles", "=")
        ) == {"o1", "o2"}

    def test_no_internal_conjunction(self, rel):
        with pytest.raises(SubsystemCapabilityError):
            rel.evaluate_conjunction(
                [AtomicQuery("Artist", "Beatles", "=")] * 2
            )


NAN = float("nan")

#: Values chosen to stress a hash index against the scan's ``==``:
#: equal numbers of different types, NaN (unequal to itself, so a
#: hash lookup would find it by identity), and unhashable lists.
INDEX_RECORDS = {
    "o1": {"Artist": "Beatles", "Year": 1967, "Score": NAN, "Tags": ["a"]},
    "o2": {"Artist": "Beatles", "Year": 1967.0, "Score": 0.5, "Tags": ["b"]},
    "o3": {"Artist": "Miles Davis", "Year": True, "Score": NAN, "Tags": []},
    "o4": {"Artist": "Nina", "Year": 1, "Score": 1, "Tags": ["a"]},
    "o5": {"Artist": "nina", "Year": None, "Score": 0.5, "Tags": ["a"]},
}

INDEX_TARGETS = [
    ("Artist", "Beatles"),     # present
    ("Artist", "Nobody"),      # absent
    ("Artist", ["Beatles"]),   # unhashable target
    ("Year", 1967),            # equal int and float values
    ("Year", 1),               # 1 == 1.0 == True
    ("Year", True),
    ("Year", None),
    ("Year", {"x": 1}),        # unhashable target
    ("Score", 0.5),            # a column holding NaN: scanned
    ("Score", NAN),            # NaN target: scanned (matches nothing)
    ("Score", 1.0),
    ("Tags", ["a"]),           # an unhashable column: scanned
    ("Tags", "a"),
]


def scanned_matches(attribute, target):
    return frozenset(
        obj
        for obj, attrs in INDEX_RECORDS.items()
        if attrs[attribute] == target
    )


class TestValueIndex:
    """Statistics and crisp grades come from the value index, and must
    agree with a record-by-record ``==`` scan on every target."""

    @pytest.fixture
    def indexed(self):
        return RelationalSubsystem("rel", INDEX_RECORDS)

    @pytest.mark.parametrize("attribute,target", INDEX_TARGETS)
    def test_matching_set_equals_the_scan(self, indexed, attribute, target):
        query = AtomicQuery(attribute, target, "=")
        assert indexed.matching_set(query) == scanned_matches(attribute, target)

    @pytest.mark.parametrize("attribute,target", INDEX_TARGETS)
    def test_selectivity_equals_the_scan(self, indexed, attribute, target):
        query = AtomicQuery(attribute, target, "=")
        expected = len(scanned_matches(attribute, target)) / len(INDEX_RECORDS)
        assert indexed.estimate_selectivity(query) == expected

    @pytest.mark.parametrize("attribute,target", INDEX_TARGETS)
    def test_grades_equal_the_scan(self, indexed, attribute, target):
        source = indexed.evaluate(AtomicQuery(attribute, target, "="))
        matches = scanned_matches(attribute, target)
        for obj in INDEX_RECORDS:
            assert source.random_access(obj) == (1.0 if obj in matches else 0.0)

    def test_statistics_do_not_rescan_the_records(self, indexed):
        """A hashable target on an indexable attribute is answered by
        the index alone: the records are never compared."""

        class Tripwire(dict):
            def __getitem__(self, key):
                raise AssertionError("records were scanned")

        indexed._records = {obj: Tripwire(attrs) for obj, attrs in INDEX_RECORDS.items()}
        query = AtomicQuery("Artist", "Beatles", "=")
        assert indexed.estimate_selectivity(query) == 2 / 5
        assert indexed.matching_set(query) == {"o1", "o2"}
