"""Tests for the text-retrieval subsystem."""

import random

import pytest

from repro.core.query import AtomicQuery
from repro.subsystems.text import TextSubsystem, tokenize


@pytest.fixture
def text():
    return TextSubsystem(
        "docs",
        {
            "d1": "A raw soul record with driving horns and raw energy",
            "d2": "Luminous jazz standards, meticulous piano trio",
            "d3": "Driving electronic pulses and luminous synth pads",
            "d4": "Completely unrelated gardening manual",
        },
        attribute="Blurb",
    )


class TestTokenize:
    def test_lowercases(self):
        assert tokenize("Hello WORLD") == ["hello", "world"]

    def test_keeps_apostrophes(self):
        assert tokenize("A Hard Day's Night") == ["a", "hard", "day's", "night"]

    def test_strips_punctuation(self):
        assert tokenize("jazz, soul & funk!") == ["jazz", "soul", "funk"]

    def test_empty(self):
        assert tokenize("") == []


class TestRetrieval:
    def test_relevant_doc_ranks_first(self, text):
        source = text.evaluate(AtomicQuery("Blurb", "raw soul horns", "~"))
        assert source.next_sorted().obj == "d1"

    def test_unrelated_doc_scores_lowest(self, text):
        source = text.evaluate(AtomicQuery("Blurb", "luminous jazz", "~"))
        scores = {o: source.random_access(o) for o in ("d1", "d2", "d3", "d4")}
        assert scores["d2"] == max(scores.values())
        assert scores["d4"] == min(scores.values())

    def test_grades_in_unit_interval(self, text):
        source = text.evaluate(AtomicQuery("Blurb", "driving luminous", "~"))
        for obj in ("d1", "d2", "d3", "d4"):
            assert 0.0 <= source.random_access(obj) <= 1.0

    def test_no_overlap_scores_zero(self, text):
        source = text.evaluate(AtomicQuery("Blurb", "zebra xylophone", "~"))
        assert all(
            source.random_access(o) == 0.0 for o in ("d1", "d2", "d3", "d4")
        )

    def test_every_object_graded(self, text):
        source = text.evaluate(AtomicQuery("Blurb", "jazz", "~"))
        assert len(source) == 4


class TestValidation:
    def test_attribute_name(self, text):
        assert text.attributes() == {"Blurb"}

    def test_crisp_op_rejected(self, text):
        with pytest.raises(ValueError, match="graded"):
            text.evaluate(AtomicQuery("Blurb", "jazz", "="))

    def test_non_string_target_rejected(self, text):
        with pytest.raises(ValueError, match="string"):
            text.evaluate(AtomicQuery("Blurb", 42, "~"))

    def test_needs_documents(self):
        with pytest.raises(ValueError):
            TextSubsystem("t", {})


class TestScoringModel:
    def test_idf_downweights_ubiquitous_terms(self):
        subsystem = TextSubsystem(
            "t",
            {
                "a": "common common common rare",
                "b": "common common common common",
                "c": "common words only here",
            },
        )
        source = subsystem.evaluate(AtomicQuery("text", "rare", "~"))
        assert source.random_access("a") > source.random_access("b")

    def test_self_query_is_strong_match(self, text):
        blurb = "Luminous jazz standards, meticulous piano trio"
        source = text.evaluate(AtomicQuery("Blurb", blurb, "~"))
        assert source.random_access("d2") > 0.95


class TestScoresMatchCosine:
    """A miss grades every document in bulk, bit for bit as
    ``TextSubsystem._cosine`` does."""

    VOCABULARY = ["raw", "soul", "jazz", "blue", "note", "horn", "beat", "a"]

    def test_seeded_corpora(self):
        rng = random.Random(11)
        words = self.VOCABULARY
        for _ in range(40):
            docs = {
                f"d{i}": " ".join(rng.choices(words, k=rng.randrange(0, 9)))
                for i in range(rng.randrange(1, 30))
            }
            sub = TextSubsystem("txt", docs, cache_capacity=2)
            for _ in range(6):
                text = " ".join(rng.choices(words + ["zzz"], k=rng.randrange(0, 9)))
                query_vec = sub._vectorise(tokenize(text))
                source = sub.evaluate(AtomicQuery("text", text, "~"))
                for obj, doc in docs.items():
                    want = TextSubsystem._cosine(
                        query_vec, sub._vectorise(tokenize(doc))
                    )
                    got = source.random_access(obj)
                    assert type(got) is float and got.hex() == want.hex()
