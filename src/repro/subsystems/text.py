"""A text-retrieval subsystem ("many text retrieval systems", Section 1).

    "In other data servers, such as a system with queries based on
    image content, or many text retrieval systems, the result of a
    query is a sorted list."

**Substitution note (DESIGN.md):** stands in for whatever text engine
Garlic federated. Documents are tokenised, weighted with TF-IDF, and
queries are scored by cosine similarity — the classical vector-space
model, normalised into [0, 1] grades. The middleware only sees
sorted/random access, so any scoring text engine exercises the same
code paths.

Like any retrieval engine, the stand-in keeps an inverted index (term
-> documents): a query scores only the documents that share one of
its terms, and every other document gets the 0.0 its cosine would be.
Each term's postings carry the documents' weights for it, and a query
adds ``w_q * w_d`` term by term into one score vector, with grades bit
for bit those of :meth:`TextSubsystem._cosine` (see
:meth:`TextSubsystem._scores`).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Mapping

import numpy as _np

from repro.access.source import SortedRandomSource, tie_break_order
from repro.access.types import ObjectId
from repro.core.query import AtomicQuery
from repro.subsystems.base import DEFAULT_RANKING_CACHE_CAPACITY, Subsystem

__all__ = ["TextSubsystem", "tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9']+")


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens (alphanumerics and apostrophes).

    >>> tokenize("A Hard Day's Night!")
    ['a', 'hard', "day's", 'night']
    """
    return _TOKEN_RE.findall(text.lower())


class TextSubsystem(Subsystem):
    """TF-IDF / cosine retrieval over a fixed document collection.

    Parameters
    ----------
    name:
        Subsystem label.
    documents:
        object id -> document text. One attribute (default ``"text"``)
        is served; its graded queries are free-text strings.
    attribute:
        The attribute name queries address, e.g. ``Blurb ~ "raw soul"``.
    cache_capacity:
        Distinct query strings whose materialised rankings are kept in
        the subsystem's :class:`~repro.subsystems.base.RankingCache`
        (``None`` = unbounded).
    """

    def __init__(
        self,
        name: str,
        documents: Mapping[ObjectId, str],
        attribute: str = "text",
        cache_capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY,
    ) -> None:
        if not documents:
            raise ValueError("a text subsystem needs at least one document")
        self.name = name
        self.ranking_cache_capacity = cache_capacity
        self._attribute = attribute
        self._docs = dict(documents)
        self._doc_tokens = {obj: tokenize(t) for obj, t in self._docs.items()}
        # Document frequencies for IDF weighting.
        df: Counter[str] = Counter()
        for tokens in self._doc_tokens.values():
            df.update(set(tokens))
        n_docs = len(self._docs)
        # Smoothed IDF keeps weights positive even for ubiquitous terms.
        self._idf = {
            term: math.log(1.0 + n_docs / (1.0 + count)) + 1.0
            for term, count in df.items()
        }
        doc_vectors = {
            obj: self._vectorise(tokens)
            for obj, tokens in self._doc_tokens.items()
        }
        self._population = tie_break_order(self._docs)
        self._vectors = [doc_vectors[obj] for obj in self._population]
        # term -> (document positions, each document's weight for it).
        postings: dict[str, tuple[list[int], list[float]]] = {}
        for position, vec in enumerate(self._vectors):
            for term, weight in vec.items():
                positions, weights = postings.setdefault(term, ([], []))
                positions.append(position)
                weights.append(weight)
        # Shared by every thread that misses: read-only arrays.
        self._postings = {
            term: (_frozen(positions, _np.intp), _frozen(weights, _np.float64))
            for term, (positions, weights) in postings.items()
        }

    def _vectorise(self, tokens: list[str]) -> dict[str, float]:
        counts = Counter(tokens)
        total = sum(counts.values()) or 1
        vec = {
            term: (count / total) * self._idf.get(term, 1.0)
            for term, count in counts.items()
        }
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if norm > 0:
            vec = {term: w / norm for term, w in vec.items()}
        return vec

    def attributes(self) -> frozenset[str]:
        return frozenset({self._attribute})

    def object_ids(self) -> frozenset[ObjectId]:
        return frozenset(self._docs)

    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        self.validate_query(query)
        if query.op != "~":
            raise ValueError(
                f"text subsystem {self.name!r} evaluates graded matches "
                f"('~') only; got op {query.op!r}"
            )
        if not isinstance(query.target, str):
            raise ValueError(
                f"text queries take a string target, got {query.target!r}"
            )
        return self.ranking_cache.source(
            f"{self.name}:{self._attribute}~{query.target!r}",
            query,
            lambda: self._scores(query.target),
            self._population,
        )

    def _scores(self, text: str) -> list[float]:
        """Every document's cosine with ``text``, in population order.

        The documents sharing a query term are scored in bulk, bit for
        bit as :meth:`_cosine` scores them: each term's products
        ``w_q * w_d`` are added into a zero vector, in the query's term
        order. A document's cosine has one non-zero product per shared
        term (products commute bit for bit, and an exact 0.0 changes no
        sum). With at most two, the sum rounds once and comes out the
        same in any order, compensated or not.
        ``_cosine``'s builtin ``sum`` iterates the shorter vector's
        terms and, from Python 3.12, compensates, so a document sharing
        three or more terms is scored by ``_cosine`` itself. A document
        sharing no term keeps the one shared 0.0 the grade list starts
        from.
        """
        query_vec = self._vectorise(tokenize(text))
        vectors = self._vectors
        grades = [0.0] * len(vectors)
        postings = self._postings
        dots = _np.zeros(len(vectors))
        shared = _np.zeros(len(vectors), dtype=_np.intp)
        for term, weight in query_vec.items():
            if term in postings:
                positions, weights = postings[term]
                dots[positions] += weight * weights
                shared[positions] += 1
        touched = _np.flatnonzero(shared)
        clamped = _np.clip(dots[touched], 0.0, 1.0).tolist()
        for position, grade in zip(touched.tolist(), clamped):
            grades[position] = grade
        if len(query_vec) >= 3:
            for position in _np.flatnonzero(shared >= 3).tolist():
                grades[position] = self._cosine(query_vec, vectors[position])
        return grades

    @staticmethod
    def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
        if len(b) < len(a):
            a, b = b, a
        score = sum(w * b.get(term, 0.0) for term, w in a.items())
        # Both vectors are unit-normalised, so the dot product is the
        # cosine; clamp floating-point overshoot into the grade domain.
        return min(1.0, max(0.0, score))


def _frozen(values, dtype):
    """``values`` as a read-only numpy array of ``dtype``."""
    array = _np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array
