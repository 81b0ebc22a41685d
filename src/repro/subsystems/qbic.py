"""A QBIC-like image subsystem: the multimedia half of Section 2.

    "QBIC can search for images by various visual characteristics such
    as color and texture. … In reality, [AlbumColor = 'red'] might be
    expressed by selecting a color from a color wheel, or by selecting
    an image I (that might be predominantly red) and asking for other
    images whose colors are 'close to' that of image I. Systems such as
    QBIC have sophisticated color-matching algorithms [Io89, NBE+93,
    SO95, SC96] that compute the closeness of the colors of two
    images."

**Substitution note (DESIGN.md):** the real QBIC is proprietary; this
stand-in stores per-object feature vectors (colour as RGB, texture and
shape descriptors) and scores closeness with a Gaussian kernel on
Euclidean distance — monotone in distance, 1 at a perfect match, like
QBIC's similarity scores. The middleware only ever sees the
sorted/random access interface, so the algorithmic behaviour under
study is identical.

The subsystem supports query-by-value (a target vector or named
colour), query-by-example (an object id whose features become the
target — the footnote's "other images whose colors are close to that
of image I"), and internal conjunction (Section 8) under QBIC-style
*averaging* semantics, deliberately different from Garlic's min rule.

A similarity query scores the whole collection in one pass over
per-feature coordinate columns (see :func:`_gaussian_scores`), with
grades bit-identical to :func:`gaussian_similarity` object by object.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Mapping, Sequence

import numpy as _np

from repro.access.source import (
    MaterializedSource,
    SortedRandomSource,
    tie_break_order,
)
from repro.access.types import ObjectId
from repro.core.query import AtomicQuery
from repro.exceptions import SubsystemCapabilityError, UnknownObjectError
from repro.subsystems.base import DEFAULT_RANKING_CACHE_CAPACITY, Subsystem
from repro.workloads.datasets import NAMED_COLORS

__all__ = ["QbicSubsystem", "gaussian_similarity", "histogram_intersection"]


def gaussian_similarity(
    x: Sequence[float], target: Sequence[float], bandwidth: float
) -> float:
    """exp(-||x - target||^2 / (2 * bandwidth^2)) — a [0, 1] closeness score.

    1.0 iff the feature matches the target exactly; decays smoothly
    with distance, like a similarity-ranked image engine.
    """
    if len(x) != len(target):
        raise ValueError(
            f"feature dimension mismatch: {len(x)} vs {len(target)}"
        )
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    sq = sum((a - b) ** 2 for a, b in zip(x, target))
    return math.exp(-sq / (2.0 * bandwidth * bandwidth))


def histogram_intersection(
    x: Sequence[float], target: Sequence[float]
) -> float:
    """Swain-Ballard histogram intersection: sum of binwise minima.

    The classical colour-matching score the QBIC literature builds on
    ([Io89, SO95]; Section 2's footnote 4): both arguments are colour
    histograms (non-negative bins summing to 1), and the score is the
    total mass the two distributions share — 1.0 for identical
    histograms, 0.0 for disjoint ones. Notably, "an image that contains
    a lot of red and a little green might be considered moderately
    close in color to another image with a lot of pink and no green"
    falls out of bin overlap rather than pointwise distance.
    """
    if len(x) != len(target):
        raise ValueError(
            f"histogram length mismatch: {len(x)} vs {len(target)}"
        )
    if not x:
        raise ValueError("histograms must be non-empty")
    for h in (x, target):
        if any(v < 0 for v in h):
            raise ValueError("histogram bins must be non-negative")
        total = sum(h)
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ValueError(
                f"histogram bins must sum to 1, got {total:.6f}"
            )
    return min(1.0, sum(min(a, b) for a, b in zip(x, target)))


def _gaussian_scores(columns, target: Sequence[float], bandwidth: float) -> list[float]:
    """:func:`gaussian_similarity` of every vector, bit for bit.

    ``columns[d]`` holds coordinate ``d`` of every vector. Only the
    subtraction is vectorised (IEEE subtraction rounds the same in
    numpy and Python); each square and exponential is the same libm
    call :func:`gaussian_similarity` makes — ``x ** 2`` and
    :func:`math.exp` per element — and each distance the builtin
    ``sum`` over the coordinates in order (from Python 3.12 that sum is
    compensated, so adding the squares as arrays would not match it).
    numpy's shortcuts round differently in the last bit for a fraction
    of inputs (``d * d``, ``np.power``, ``np.exp``), which would
    reorder tied rankings.
    """
    if len(columns) != len(target):
        raise ValueError(
            f"feature dimension mismatch: {len(columns)} vs {len(target)}"
        )
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    squares = [
        list(map(pow, (column - t).tolist(), repeat(2)))
        for column, t in zip(columns, target)
    ]
    denominator = 2.0 * bandwidth * bandwidth
    return [math.exp(-sq / denominator) for sq in map(sum, zip(*squares))]


def _coordinate_columns(
    table: Mapping[ObjectId, tuple[float, ...]],
    population: tuple[ObjectId, ...],
):
    """A feature's vectors as a frozen (dimension, N) float64 array,
    columns aligned with ``population`` — or None for ragged or empty
    vectors, which are scored object by object."""
    try:
        rows = _np.array([table[obj] for obj in population], dtype=_np.float64)
    except ValueError:  # ragged vectors
        return None
    if rows.shape[1] == 0:
        return None
    columns = _np.ascontiguousarray(rows.T)
    # Shared by every thread that misses on this feature: read-only.
    columns.flags.writeable = False
    return columns


class QbicSubsystem(Subsystem):
    """Feature-vector store with similarity-ranked atomic queries.

    Parameters
    ----------
    name:
        Subsystem label.
    features:
        feature name -> {object id -> feature vector}. All features
        must cover the same object population.
    bandwidths:
        Per-feature Gaussian kernel bandwidth (default 0.35, a gentle
        kernel for unit-cube features).
    named_targets:
        String targets recognised per feature, e.g. colour names; the
        default wires :data:`~repro.workloads.datasets.NAMED_COLORS`
        into the ``color`` feature.
    scoring:
        Per-feature scoring model: ``"gaussian"`` (default; kernel on
        Euclidean distance) or ``"histogram"`` (Swain-Ballard
        histogram intersection — feature vectors must then be
        normalised histograms, the [SO95] colour-matching style).
    cache_capacity:
        Distinct similarity queries whose materialised rankings are
        kept in the subsystem's
        :class:`~repro.subsystems.base.RankingCache` (``None`` =
        unbounded). Unhashable targets (raw vectors given as lists)
        are served uncached.
    """

    supports_internal_conjunction = True

    def __init__(
        self,
        name: str,
        features: Mapping[str, Mapping[ObjectId, Sequence[float]]],
        bandwidths: Mapping[str, float] | None = None,
        named_targets: Mapping[str, Mapping[str, Sequence[float]]] | None = None,
        scoring: Mapping[str, str] | None = None,
        cache_capacity: int | None = DEFAULT_RANKING_CACHE_CAPACITY,
    ) -> None:
        if not features:
            raise ValueError("a QBIC subsystem needs at least one feature")
        self.name = name
        self.ranking_cache_capacity = cache_capacity
        self._features = {
            feat: {obj: tuple(map(float, vec)) for obj, vec in table.items()}
            for feat, table in features.items()
        }
        populations = {frozenset(t) for t in self._features.values()}
        if len(populations) != 1:
            raise ValueError(
                f"features of {name!r} cover different object populations"
            )
        self._objects = next(iter(populations))
        if not self._objects:
            raise ValueError(f"subsystem {name!r} has no objects")
        self._bandwidths = dict(bandwidths or {})
        self._scoring = dict(scoring or {})
        for feat, mode in self._scoring.items():
            if feat not in self._features:
                raise ValueError(
                    f"scoring declared for unknown feature {feat!r}"
                )
            if mode not in ("gaussian", "histogram"):
                raise ValueError(
                    f"scoring for {feat!r} must be 'gaussian' or "
                    f"'histogram', got {mode!r}"
                )
        self._named_targets = {
            feat: dict(targets)
            for feat, targets in (named_targets or {}).items()
        }
        # Colour-like features understand the standard named colours out
        # of the box ("selecting a color from a color wheel", Section 2).
        for feat in self._features:
            if "color" in feat.lower() and feat not in self._named_targets:
                self._named_targets[feat] = dict(NAMED_COLORS)
        # Per feature: its population order (the order its scalar scan
        # ranked ties in) and, for Gaussian scoring, its coordinates.
        self._populations = {
            feat: tie_break_order(table)
            for feat, table in self._features.items()
        }
        self._columns = {
            feat: _coordinate_columns(table, self._populations[feat])
            for feat, table in self._features.items()
            if self._scoring.get(feat, "gaussian") == "gaussian"
        }

    def attributes(self) -> frozenset[str]:
        return frozenset(self._features)

    def object_ids(self) -> frozenset[ObjectId]:
        return frozenset(self._objects)

    def _bandwidth(self, feature: str) -> float:
        return self._bandwidths.get(feature, 0.35)

    def _resolve_target(
        self, feature: str, target: object
    ) -> tuple[float, ...]:
        """Turn a query target into a feature vector.

        Accepts a vector, a named target (e.g. ``"red"``), or an
        existing object id (query by example).
        """
        table = self._features[feature]
        if isinstance(target, str):
            named = self._named_targets.get(feature, {})
            if target in named:
                return tuple(map(float, named[target]))
            if target in table:
                return table[target]
            raise UnknownObjectError(target, f"{self.name}:{feature}")
        try:
            known = target in table  # query by example with a non-string id
        except TypeError:  # unhashable target (e.g. a raw vector as list)
            known = False
        if known:
            return table[target]  # type: ignore[index]
        try:
            return tuple(float(v) for v in target)  # type: ignore[union-attr]
        except TypeError:
            raise ValueError(
                f"cannot interpret target {target!r} for feature "
                f"{feature!r}: expected a vector, a named target, or an "
                "object id"
            ) from None

    def _check_query(self, query: AtomicQuery) -> None:
        self.validate_query(query)
        if query.op != "~":
            raise ValueError(
                f"QBIC subsystem {self.name!r} evaluates graded matches "
                f"('~') only; got op {query.op!r}"
            )

    def _scores(self, query: AtomicQuery) -> list[float]:
        """Every object's grade under a checked ``query``, aligned with
        its feature's population order."""
        feature = query.attribute
        target_vec = self._resolve_target(feature, query.target)
        table = self._features[feature]
        population = self._populations[feature]
        if self._scoring.get(feature, "gaussian") == "histogram":
            return [
                histogram_intersection(table[obj], target_vec)
                for obj in population
            ]
        bw = self._bandwidth(feature)
        columns = self._columns[feature]
        if columns is None:
            return [
                gaussian_similarity(table[obj], target_vec, bw)
                for obj in population
            ]
        return _gaussian_scores(columns, target_vec, bw)

    def evaluate(self, query: AtomicQuery) -> SortedRandomSource:
        self._check_query(query)
        return self.ranking_cache.source(
            f"{self.name}:{query.attribute}~{query.target!r}",
            query,
            lambda: self._scores(query),
            self._populations[query.attribute],
        )

    def evaluate_conjunction(
        self, queries: Sequence[AtomicQuery]
    ) -> SortedRandomSource:
        """Internal conjunction under QBIC-style *averaging* semantics.

        Section 8: "Assume, as is the case currently, that QBIC has a
        different semantics for conjunction than Garlic." Real image
        engines combine feature scores by (weighted) averaging rather
        than min; we average the per-query similarities. The executor
        exposes both modes so their answers can be compared.
        """
        if len(queries) < 2:
            raise SubsystemCapabilityError(
                "internal conjunction needs at least two atomic queries"
            )
        tables = []
        for q in queries:
            self._check_query(q)
            tables.append(
                dict(zip(self._populations[q.attribute], self._scores(q)))
            )
        grades = {
            obj: sum(t[obj] for t in tables) / len(tables)
            for obj in self._objects
        }
        label = " & ".join(f"{q.attribute}~{q.target!r}" for q in queries)
        return MaterializedSource(f"{self.name}:internal({label})", grades)
