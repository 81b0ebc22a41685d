"""Correlated workloads (Section 7's motivating question).

    "What if the conjuncts are not independent? … If the conjuncts are
    positively correlated, this can only help the efficiency. What if
    the conjuncts are negatively correlated? In this section, we
    consider the extreme case of negative correlation between queries,
    by considering queries Q AND NOT Q."

This module generates scoring databases whose lists have a tunable
rank correlation via a Gaussian copula (equicorrelated latent
normals), spanning the whole spectrum from perfectly anti-correlated
(rho -> -1, for two lists: the reversed-permutation hard-query regime)
through independent (rho = 0, recovering the Section 5 model) to
perfectly aligned (rho -> 1, where A0's match depth collapses to k).
Experiment E10 sweeps rho; the hard-query database of Section 7 is the
deterministic endpoint, built by :func:`hard_query_database`.
"""

from __future__ import annotations

import random

import numpy as np

from repro.access.scoring_database import ScoringDatabase, Skeleton
from repro.algorithms.hard_query import self_negated_lists
from repro.workloads.distributions import GradeDistribution, Uniform
from repro.workloads.skeletons import grades_for_skeleton

__all__ = [
    "min_equicorrelation",
    "correlated_skeleton",
    "correlated_database",
    "hard_query_database",
    "spearman_rho",
]


def min_equicorrelation(num_lists: int) -> float:
    """The smallest valid equicorrelation for m lists: -1/(m-1).

    An m x m correlation matrix with constant off-diagonal rho is
    positive semidefinite iff rho >= -1/(m-1); for m = 2 the full range
    down to -1 is available.
    """
    if num_lists < 2:
        raise ValueError(f"correlation needs at least 2 lists, got {num_lists}")
    return -1.0 / (num_lists - 1)


def correlated_skeleton(
    num_lists: int,
    num_objects: int,
    rho: float,
    seed: int | random.Random,
) -> Skeleton:
    """A skeleton whose lists have (Gaussian-copula) rank correlation rho.

    Each object gets an m-vector of equicorrelated standard normals;
    list i's permutation sorts objects by their i-th coordinate,
    descending. rho = 0 gives independent uniform permutations (the
    Section 5 model); rho -> 1 gives identical permutations; for m = 2,
    rho -> -1 gives exactly reversed permutations.
    """
    lo = min_equicorrelation(num_lists)
    if not lo <= rho <= 1.0:
        raise ValueError(
            f"rho={rho} outside the valid range [{lo:.4f}, 1] for "
            f"{num_lists} lists"
        )
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    cov = np.full((num_lists, num_lists), rho)
    np.fill_diagonal(cov, 1.0)
    # Degenerate endpoints make the covariance singular; multivariate
    # sampling handles PSD matrices via eigen decomposition.
    latent = np_rng.multivariate_normal(
        mean=np.zeros(num_lists), cov=cov, size=num_objects, method="eigh"
    )
    # Deterministic jitter-free ordering: break exact ties (possible at
    # rho = ±1) by object id for reproducibility.
    objects = np.arange(1, num_objects + 1)
    perms = []
    for i in range(num_lists):
        order = np.lexsort((objects, -latent[:, i]))
        perms.append(tuple(int(objects[j]) for j in order))
    return Skeleton(tuple(perms))


def correlated_database(
    num_lists: int,
    num_objects: int,
    rho: float,
    seed: int | random.Random,
    distribution: GradeDistribution | None = None,
) -> ScoringDatabase:
    """A scoring database with rank-correlated lists and iid grade marginals."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    skeleton = correlated_skeleton(num_lists, num_objects, rho, rng)
    rows = grades_for_skeleton(skeleton, rng, distribution or Uniform())
    return ScoringDatabase.from_skeleton(skeleton, rows)


def hard_query_database(
    num_objects: int, seed: int | random.Random
) -> ScoringDatabase:
    """The Section 7 database: list 1 = Q (fully fuzzy), list 2 = NOT Q.

    The second list's sorted order is exactly the reverse of the
    first's — the deterministic extreme the copula approaches as
    rho -> -1 for two lists.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    q, not_q = self_negated_lists(num_objects, rng)
    return ScoringDatabase([q, not_q])


def spearman_rho(skeleton: Skeleton, i: int = 0, j: int = 1) -> float:
    """The realised Spearman rank correlation between two lists.

    Used by tests and by experiment E10's tables to report the
    *achieved* correlation next to the requested copula parameter.
    """
    rank_i = {obj: r for r, obj in enumerate(skeleton.permutations[i])}
    rank_j = {obj: r for r, obj in enumerate(skeleton.permutations[j])}
    objects = list(skeleton.objects)
    xs = np.array([rank_i[o] for o in objects], dtype=float)
    ys = np.array([rank_j[o] for o in objects], dtype=float)
    xs -= xs.mean()
    ys -= ys.mean()
    denom = float(np.sqrt((xs**2).sum() * (ys**2).sum()))
    if denom == 0.0:
        return 0.0
    return float((xs * ys).sum() / denom)
