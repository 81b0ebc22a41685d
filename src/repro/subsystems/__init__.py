"""Simulated subsystems: the data servers Garlic federates.

Per the reproduction's substitution rule (see DESIGN.md), the
proprietary systems the paper ran on (QBIC, a relational DBMS, text
servers) are replaced by in-process simulations exposing exactly the
sorted/random access interface of Section 4 — the only surface the
algorithms under study ever touch.
"""

from repro.subsystems.base import (
    DEFAULT_RANKING_CACHE_CAPACITY,
    RankingCache,
    StreamOnlySubsystem,
    Subsystem,
)
from repro.subsystems.qbic import (
    QbicSubsystem,
    gaussian_similarity,
    histogram_intersection,
)
from repro.subsystems.relational import RelationalSubsystem
from repro.subsystems.synthetic import SyntheticSubsystem
from repro.subsystems.text import TextSubsystem, tokenize

__all__ = [
    "Subsystem",
    "StreamOnlySubsystem",
    "DEFAULT_RANKING_CACHE_CAPACITY",
    "RankingCache",
    "RelationalSubsystem",
    "QbicSubsystem",
    "gaussian_similarity",
    "histogram_intersection",
    "TextSubsystem",
    "tokenize",
    "SyntheticSubsystem",
]
