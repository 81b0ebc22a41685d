"""Top-k evaluation algorithms from Sections 4, 6, 7 and 9.

* :class:`~repro.algorithms.fa.FaginA0` — algorithm A0 (the paper's
  main contribution), correct for every monotone query and optimal for
  monotone-and-strict ones;
* :class:`~repro.algorithms.fa_min.FaginA0Min` — algorithm A0' for the
  standard min conjunction;
* :class:`~repro.algorithms.fa_variants.EarlyStopFagin` /
  :class:`~repro.algorithms.fa_variants.ShrunkenFagin` — Section 4's
  "minor improvements";
* :class:`~repro.algorithms.disjunction.DisjunctionB0` — algorithm B0
  for the standard max disjunction;
* :class:`~repro.algorithms.median.MedianTopK` — the Remark 6.1 median
  construction;
* :class:`~repro.algorithms.ullman.UllmanAlgorithm` — Section 9;
* :class:`~repro.algorithms.naive.NaiveAlgorithm` — the linear
  baseline (and the only fully-general algorithm);
* :class:`~repro.algorithms.threshold.ThresholdAlgorithm` — the TA
  extension from the paper's successor line (ablation E15);
* :mod:`~repro.algorithms.hard_query` — the Section 7 constructions.
"""

from repro.algorithms.base import TopKAlgorithm, TopKResult, is_valid_top_k
from repro.algorithms.disjunction import DisjunctionB0
from repro.algorithms.fa import FaginA0, IncrementalFagin, run_sorted_phase
from repro.algorithms.fa_min import FaginA0Min
from repro.algorithms.fa_variants import EarlyStopFagin, ShrunkenFagin
from repro.algorithms.hard_query import (
    SelfNegatedScan,
    hard_query_depth,
    self_negated_lists,
)
from repro.algorithms.median import MedianTopK, median_subset_size
from repro.algorithms.naive import NaiveAlgorithm
from repro.algorithms.nra import NoRandomAccessAlgorithm
from repro.algorithms.threshold import ThresholdAlgorithm
from repro.algorithms.ullman import UllmanAlgorithm

__all__ = [
    "TopKAlgorithm",
    "TopKResult",
    "is_valid_top_k",
    "FaginA0",
    "IncrementalFagin",
    "run_sorted_phase",
    "FaginA0Min",
    "EarlyStopFagin",
    "ShrunkenFagin",
    "DisjunctionB0",
    "MedianTopK",
    "median_subset_size",
    "UllmanAlgorithm",
    "NaiveAlgorithm",
    "NoRandomAccessAlgorithm",
    "ThresholdAlgorithm",
    "SelfNegatedScan",
    "hard_query_depth",
    "self_negated_lists",
]
