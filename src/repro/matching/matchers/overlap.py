"""Exact value-overlap instance matcher.

Measures Jaccard overlap between the *distinct value sets* of the two
attributes.  Strong evidence for code-like columns (formats, labels,
identifiers) where whole values recur across schemas; weak (correctly) for
free text.  Applicable to every type.

A target block is the index's value sets as 0/1
:class:`~repro.matching.similarity.TermRows`, so one source set is scored
against every target by :func:`~repro.matching.similarity.jaccard_rows`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..similarity import TermRows, jaccard, jaccard_rows
from ..tokens import value_to_text
from .base import AttributeSample, Matcher

__all__ = ["ValueOverlapMatcher"]


class ValueOverlapMatcher(Matcher):
    """Jaccard similarity of normalized distinct value sets."""

    name = "overlap"
    #: Distinct-value sets are additive over disjoint bags by union.
    mergeable = True

    def __init__(self, *, weight: float = 1.0):
        self.weight = weight

    def applicable(self, source: AttributeSample, target: AttributeSample) -> bool:
        return len(source) > 0 and len(target) > 0

    def profile(self, sample: AttributeSample) -> frozenset[str]:
        return frozenset(value_to_text(v).lower() for v in sample.values)

    def score_profiles(self, source: frozenset, target: frozenset) -> float:
        if not source or not target:
            return 0.0
        return jaccard(source, target)

    def target_block(self, profiles: Sequence[frozenset]) -> TermRows:
        return TermRows.from_sets(profiles)

    def score_block(self, source: frozenset, block: TermRows,
                    positions: Sequence[int]) -> list[float]:
        if not source or not positions:
            return [0.0] * len(positions)
        # An empty target set scores 0.0 in jaccard_rows, as it does here.
        scores = jaccard_rows(source, block)
        return scores[np.asarray(positions, dtype=np.intp)].tolist()

    def merge_profiles(self, profiles) -> frozenset:
        return frozenset().union(*profiles)
