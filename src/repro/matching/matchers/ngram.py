"""Instance matcher over character q-grams.

The workhorse instance-based matcher: the bag of values of each attribute is
rendered to text, decomposed into 3-grams (the granularity the paper uses
for its Naive Bayes classifier) and compared with TF cosine similarity,
which is robust to differing sample sizes.  Applicable to textual attributes.

A target block is the index's gram Counters as
:class:`~repro.matching.similarity.TermRows`, so one source profile is
scored against every target by :func:`~repro.matching.similarity.cosine_rows`.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..similarity import TermRows, cosine_counts, cosine_rows
from ..tokens import cached_qgrams
from .base import AttributeSample, Matcher

__all__ = ["QGramMatcher"]


class QGramMatcher(Matcher):
    """TF-cosine over character q-grams of instance values."""

    name = "qgram"
    #: Gram counts are additive over disjoint value bags, and the cosine
    #: score is exact integer arithmetic under the square roots — summing
    #: cell Counters reproduces the union profile bit-identically.
    mergeable = True

    def __init__(self, *, q: int = 3, weight: float = 1.0):
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self.weight = weight

    def applicable(self, source: AttributeSample, target: AttributeSample) -> bool:
        return (source.attribute.dtype.is_textual
                and target.attribute.dtype.is_textual
                and len(source) > 0 and len(target) > 0)

    def profile(self, sample: AttributeSample) -> Counter:
        counts: Counter = Counter()
        for value in sample.values:
            counts.update(cached_qgrams(value, self.q))
        return counts

    def score_profiles(self, source: Counter, target: Counter) -> float:
        if not source or not target:
            return 0.0
        return cosine_counts(source, target)

    def target_block(self, profiles: Sequence[Counter]) -> TermRows:
        return TermRows(profiles)

    def score_block(self, source: Counter, block: TermRows,
                    positions: Sequence[int]) -> list[float]:
        if not source or not positions:
            return [0.0] * len(positions)
        # An empty target row scores 0.0 in cosine_rows, as it does here.
        scores = cosine_rows(source, block)
        return scores[np.asarray(positions, dtype=np.intp)].tolist()

    def merge_profiles(self, profiles) -> Counter:
        merged: Counter = Counter()
        for counts in profiles:
            merged.update(counts)
        return merged
