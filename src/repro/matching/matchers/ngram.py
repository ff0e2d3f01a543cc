"""Instance matcher over character q-grams.

The workhorse instance-based matcher: the bag of values of each attribute is
rendered to text, decomposed into 3-grams (the granularity the paper uses
for its Naive Bayes classifier) and compared with TF cosine similarity,
which is robust to differing sample sizes.  Applicable to textual attributes.

A profile is a :class:`~repro.matching.grams.GramBag` — distinct integer
gram codes and their counts — counted from the values' cached code arrays.
The views of a block are counted together
(:func:`~repro.matching.grams.count_many`), cell bags merge by one
concatenation and one sort, and a target block is the index's bags as CSR
:class:`~repro.matching.similarity.TermRows`, so the profiles of an
attribute's views are scored against a frontier by
:func:`~repro.matching.similarity.cosine_rows_many` with exact integer dot
products and norms.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import grams
from ..grams import GramBag
from ..similarity import TermRows, cosine_rows_many
from ..tokens import cached_codes_many
from .base import AttributeSample, Matcher

__all__ = ["QGramMatcher"]


class QGramMatcher(Matcher):
    """TF-cosine over character q-grams of instance values.

    ``q`` must lie in [1, :data:`~repro.matching.grams.MAX_Q`], the range
    where gram codes are exact.
    """

    name = "qgram"
    #: Gram counts are additive over disjoint value bags, and the cosine
    #: score is exact integer arithmetic under the square roots — summing
    #: cell bags reproduces the union profile bit-identically.
    mergeable = True

    def __init__(self, *, q: int = 3, weight: float = 1.0):
        grams.check_q(q)
        self.q = q
        self.weight = weight

    def applicable(self, source: AttributeSample, target: AttributeSample) -> bool:
        return self.applicable_many(source, (target,))[0]

    def applicable_many(self, source: AttributeSample,
                        targets: Sequence[AttributeSample]) -> list[bool]:
        if not (source.attribute.dtype.is_textual and len(source) > 0):
            return [False] * len(targets)
        return [t.attribute.dtype.is_textual and len(t) > 0 for t in targets]

    def profile(self, sample: AttributeSample) -> GramBag:
        return self.profile_many([sample])[0]

    def profile_many(self, samples: Sequence[AttributeSample]
                     ) -> list[GramBag]:
        # One cache lookup per value, as profiling each sample would.
        codes = cached_codes_many(
            [value for sample in samples for value in sample.values], self.q)
        return grams.count_many(codes, [len(sample) for sample in samples],
                                self.q)

    def score_profiles(self, source: GramBag, target: GramBag) -> float:
        if not source or not target:
            return 0.0
        _, at_source, at_target = np.intersect1d(
            source.codes, target.codes, assume_unique=True,
            return_indices=True)
        dot = int(source.counts[at_source].astype(np.int64)
                  @ target.counts[at_target].astype(np.int64))
        norms = [math.sqrt(int(np.dot(bag.counts.astype(np.int64),
                                      bag.counts.astype(np.int64))))
                 for bag in (source, target)]
        return dot / (norms[0] * norms[1])

    def target_block(self, profiles: Sequence[GramBag]) -> TermRows:
        return grams.bag_rows(profiles)

    def score_block(self, source: GramBag, block: TermRows,
                    positions: Sequence[int]) -> list[float]:
        return self.score_views([source], block, positions)[0]

    def score_views(self, sources: Sequence[GramBag], block: TermRows,
                    positions: Sequence[int]) -> list[list[float]]:
        scores = [[0.0] * len(positions) for _ in sources]
        live = [n for n, source in enumerate(sources) if source]
        if live and len(positions):
            # An empty target row scores 0.0 in cosine_rows_many, as it
            # does in score_profiles.
            rows = cosine_rows_many(
                [(sources[n].codes, sources[n].counts) for n in live],
                block, positions)
            for n, row in zip(live, rows.tolist()):
                scores[n] = row
        return scores

    def merge_profiles(self, profiles: Sequence[GramBag]) -> GramBag:
        return grams.merge(profiles)
