"""Exact value-overlap instance matcher.

Measures Jaccard overlap between the *distinct value sets* of the two
attributes.  Strong evidence for code-like columns (formats, labels,
identifiers) where whole values recur across schemas; weak (correctly) for
free text.  Applicable to every type.

A target block is the index's value sets as 0/1
:class:`~repro.matching.similarity.TermRows`, so the value sets of an
attribute's views are scored against a frontier by
:func:`~repro.matching.similarity.jaccard_rows_many`.
"""

from __future__ import annotations

from typing import Sequence

from ..similarity import TermRows, jaccard, jaccard_rows_many
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
        return self.applicable_many(source, (target,))[0]

    def applicable_many(self, source: AttributeSample,
                        targets: Sequence[AttributeSample]) -> list[bool]:
        if not len(source) > 0:
            return [False] * len(targets)
        return [len(t) > 0 for t in targets]

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
        return self.score_views([source], block, positions)[0]

    def score_views(self, sources: Sequence[frozenset], block: TermRows,
                    positions: Sequence[int]) -> list[list[float]]:
        scores = [[0.0] * len(positions) for _ in sources]
        live = [n for n, source in enumerate(sources) if source]
        if live and len(positions):
            # An empty target set scores 0.0 in jaccard_rows_many, as it
            # does in score_profiles.
            rows = jaccard_rows_many([sources[n] for n in live], block,
                                     positions)
            for n, row in zip(live, rows.tolist()):
                scores[n] = row
        return scores

    def merge_profiles(self, profiles) -> frozenset:
        return frozenset().union(*profiles)
