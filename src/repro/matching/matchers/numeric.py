"""Numeric-distribution instance matcher.

Summarizes a numeric column into distribution statistics (mean, standard
deviation, quartiles, range) and scores the similarity of two summaries.
This is the "statistical classifier" evidence the paper uses for numeric
attributes, adapted to pairwise matching: two columns drawn from similar
distributions (e.g. ``price`` vs ``price``) score high even when no exact
values coincide.

Only numeric columns are summarized: :meth:`NumericMatcher.applicable`
requires a numeric dtype on both sides, so a text column's summary would
never be read.  A summary covers the finite values only, and a sample
whose statistics overflow a float (values near 1e308) has none, so a
score is always finite.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Sequence

import numpy as np

from .base import AttributeSample, Matcher

__all__ = ["NumericMatcher", "NumericSummary"]


@dataclasses.dataclass(frozen=True)
class NumericSummary:
    """Distribution statistics for a numeric sample."""

    count: int
    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values: Sequence[Any]) -> "NumericSummary | None":
        """The summary of the finite numbers among *values*; None when
        there are none, or when a statistic of them overflows."""
        try:
            arr = np.fromiter(map(float, values), dtype=float,
                              count=len(values))
        except (TypeError, ValueError, OverflowError):
            arr = np.asarray(_floats(values), dtype=float)
        arr = arr[np.isfinite(arr)]
        if not len(arr):
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            q1, median, q3 = map(float, np.percentile(arr, [25, 50, 75]))
            mean, std = float(arr.mean()), float(arr.std())
        if not all(map(math.isfinite, (mean, std, q1, median, q3))):
            return None
        return cls(count=len(arr), mean=mean, std=std,
                   minimum=float(arr.min()), q1=q1, median=median, q3=q3,
                   maximum=float(arr.max()))


def _floats(values: Sequence[Any]) -> list[float]:
    """``float(v)`` of each of *values* that converts."""
    numbers = []
    for v in values:
        try:
            numbers.append(float(v))
        except (TypeError, ValueError, OverflowError):
            continue
    return numbers


def _location_similarity(a: float, b: float, scale: float) -> float:
    """exp(-|a-b|/scale): 1 when equal, decaying with separation."""
    if scale <= 0.0:
        return 1.0 if a == b else 0.0
    return math.exp(-abs(a - b) / scale)


def _range_overlap(s: NumericSummary, t: NumericSummary) -> float:
    """Overlap of [min,max] intervals relative to their union."""
    lo = max(s.minimum, t.minimum)
    hi = min(s.maximum, t.maximum)
    union_lo = min(s.minimum, t.minimum)
    union_hi = max(s.maximum, t.maximum)
    if union_hi == union_lo:
        return 1.0 if hi >= lo else 0.0
    return max(0.0, hi - lo) / (union_hi - union_lo)


class NumericMatcher(Matcher):
    """Similarity of numeric columns from their distribution summaries."""

    name = "numeric"

    def __init__(self, *, weight: float = 1.0):
        self.weight = weight

    def applicable(self, source: AttributeSample, target: AttributeSample) -> bool:
        return self.applicable_many(source, (target,))[0]

    def applicable_many(self, source: AttributeSample,
                        targets: Sequence[AttributeSample]) -> list[bool]:
        if not (source.attribute.dtype.is_numeric and len(source) > 0):
            return [False] * len(targets)
        return [t.attribute.dtype.is_numeric and len(t) > 0 for t in targets]

    def profile(self, sample: AttributeSample) -> NumericSummary | None:
        if not sample.attribute.dtype.is_numeric:
            return None  # never read: applicable() needs numeric dtypes
        return NumericSummary.from_values(sample.values)

    def score_profiles(self, source: NumericSummary | None,
                       target: NumericSummary | None) -> float:
        if source is None or target is None:
            return 0.0
        # Scale for location comparison: pooled spread, falling back to the
        # magnitude of the means so constant columns still compare sensibly.
        scale = max(source.std, target.std)
        if scale == 0.0:
            scale = max(abs(source.mean), abs(target.mean), 1.0) * 0.1
        mean_sim = _location_similarity(source.mean, target.mean, scale)
        median_sim = _location_similarity(source.median, target.median, scale)
        iqr_s = source.q3 - source.q1
        iqr_t = target.q3 - target.q1
        iqr_scale = max(iqr_s, iqr_t)
        spread_sim = (_location_similarity(iqr_s, iqr_t, iqr_scale)
                      if iqr_scale > 0 else 1.0)
        range_sim = _range_overlap(source, target)
        return 0.35 * mean_sim + 0.25 * median_sim + 0.15 * spread_sim + 0.25 * range_sim
