"""Type-compatibility matcher.

A weak, always-applicable signal: identical declared types score 1, types in
the same family (int/real, string/text) score high, and incompatible types
score 0.  Its role is to damp cross-family matches the instance matchers
abstain on, mirroring the "similarity of schema and metadata information"
evidence of Section 1.
"""

from __future__ import annotations

from ...relational.types import DataType
from .base import AttributeSample, Matcher

__all__ = ["TypeMatcher"]


class TypeMatcher(Matcher):
    """Declared-type compatibility score."""

    name = "type"
    #: The profile depends only on the declared type, which every cell of a
    #: partitioned attribute shares — any member profile is the union's.
    mergeable = True
    #: ... and no view of the attribute changes it.
    view_invariant = True

    def __init__(self, *, weight: float = 0.5):
        self.weight = weight

    def profile(self, sample: AttributeSample) -> DataType:
        return sample.attribute.dtype

    def merge_profiles(self, profiles) -> DataType:
        return next(iter(profiles))

    def score_profiles(self, source: DataType, target: DataType) -> float:
        if source is target:
            return 1.0
        if source.compatible_with(target):
            return 0.75
        return 0.0
