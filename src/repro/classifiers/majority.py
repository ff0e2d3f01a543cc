"""The naive baseline classifier ``CNaive`` (Section 3.2.2).

Always predicts the most common training label v*, regardless of input.
The significance test compares a candidate classifier against the binomial
distribution of CNaive's correct-classification count under the null
hypothesis of no correlation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable, Sequence

import numpy as np

from .base import Classifier, GroupColumn, GroupScorer, label_key

__all__ = ["MajorityClassifier"]


class _MajorityGroupScorer(GroupScorer):
    """Every value shares one row scored 0.0 by every group, so the tie
    rule alone — count, then :func:`~repro.classifiers.base.label_key`,
    then label order — picks the majority group; a group's count is its
    members' counts summed."""

    def __init__(self, label_counts: Counter, values: Sequence[Any]):
        self.labels = tuple(label_counts)
        self.rows = np.zeros(len(values), dtype=np.intp)
        self._counts = dict(label_counts)

    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        return GroupColumn(np.zeros(1),
                           sum(self._counts[label] for label in members))


class MajorityClassifier(Classifier):
    """Predicts the most frequent label seen in training."""

    def __init__(self):
        self._label_counts: Counter = Counter()

    def teach(self, value: Any, label: Hashable) -> None:
        self._label_counts[label] += 1

    def group_scorer(self, values: Sequence[Any]) -> GroupScorer:
        return _MajorityGroupScorer(self._label_counts, values)

    @property
    def labels(self) -> frozenset[Hashable]:
        return frozenset(self._label_counts)

    @property
    def majority_label(self) -> Hashable | None:
        if not self._label_counts:
            return None
        return max(self._label_counts,
                   key=lambda lab: (self._label_counts[lab], label_key(lab)))

    @property
    def majority_fraction(self) -> float:
        """|v*| / n_train — the binomial success probability p of the null
        hypothesis in the significance test."""
        total = sum(self._label_counts.values())
        if total == 0:
            return 0.0
        return self._label_counts[self.majority_label] / total

    def classify(self, value: Any) -> Hashable | None:
        return self.majority_label
