"""The naive baseline classifier ``CNaive`` (Section 3.2.2).

Always predicts the most common training label v*, regardless of input.
The significance test compares a candidate classifier against the binomial
distribution of CNaive's correct-classification count under the null
hypothesis of no correlation.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Hashable

from .base import Classifier, label_key

__all__ = ["MajorityClassifier"]


class MajorityClassifier(Classifier):
    """Predicts the most frequent label seen in training."""

    def __init__(self):
        self._label_counts: Counter = Counter()

    def teach(self, value: Any, label: Hashable) -> None:
        self._label_counts[label] += 1

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
