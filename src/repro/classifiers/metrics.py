"""Classification quality metrics (paper Sections 3.2.2 and 5).

``ClusteredViewGen`` assesses a classifier "as the combined, micro-averaged,
precision and recall ... according to the standard Fβ function with β = 1".
For single-label classification micro-averaged precision equals
micro-averaged recall equals accuracy, but we keep the full confusion matrix
because the early-disjunct algorithm (Section 3.3) consumes the *error
pairs* ``(v, v')`` weighted by label frequencies.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Hashable, Iterator

from .base import label_key

__all__ = ["ConfusionMatrix", "normalized_error_pairs", "top_error_pair"]


@dataclasses.dataclass
class ConfusionMatrix:
    """Counts of (true label, predicted label) over a test set."""

    counts: Counter = dataclasses.field(default_factory=Counter)

    def record(self, truth: Hashable, predicted: Hashable) -> None:
        self.counts[(truth, predicted)] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def correct(self) -> int:
        return sum(n for (t, p), n in self.counts.items() if t == p)

    @property
    def accuracy(self) -> float:
        return self.correct / self.total if self.total else 0.0

    def true_label_counts(self) -> Counter:
        counts: Counter = Counter()
        for (truth, _), n in self.counts.items():
            counts[truth] += n
        return counts

    def predicted_label_counts(self) -> Counter:
        counts: Counter = Counter()
        for (_, predicted), n in self.counts.items():
            counts[predicted] += n
        return counts

    def errors(self) -> Counter:
        """Counter of directed error pairs (truth, predicted), truth != pred."""
        return Counter({pair: n for pair, n in self.counts.items()
                        if pair[0] != pair[1]})


def _normalized_counts(matrix: ConfusionMatrix) -> Iterator[tuple[frozenset, float]]:
    """(undirected error pair, count / combined label frequency), in the
    order the pairs first occur among the matrix's errors."""
    truth_counts = matrix.true_label_counts()
    undirected: Counter = Counter()
    for (truth, predicted), n in matrix.errors().items():
        if predicted is None:
            continue
        undirected[frozenset((truth, predicted))] += n
    for pair, n in undirected.items():
        if len(pair) != 2:
            continue  # self-confusion artifacts cannot be merged
        freq = sum(truth_counts.get(label, 0) for label in pair)
        if freq == 0:
            continue
        yield pair, n / freq


def _rank_key(item: tuple[frozenset, float]) -> tuple:
    return (-item[1], sorted(map(label_key, item[0])))


def normalized_error_pairs(matrix: ConfusionMatrix) -> list[tuple[frozenset, float]]:
    """Undirected error pairs ranked for the early-disjunct merge step.

    "False positives and false negatives are not distinguished, so (v', v)
    is grouped together with (v, v')...  we simply note the pair (v, v')
    that appears most often as an error during testing (after normalizing
    for the frequency of v and v')" (Section 3.3).  The normalizer is the
    combined frequency of the two labels in the test set.  Ties go to the
    pair whose sorted label keys
    (:func:`~repro.classifiers.base.label_key`) are smaller, then to the
    pair seen first.
    """
    return sorted(_normalized_counts(matrix), key=_rank_key)


def top_error_pair(matrix: ConfusionMatrix) -> frozenset | None:
    """The first pair of :func:`normalized_error_pairs`, or None when it
    is empty — in one pass, building the label tie key only for the
    pairs that tie at the best normalized count."""
    best = -1.0
    tied: list[tuple[frozenset, float]] = []
    for item in _normalized_counts(matrix):
        if item[1] > best:
            best = item[1]
            tied = [item]
        elif item[1] == best:
            tied.append(item)
    if len(tied) > 1:
        return min(tied, key=_rank_key)[0]  # first of equal keys, as sort
    return tied[0][0] if tied else None
