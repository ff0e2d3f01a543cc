"""The per-family retraining path of candidate-view inference, kept as
the reference.

:class:`~repro.context.candidates.FamilyAssessor` teaches one classifier
per (h, l) pair and walks the early-disjunct merge loop on integer group
codes.  This module keeps Figure 6's literal procedure, so the tests can
pin the coded loop against it:

* :func:`assess_family` re-teaches a fresh classifier with a family's
  group labels (``doTraining``), classifies the test values one by one
  (``doTesting``) and tests the correct count against ``CNaive``'s
  binomial null;
* :func:`reference_families` runs the loop of Section 3.3 over
  :class:`~repro.relational.views.ViewFamily` objects: it merges the pair
  :func:`~repro.classifiers.metrics.top_error_pair` picks from the
  confusion matrix with :meth:`ViewFamily.merge` and re-assesses.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

from repro.classifiers.base import Classifier
from repro.classifiers.majority import MajorityClassifier
from repro.classifiers.metrics import (ConfusionMatrix, evaluate_classifier,
                                       top_error_pair)
from repro.classifiers.significance import classifier_significance
from repro.relational.views import ViewFamily


@dataclasses.dataclass(frozen=True)
class Assessment:
    """Outcome of scoring one family by retraining."""

    matrix: ConfusionMatrix
    confidence: float

    def significant(self, threshold: float) -> bool:
        return self.confidence > threshold


def assess_family(family: ViewFamily, classifier: Classifier,
                  train_pairs: Sequence[tuple[Any, Any]],
                  test_pairs: Sequence[tuple[Any, Any]]) -> Assessment:
    """``doTraining`` + ``doTesting`` + score significance for one family.

    Labels are the family's groups (merged tokens after disjunct merging):
    the classifier is trained on ``h-value -> group(l-value)`` and its
    correct-classification count is compared against the binomial null of
    the majority baseline ``CNaive``.
    """
    naive = MajorityClassifier()
    for value, label in train_pairs:
        group = family.group_label(label)
        classifier.teach(value, group)
        naive.teach(value, group)
    matrix = evaluate_classifier(
        classifier,
        ((value, family.group_label(label)) for value, label in test_pairs))
    significance = classifier_significance(
        matrix.correct, matrix.total, naive.majority_fraction)
    return Assessment(matrix, significance.confidence)


def reference_families(family: ViewFamily,
                       assess: Callable[[ViewFamily, bool], Assessment],
                       *, threshold: float, early_disjuncts: bool
                       ) -> list[tuple[ViewFamily, float]]:
    """The base family if significant, then the significant families of
    the early-disjunct loop; ``assess(family, merged)`` scores one."""
    result = assess(family, False)
    found = []
    if result.significant(threshold):
        found.append((family, result.confidence))
    current = family
    while early_disjuncts and len(current.groups) > 1:
        pair = top_error_pair(result.matrix)
        if pair is None:
            break
        group_a, group_b = tuple(pair)
        current = current.merge(next(iter(group_a)), next(iter(group_b)))
        result = assess(current, True)
        if len(current.groups) > 1 and result.significant(threshold):
            found.append((ViewFamily(current.table, current.attribute,
                                     current.groups,
                                     quality=result.confidence),
                          result.confidence))
    return found
