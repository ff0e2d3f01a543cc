"""Per-type target-column classifiers (paper Figure 7, ``TgtClassInfer``).

``createTargetClassifier(D, RT)`` (:meth:`TargetClassifierSet.train`)
builds one classifier per basic domain D
trained on every compatible target column: each value of ``RT.a`` is taught
with the label ``"RT.a"``.  Applied to a source value, the classifier
guesses which target column the value "should appear in" — the tag that
``TgtClassInfer`` then correlates with the source's categorical attributes.

Tagging is the hottest classifier loop of a ``tgt``-inference run (every
sampled source value is scored against every compatible target column), so
the set exposes :meth:`TargetClassifierSet.classify_many`, which routes
whole columns through the family classifier's batch path — distinct values
are tagged once and the Naive Bayes family classifier answers from its
compiled log-probability matrix.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..relational.instance import Database
from ..relational.schema import AttributeRef
from ..relational.types import DataType, is_missing
from ..sampling import systematic_thin
from .base import Classifier
from .naive_bayes import NaiveBayesClassifier
from .numeric import GaussianClassifier

__all__ = ["TargetClassifierSet"]


def _new_classifier(family: str) -> Classifier:
    if family == "numeric":
        return GaussianClassifier()
    return NaiveBayesClassifier(q=3)


class TargetClassifierSet:
    """One classifier per domain family, trained on the target schema.

    Labels are qualified column tags (``"book.title"``); lookups route a
    value to the family classifier matching the *source* attribute's type,
    exactly as the per-domain classifiers C_D^T of Figure 7.
    """

    def __init__(self, classifiers: dict[str, Classifier]):
        self._classifiers = classifiers

    @classmethod
    def train(cls, target: Database,
              *, sample_limit: int | None = None) -> "TargetClassifierSet":
        """Train family classifiers on every column of *target*.

        ``sample_limit`` caps training values per column (deterministic
        thinning) to keep repeated experiment sweeps fast.
        """
        classifiers: dict[str, Classifier] = {}
        for relation in target:
            for attribute in relation.schema:
                family = attribute.dtype.family
                classifier = classifiers.get(family)
                if classifier is None:
                    classifier = _new_classifier(family)
                    classifiers[family] = classifier
                tag = str(AttributeRef(relation.name, attribute.name))
                values = relation.non_missing(attribute.name)
                if sample_limit is not None:
                    values = systematic_thin(values, sample_limit)
                classifier.teach_many(values, [tag] * len(values))
        return cls(classifiers)

    def families(self) -> frozenset[str]:
        return frozenset(self._classifiers)

    def classifier_for(self, dtype: DataType) -> Classifier | None:
        return self._classifiers.get(dtype.family)

    def classify(self, value: Any, dtype: DataType) -> str | None:
        """Tag a source value with the most similar target column."""
        if is_missing(value):
            return None
        classifier = self.classifier_for(dtype)
        if classifier is None:
            return None
        tag = classifier.classify(value)
        return None if tag is None else str(tag)

    def classify_many(self, values: Sequence[Any],
                      dtype: DataType) -> list[str | None]:
        """Batch-tag a column of source values (in input order).

        Identical to per-value :meth:`classify` calls, but missing values
        are skipped up front and the rest go through the family
        classifier's vectorized :meth:`~Classifier.classify_many`.
        """
        classifier = self.classifier_for(dtype)
        if classifier is None:
            return [None] * len(values)
        present = [i for i, value in enumerate(values)
                   if not is_missing(value)]
        tags: list[str | None] = [None] * len(values)
        if not present:
            return tags
        predicted = classifier.classify_many([values[i] for i in present])
        for i, tag in zip(present, predicted):
            tags[i] = None if tag is None else str(tag)
        return tags

