"""Classifier substrate for contextual candidate-view inference.

Implements the learners referenced in Sections 3.2.2-3.2.4: Naive Bayes on
3-grams, a Gaussian numeric classifier, the majority baseline ``CNaive``,
the per-type target classifiers of ``createTargetClassifier`` (Figure 7,
:meth:`TargetClassifierSet.train`), the confusion matrix whose error pairs
drive early disjuncts, and the binomial significance test.
"""

from .base import Classifier
from .majority import MajorityClassifier
from .metrics import ConfusionMatrix, normalized_error_pairs, top_error_pair
from .naive_bayes import NaiveBayesClassifier
from .numeric import GaussianClassifier
from .significance import (DEFAULT_THRESHOLD, SignificanceResult,
                           classifier_significance)
from .target import TargetClassifierSet

__all__ = [
    "Classifier",
    "NaiveBayesClassifier",
    "GaussianClassifier",
    "MajorityClassifier",
    "TargetClassifierSet",
    "ConfusionMatrix",
    "normalized_error_pairs",
    "top_error_pair",
    "SignificanceResult",
    "classifier_significance",
    "DEFAULT_THRESHOLD",
]
