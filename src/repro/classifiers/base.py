"""Classifier interface used by ``ClusteredViewGen`` (paper Figure 6).

A classifier learns a mapping from data values ("documents") to labels —
either categorical-attribute values (``SrcClassInfer``) or target-column
tags (``TgtClassInfer``).  Training is incremental (``teach``), mirroring
the paper's ``C.teach(t.a, "RT.a")`` phrasing in Figure 7.

Batch-first core
----------------
Candidate-view inference classifies whole columns, not single values, so
the interface is batch-first as well: :meth:`Classifier.teach_many` and
:meth:`Classifier.classify_many` take parallel sequences and default to
the scalar loop, while vectorized classifiers
(:class:`~repro.classifiers.naive_bayes.NaiveBayesClassifier`,
:class:`~repro.classifiers.numeric.GaussianClassifier`) override them with
compiled fast paths that produce bit-identical labels.

Merged label groups
-------------------
The early-disjunct loop (Section 3.3) assesses the same taught examples
under coarser and coarser groupings of their labels.  A classifier whose
training state is per-label sufficient statistics answers that through
:meth:`Classifier.group_scorer`: bound to one batch of values, the
returned :class:`GroupScorer` computes one *group's* column — its score
for each value, plus its training count — from the summed statistics of
the group's member labels, exactly as a classifier taught with the group
label would score them.  Merging two groups changes only the merged
group's column, so a merge step costs one column instead of a retrain;
:meth:`GroupScorer.columns` scores a base family's groups in one call.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Hashable, Sequence

import numpy as np

__all__ = ["Classifier", "GroupColumn", "GroupScorer", "label_key"]


def label_key(label: Any) -> str:
    """The tie-break key of a label: its ``repr``, except that a
    frozenset — a merged label group of the early-disjunct loop — lists
    its members sorted by their own keys.  A frozenset's ``repr`` lists
    them in iteration order, which for strings follows the process's
    string hash seed, so ties decided on it would differ from process to
    process."""
    if isinstance(label, frozenset) and label:
        members = ", ".join(sorted(label_key(member) for member in label))
        return f"{type(label).__name__}({{{members}}})"
    return repr(label)


def value_key(value: Any) -> tuple | None:
    """Memo key of *value* for per-distinct-value work: its concrete class
    and itself, so 1 / 1.0 / True stay distinct; None when unhashable."""
    try:
        key = (value.__class__, value)
        hash(key)
    except TypeError:
        return None
    return key


@dataclasses.dataclass(frozen=True)
class GroupColumn:
    """One label group's column of a :class:`GroupScorer`.

    ``scores`` holds the group's score for every scorer row (posterior,
    or whatever the classifier maximizes).  ``count`` is the group's
    training count, the first tie-break after the score.  Remaining ties
    go to the larger :func:`label_key` of the group label, then to the
    group first in label order; ``order`` overrides that label order per
    row (lower first) for classifiers whose candidate order depends on
    the value.
    """

    scores: np.ndarray
    count: int
    order: np.ndarray | None = None


class GroupScorer(abc.ABC):
    """Scores of label groups over one fixed batch of values.

    ``labels`` are the taught labels in label order (first taught first);
    the groups a classifier can predict are those holding at least one of
    them, and they are scanned in the order of their first member.
    ``rows[i]`` is the score row the batch's *i*-th value reads — values
    that must score alike (repeats, unparseable input) share a row.
    """

    labels: tuple[Hashable, ...]
    rows: np.ndarray

    @abc.abstractmethod
    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        """The column of the group made of *members* (taught labels, in
        label order): what a classifier taught every member's examples
        under one group label would score, bit for bit."""

    def columns(self, groups: Sequence[Sequence[Hashable]]
                ) -> list[GroupColumn]:
        """:meth:`column` of each group in *groups*, in order — a base
        family's singletons in one call.  Scorers that can batch the
        work override this loop."""
        return [self.column(members) for members in groups]


class Classifier(abc.ABC):
    """Single-label classifier over data values."""

    @abc.abstractmethod
    def teach(self, value: Any, label: Hashable) -> None:
        """Add one training example (*value* belongs to *label*)."""

    @abc.abstractmethod
    def classify(self, value: Any) -> Hashable | None:
        """Predict the label of *value*; None when untrained."""

    def teach_many(self, values: Sequence[Any],
                   labels: Sequence[Hashable]) -> None:
        """Add a batch of training examples (parallel sequences).

        Equivalent to calling :meth:`teach` pairwise; batch classifiers
        override this to amortize per-call bookkeeping (e.g. invalidating
        a compiled representation once instead of per example).
        """
        if len(values) != len(labels):
            raise ValueError(
                f"teach_many needs parallel sequences, got {len(values)} "
                f"values vs {len(labels)} labels")
        for value, label in zip(values, labels):
            self.teach(value, label)

    def classify_many(self, values: Sequence[Any]) -> list[Hashable | None]:
        """Predict labels for a batch of values, in input order.

        Must return exactly what per-value :meth:`classify` calls would —
        vectorized overrides trade the scalar loop for compiled inference
        and distinct-value memoization, never for different answers.
        """
        return [self.classify(value) for value in values]

    def group_scorer(self, values: Sequence[Any]) -> GroupScorer:
        """A :class:`GroupScorer` over *values* for this classifier's
        taught statistics.  Classifiers that cannot derive a label group's
        scores from their per-label statistics raise ``TypeError``."""
        raise TypeError(
            f"{type(self).__name__} cannot score merged label groups")

    @property
    @abc.abstractmethod
    def labels(self) -> frozenset[Hashable]:
        """The set of labels seen during training."""
