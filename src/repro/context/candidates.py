"""Candidate-view inference — ``InferCandidateViews`` (paper Section 3.2).

Three generators are provided:

* :class:`NaiveInfer` (Section 3.2.1) — every categorical attribute yields a
  view family with one view per value; under ``EarlyDisjuncts`` families for
  value partitionings are enumerated as well.
* :class:`SrcClassInfer` (Section 3.2.3) — a classifier trained on *source*
  values of each non-categorical attribute h predicts the categorical
  attribute l; families whose classifier beats the naive majority baseline
  significantly (Section 3.2.2) are returned.
* :class:`TgtClassInfer` (Section 3.2.4, Figure 7) — source values are first
  tagged with the most similar *target column* by per-type classifiers
  trained on the target schema; the tag-to-label association is then scored
  the same way.

The early-disjunct extension (Section 3.3) merges the most frequently
confused label pair, retrains, and keeps merged families that test as
well-clustered — producing views over disjunctive conditions
``l in {v1, ..., vk}``.

Batch inference
---------------
The ClusteredViewGen loop runs on a :class:`FamilyAssessor`: the
classifier is taught *once* per (h, l) attribute pair with the original
label values, and keeps one score matrix — distinct test value × family
group with training rows — whose columns come from the classifier's
:meth:`~repro.classifiers.base.Classifier.group_scorer` (a group's column
is computed from its member labels' summed statistics).  The base family
fills the matrix once; an early-disjunct merge changes only the merged
group's column, so a merge step computes that one column and re-takes the
argmax under the classifiers' exact tie rule.  Results are bit-identical
to re-teaching a fresh classifier per family (:func:`assess_family`), the
reference the tests compare against; :class:`InferenceStats` counts the
work for the engine's stage reports.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import Counter
from typing import Any, Callable, Hashable, Iterator, Sequence

import numpy as np

from ..classifiers.base import (Classifier, GroupColumn, GroupScorer,
                                label_key)
from ..classifiers.majority import MajorityClassifier
from ..classifiers.metrics import (ConfusionMatrix, evaluate_classifier,
                                   top_error_pair)
from ..classifiers.naive_bayes import NaiveBayesClassifier
from ..classifiers.numeric import GaussianClassifier
from ..classifiers.significance import classifier_significance
from ..classifiers.target import TargetClassifierSet
from ..matching.standard import AttributeMatch
from ..relational.instance import Database, Relation
from ..relational.types import DataType
from ..relational.views import ViewFamily
from ..sampling import systematic_thin
from .categorical import (CategoricalPolicy, categorical_attributes,
                          non_categorical_attributes)
from .model import ContextMatchConfig

__all__ = ["InferenceContext", "InferenceStats", "CandidateViewGenerator",
           "NaiveInfer", "SrcClassInfer", "TgtClassInfer", "FamilyAssessor",
           "make_generator", "set_partitions"]

#: NaiveInfer enumerates every partition of the value set only up to this
#: many values (Bell(6) = 203 partitions); beyond it, single-merge families
#: keep the candidate count polynomial.
MAX_EXACT_PARTITION_VALUES = 6


@dataclasses.dataclass
class InferenceStats:
    """Inference-side work counters for one run's stage reports.

    ``values_classified`` counts individual value classifications issued
    through the batch entry points, ``batch_calls`` the number of batched
    invocations carrying them, and ``merges_without_retrain`` the
    early-disjunct group merges assessed from the taught statistics
    instead of re-teaching a fresh classifier.
    """

    values_classified: int = 0
    batch_calls: int = 0
    merges_without_retrain: int = 0

    def as_counts(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def since(self, before: "InferenceStats") -> dict[str, int]:
        """Counter deltas relative to an earlier snapshot."""
        now = self.as_counts()
        then = before.as_counts()
        return {key: now[key] - then.get(key, 0) for key in now}

    def snapshot(self) -> "InferenceStats":
        return dataclasses.replace(self)


@dataclasses.dataclass
class InferenceContext:
    """State of one ``ContextMatch`` run.

    Holds the RNG for train/test partitioning, the categorical policy,
    the run's work counters and, for ``TgtClassInfer``, the per-type
    target classifiers and the run's tag memo.  The classifiers come from
    ``classifiers`` on first use — the engine passes the prepared
    target's, trained once per process
    (:meth:`~repro.engine.prepared.PreparedTarget.trained_classifiers`)
    and only read afterwards — or, without it, are trained on ``target``
    for this context alone.  Everything else is discarded with the run,
    so a run's counts do not depend on earlier runs; only the run that
    trains the classifiers also counts that training's tokenizing.
    """

    config: ContextMatchConfig
    rng: np.random.Generator
    target: Database
    policy: CategoricalPolicy = dataclasses.field(default_factory=CategoricalPolicy)
    #: Supplies the trained target classifiers (None: train on ``target``).
    classifiers: Callable[[], TargetClassifierSet] | None = None
    #: The run's memo of target-column tags keyed by (type family,
    #: value): every (h, l) pair builds a fresh tag classifier, but the
    #: expensive value -> target-column tagging never changes.
    tag_cache: dict = dataclasses.field(default_factory=dict)
    #: Per-run inference work counters (batch calls, classified values,
    #: retrain-free merges), surfaced by the infer-views stage report.
    stats: InferenceStats = dataclasses.field(default_factory=InferenceStats)
    _target_classifiers: TargetClassifierSet | None = dataclasses.field(
        default=None, init=False, repr=False)

    @property
    def target_classifiers(self) -> TargetClassifierSet:
        if self._target_classifiers is None:
            self._target_classifiers = (
                self.classifiers() if self.classifiers is not None
                else TargetClassifierSet.train(
                    self.target,
                    sample_limit=self.config.standard.sample_limit))
        return self._target_classifiers


def set_partitions(values: Sequence[Hashable]) -> Iterator[list[list[Hashable]]]:
    """Enumerate all set partitions of *values* (Bell-number many).

    Standard recursive construction: each new element either joins an
    existing block or starts its own.  Deterministic order.
    """
    values = list(values)
    if not values:
        yield []
        return

    def recurse(index: int, blocks: list[list[Hashable]]) -> Iterator[list[list[Hashable]]]:
        if index == len(values):
            yield [list(b) for b in blocks]
            return
        value = values[index]
        for block in blocks:
            block.append(value)
            yield from recurse(index + 1, blocks)
            block.pop()
        blocks.append([value])
        yield from recurse(index + 1, blocks)
        blocks.pop()

    yield from recurse(0, [])


class CandidateViewGenerator(abc.ABC):
    """Interface of ``InferCandidateViews`` (Figure 5, line 5)."""

    name: str = "generator"

    def infer(self, relation: Relation, accepted: Sequence[AttributeMatch],
              ctx: InferenceContext,
              *, exclude_attributes: frozenset[str] = frozenset()) -> list[ViewFamily]:
        """Candidate view families for *relation*.

        Per Figure 5, no conditions are returned when the accepted match
        list for the table is empty.  ``exclude_attributes`` removes
        attributes already used in a parent condition (conjunctive search,
        Section 3.5).
        """
        if not accepted:
            return []
        return self._infer(relation, ctx, exclude_attributes)

    @abc.abstractmethod
    def _infer(self, relation: Relation, ctx: InferenceContext,
               exclude: frozenset[str]) -> list[ViewFamily]:
        """Generator-specific inference; *relation* has a non-empty match list."""


# ---------------------------------------------------------------------------
# NaiveInfer (Section 3.2.1)
# ---------------------------------------------------------------------------
class NaiveInfer(CandidateViewGenerator):
    """Views for every value of every categorical attribute, unfiltered."""

    name = "naive"

    def _infer(self, relation: Relation, ctx: InferenceContext,
               exclude: frozenset[str]) -> list[ViewFamily]:
        families: list[ViewFamily] = []
        for label_attr in categorical_attributes(relation, ctx.policy):
            if label_attr in exclude:
                continue
            values = relation.distinct(label_attr)
            base = ViewFamily.simple(relation.name, label_attr, values)
            families.append(base)
            if ctx.config.early_disjuncts and len(values) > 1:
                families.extend(self._disjunctive_families(relation.name,
                                                           label_attr, values))
        return families

    @staticmethod
    def _disjunctive_families(table: str, attribute: str,
                              values: list[Any]) -> list[ViewFamily]:
        """Partition families for EarlyDisjuncts.

        For small value sets every partitioning is enumerated, exactly as
        Section 3.2.1 describes; for larger sets (where the Bell number
        explodes) only single-pair merges of the base family are produced.
        """
        families: list[ViewFamily] = []
        if len(values) <= MAX_EXACT_PARTITION_VALUES:
            for blocks in set_partitions(values):
                if len(blocks) in (1, len(values)):
                    continue  # no-information partition / base family
                families.append(ViewFamily(table, attribute, blocks))
        else:
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    merged = [[values[i], values[j]]] + [
                        [v] for k, v in enumerate(values) if k not in (i, j)]
                    families.append(ViewFamily(table, attribute, merged))
        return families


# ---------------------------------------------------------------------------
# ClusteredViewGen machinery (Section 3.2.2, Figure 6)
# ---------------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AssessmentResult:
    """Outcome of scoring one (h, l) candidate family."""

    matrix: ConfusionMatrix
    confidence: float  # Φ((c − µ)/σ) of the significance test

    def significant(self, threshold: float) -> bool:
        return self.confidence > threshold


def assess_family(family: ViewFamily, classifier: Classifier,
                  train_pairs: Sequence[tuple[Any, Any]],
                  test_pairs: Sequence[tuple[Any, Any]]) -> AssessmentResult:
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
    return AssessmentResult(matrix, significance.confidence)


def _pick_columns(columns: Sequence[GroupColumn],
                  labels: Sequence[Any]) -> np.ndarray:
    """Winning column per row, under the classifiers' exact tie rule.

    *columns* are in label order.  The classifiers scan them left to
    right, keeping the best score so far and the columns tying it, with
    Python's comparison semantics: a NaN never beats or ties, and a NaN
    in the first column wins outright (``GaussianClassifier.classify``;
    on NaN-free scores the scan finds the plain maximum).  So the tied
    columns are those equal to the largest non-NaN score, or the first
    column alone when its score is NaN.  Rows left with several ties go
    to the larger count, then the larger
    :func:`~repro.classifiers.base.label_key` of the group label
    (*labels*, parallel to *columns*), then the lower tie order — the
    column's own ``order`` row when it has one, its label-order position
    otherwise.
    """
    scores = np.column_stack([column.scores for column in columns])
    tied = scores == np.fmax.reduce(scores, axis=1)[:, None]
    first_nan = np.isnan(scores[:, 0])
    tied[first_nan] = False
    tied[first_nan, 0] = True
    winners = tied.argmax(axis=1)
    for row in np.flatnonzero(tied.sum(axis=1) > 1).tolist():
        def rank(j: int) -> tuple:
            order = columns[j].order
            return (columns[j].count, label_key(labels[j]),
                    -(j if order is None else int(order[row])))
        winners[row] = max(np.flatnonzero(tied[row]).tolist(), key=rank)
    return winners


class FamilyAssessor:
    """Batch ``doTraining`` + ``doTesting`` for every family over one
    (h, l) attribute pair.

    The classifier (and the ``CNaive`` baseline) is taught exactly once,
    with the *original* label values.  The assessor then keeps one score
    matrix: a row per distinct test value (as the classifier's
    :class:`~repro.classifiers.base.GroupScorer` defines it), a column per
    family group that has training rows.  Assessing a family reuses the
    columns of groups it shares with the previous family and asks the
    scorer only for the new ones — after an early-disjunct merge, just the
    merged group's — then re-takes the argmax (:func:`_pick_columns`).
    The confusion matrix and the majority baseline are tallied from group
    indices.  Both are bit-identical to :func:`assess_family` with a
    freshly retrained classifier, so the early-disjunct merge loop
    (Section 3.3) walks the same trajectory with no re-teaching.
    """

    def __init__(self, classifier: Classifier,
                 train_pairs: Sequence[tuple[Any, Any]],
                 test_pairs: Sequence[tuple[Any, Any]],
                 *, stats: InferenceStats | None = None):
        values = [value for value, _ in train_pairs]
        labels = [label for _, label in train_pairs]
        classifier.teach_many(values, labels)
        self._scorer = classifier.group_scorer(
            [value for value, _ in test_pairs])
        naive = MajorityClassifier()
        naive.teach_many(values, labels)
        self._naive = naive.group_scorer(())
        self._n_train = len(labels)
        self._n_test = len(test_pairs)
        codes: dict[Any, int] = {}
        self._test_codes = np.array(
            [codes.setdefault(label, len(codes)) for _, label in test_pairs],
            dtype=np.intp)
        self._test_labels = list(codes)
        self._stats = stats
        #: The current family's columns, keyed by group.
        self._columns: dict[frozenset, GroupColumn] = {}

    @staticmethod
    def _members(scorer: GroupScorer, group_index: Callable[[Any], int]
                 ) -> dict[int, list[Any]]:
        """Group index -> taught member labels, groups in label order."""
        members: dict[int, list[Any]] = {}
        for label in scorer.labels:
            members.setdefault(group_index(label), []).append(label)
        return members

    def assess(self, family: ViewFamily, *,
               merged: bool = False) -> AssessmentResult:
        """Assess one family grouping; *merged* marks early-disjunct merge
        steps for the ``merges_without_retrain`` counter."""
        groups = family.groups
        index_of = {value: i for i, group in enumerate(groups)
                    for value in group}

        def group_index(label: Any) -> int:
            try:
                return index_of[label]
            except KeyError:
                family.group_label(label)  # raises the ConditionError
                raise

        members = self._members(self._scorer, group_index)
        columns = {}
        for i, labels in members.items():
            group = groups[i]
            column = self._columns.get(group)
            columns[group] = (column if column is not None
                              else self._scorer.column(labels))
        self._columns = columns
        absent = len(groups)  # predicted-index code for "no prediction"
        if columns:
            trained = np.array(list(members), dtype=np.intp)
            winners = _pick_columns(list(columns.values()),
                                    [groups[i] for i in trained])
            predicted = trained[winners][self._scorer.rows]
        else:
            predicted = np.full(self._n_test, absent, dtype=np.intp)
        truth = np.array([group_index(label) for label in self._test_labels],
                         dtype=np.intp)[self._test_codes]
        cells, first, counts = np.unique(truth * (absent + 1) + predicted,
                                         return_index=True,
                                         return_counts=True)
        matrix = ConfusionMatrix()
        for i in np.argsort(first).tolist():
            t, p = divmod(int(cells[i]), absent + 1)
            matrix.counts[(groups[t], groups[p] if p < absent else None)] = \
                int(counts[i])
        naive_counts = [self._naive.column(labels).count for labels
                        in self._members(self._naive, group_index).values()]
        p_null = (max(naive_counts) / self._n_train) if self._n_train else 0.0
        significance = classifier_significance(
            matrix.correct, matrix.total, p_null)
        if self._stats is not None:
            self._stats.batch_calls += 1
            self._stats.values_classified += self._n_test
            if merged:
                self._stats.merges_without_retrain += 1
        return AssessmentResult(matrix, significance.confidence)


class _PairExtractor:
    """(h, l) training-pair extraction over one train/test split.

    ``ClusteredViewGen`` pairs every non-categorical attribute h with
    every categorical attribute l, so per-pair filtering would run
    ``is_missing`` over each column once per *pairing*; the relation's
    native presence arrays run it once per (attribute, row), and the
    AND of the two masks selects the surviving rows in index space so
    only those are gathered as Python objects.  The produced pair lists
    are identical to zip-and-filter over the raw columns.
    """

    def __init__(self, relation: Relation):
        self._relation = relation

    def pairs(self, h_attr: str, label_attr: str) -> list[tuple[Any, Any]]:
        """(h, l) values over the rows where both are present."""
        relation = self._relation
        rows = np.flatnonzero(relation.presence_array(h_attr)
                              & relation.presence_array(label_attr))
        h_values = relation.column_store(h_attr).gather(rows)
        l_values = relation.column_store(label_attr).gather(rows)
        return list(zip(h_values, l_values))


class ClusteredViewGenBase(CandidateViewGenerator):
    """Shared Algorithm ClusteredViewGen (Figure 6) skeleton.

    Subclasses provide :meth:`make_classifier` — a fresh classifier for a
    given non-categorical attribute h (``SrcClassInfer`` trains it on source
    values; ``TgtClassInfer`` routes through the target-column tagger).
    """

    def _infer(self, relation: Relation, ctx: InferenceContext,
               exclude: frozenset[str]) -> list[ViewFamily]:
        config = ctx.config
        cats = [a for a in categorical_attributes(relation, ctx.policy)
                if a not in exclude]
        noncats = non_categorical_attributes(relation, ctx.policy)
        if not cats or not noncats or len(relation) < 4:
            return []
        train, test = relation.split(config.train_fraction, ctx.rng)
        train_extractor = _PairExtractor(train)
        test_extractor = _PairExtractor(test)
        best: dict[ViewFamily, float] = {}
        for label_attr in cats:
            values = relation.distinct(label_attr)
            if len(values) < 2:
                continue
            base_family = ViewFamily.simple(relation.name, label_attr, values)
            for h_attr in noncats:
                dtype = relation.schema.dtype(h_attr)
                train_pairs = systematic_thin(
                    train_extractor.pairs(h_attr, label_attr),
                    config.max_train)
                test_pairs = systematic_thin(
                    test_extractor.pairs(h_attr, label_attr), config.max_test)
                if len(train_pairs) < 2 or len(test_pairs) < 1:
                    continue
                try:
                    found = self._pair_families(base_family, train_pairs,
                                                test_pairs, dtype, ctx)
                except OverflowError:
                    # A fit or posterior beyond float range (h-values near
                    # 1e200): the pair has no usable classifier.
                    continue
                for family, conf in found:
                    best[family] = max(best.get(family, 0.0), conf)
        return [
            ViewFamily(f.table, f.attribute, f.groups, quality=q)
            for f, q in best.items()
        ]

    def _pair_families(self, base_family: ViewFamily,
                       train_pairs: Sequence[tuple[Any, Any]],
                       test_pairs: Sequence[tuple[Any, Any]],
                       dtype: DataType, ctx: InferenceContext,
                       ) -> list[tuple[ViewFamily, float]]:
        """The well-clustered families of one (h, l) pair with their
        confidences: the base family, then the early-disjunct merges."""
        config = ctx.config
        assessor = FamilyAssessor(self.make_classifier(dtype, ctx),
                                  train_pairs, test_pairs, stats=ctx.stats)
        result = assessor.assess(base_family)
        found = []
        if result.significant(config.significance_threshold):
            found.append((base_family, result.confidence))
        if config.early_disjuncts:
            found.extend(self._merged_families(base_family, result,
                                               assessor, ctx))
        return found

    def _merged_families(self, family: ViewFamily, result: AssessmentResult,
                         assessor: FamilyAssessor, ctx: InferenceContext,
                         ) -> Iterator[tuple[ViewFamily, float]]:
        """Early-disjunct error-pair merging loop (Section 3.3).

        Merge the most frequent (frequency-normalized) confusion pair,
        retrain and retest; keep merged families that test well-clustered.
        Repeats until the test is error-free or only one group remains.
        The :class:`FamilyAssessor` scores only the merged group's column —
        the same results as re-teaching a fresh classifier.
        """
        config = ctx.config
        current = family
        current_result = result
        while len(current.groups) > 1:
            pair = top_error_pair(current_result.matrix)
            if pair is None:
                break
            group_a, group_b = tuple(pair)
            # Merge via representative raw values of the two groups.
            rep_a = next(iter(group_a))
            rep_b = next(iter(group_b))
            merged = current.merge(rep_a, rep_b)
            if len(merged.groups) == len(current.groups):
                break  # already together — cannot make progress
            merged_result = assessor.assess(merged, merged=True)
            if (len(merged.groups) > 1
                    and merged_result.significant(config.significance_threshold)):
                yield (ViewFamily(merged.table, merged.attribute, merged.groups,
                                  quality=merged_result.confidence),
                       merged_result.confidence)
            current, current_result = merged, merged_result

    @abc.abstractmethod
    def make_classifier(self, dtype: DataType, ctx: InferenceContext) -> Classifier:
        """A fresh classifier ``Ch`` for a non-categorical attribute of type
        *dtype*; it must provide
        :meth:`~repro.classifiers.base.Classifier.group_scorer`
        (:class:`FamilyAssessor` raises ``TypeError`` otherwise)."""


# ---------------------------------------------------------------------------
# SrcClassInfer (Section 3.2.3)
# ---------------------------------------------------------------------------
class SrcClassInfer(ClusteredViewGenBase):
    """Classifier trained directly on source values: Naive Bayes on 3-grams
    for text, a Gaussian statistical classifier for numeric attributes."""

    name = "src"

    def make_classifier(self, dtype: DataType, ctx: InferenceContext) -> Classifier:
        if dtype.is_numeric:
            return GaussianClassifier()
        return NaiveBayesClassifier(q=3)


# ---------------------------------------------------------------------------
# TgtClassInfer (Section 3.2.4)
# ---------------------------------------------------------------------------
class _TgtTagClassifier(Classifier):
    """bestCAT ∘ C_D^T: tag source values with target columns, then map tags
    to categorical values by the acc·prec score of Section 3.2.4."""

    def __init__(self, tagger: TargetClassifierSet, dtype: DataType,
                 tag_cache: dict | None = None,
                 stats: InferenceStats | None = None):
        self._tagger = tagger
        self._dtype = dtype
        self._tbag: Counter = Counter()          # (tag g, label v) -> count
        self._label_counts: Counter = Counter()  # v -> count
        self._tag_counts: Counter = Counter()    # g -> count
        self._best: dict[Any, Hashable] | None = None
        self._tag_cache: dict = tag_cache if tag_cache is not None else {}
        self._stats = stats

    def _tag_key(self, value: Any) -> tuple:
        return (self._dtype.family,
                value if isinstance(value, Hashable) else str(value))

    def _tag(self, value: Any) -> str | None:
        key = self._tag_key(value)
        if key not in self._tag_cache:
            self._tag_cache[key] = self._tagger.classify(value, self._dtype)
        return self._tag_cache[key]

    def _tag_many(self, values: Sequence[Any]) -> list[str | None]:
        """Tags for *values*, bulk-filling the run's tag cache.

        Unhashable values are tagged one by one, as :meth:`_tag` does;
        the other uncached distinct keys go through the tagger's batch
        path in first-appearance order, so cache contents (including the
        key-collision semantics of :meth:`_tag`) match per-value tagging.
        """
        for value in values:
            if not isinstance(value, Hashable):
                self._tag(value)
        keys = [self._tag_key(value) for value in values]
        queued: dict = {}
        for key, value in zip(keys, values):
            if key not in self._tag_cache and key not in queued:
                queued[key] = value
        if queued:
            predicted = self._tagger.classify_many(list(queued.values()),
                                                   self._dtype)
            self._tag_cache.update(zip(queued, predicted))
            if self._stats is not None:
                self._stats.batch_calls += 1
                self._stats.values_classified += len(queued)
        return [self._tag_cache[key] for key in keys]

    def teach(self, value: Any, label: Hashable) -> None:
        tag = self._tag(value)
        self._label_counts[label] += 1
        if tag is not None:
            self._tbag[(tag, label)] += 1
            self._tag_counts[tag] += 1
        self._best = None

    def teach_many(self, values: Sequence[Any],
                   labels: Sequence[Hashable]) -> None:
        """Batch teach: bulk tagging plus a *single* ``_best`` memo
        invalidation (per-value :meth:`teach` invalidates every call)."""
        if len(values) != len(labels):
            raise ValueError(
                f"teach_many needs parallel sequences, got {len(values)} "
                f"values vs {len(labels)} labels")
        tags = self._tag_many(values)
        for tag, label in zip(tags, labels):
            self._label_counts[label] += 1
            if tag is not None:
                self._tbag[(tag, label)] += 1
                self._tag_counts[tag] += 1
        self._best = None

    @property
    def labels(self) -> frozenset[Hashable]:
        return frozenset(self._label_counts)

    def _best_cat(self) -> dict[Any, Hashable]:
        """bestCAT(g) = argmax_v acc(g,v)·prec(g,v); ties favour the more
        common v, then a deterministic order."""
        if self._best is not None:
            return self._best
        best: dict[Any, Hashable] = {}
        by_tag: dict[str, list[Hashable]] = {}
        for (tag, label) in self._tbag:
            by_tag.setdefault(tag, []).append(label)
        for tag, labels in by_tag.items():
            def score(label: Hashable) -> float:
                joint = self._tbag[(tag, label)]
                acc = joint / self._label_counts[label]
                prec = joint / self._tag_counts[tag]
                return acc * prec
            best[tag] = max(labels, key=lambda lab: (
                score(lab), self._label_counts[lab], label_key(lab)))
        self._best = best
        return best

    def _arbitrary_label(self) -> Hashable | None:
        if not self._label_counts:
            return None
        return max(self._label_counts,
                   key=lambda lab: (self._label_counts[lab], label_key(lab)))

    def classify(self, value: Any) -> Hashable | None:
        tag = self._tag(value)
        best = self._best_cat()
        if tag is None or tag not in best:
            # "an arbitrary categorical value is selected" — deterministic:
            # the most common label.
            return self._arbitrary_label()
        return best[tag]

    def group_scorer(self, values: Sequence[Any]) -> GroupScorer:
        """acc·prec scores of label groups over *values*: one row per
        distinct trained tag, plus one shared row for the rest."""
        return _TgtGroupScorer(self, values)


class _TgtGroupScorer(GroupScorer):
    """:class:`GroupScorer` over one batch for :class:`_TgtTagClassifier`.

    A value's label depends only on its tag, so rows are the distinct
    tags that have training rows.  A group's joint tag counts and label
    count are its members' sums, and its score under a tag is acc·prec as
    :meth:`_TgtTagClassifier._best_cat` computes it; groups never seen
    with the tag score 0.0 and so never win.  ``bestCAT`` scans a tag's
    groups in the order they first met the tag, which the per-row
    ``order`` carries.  Untagged values and tags without training rows
    share the last row, scored 0.0 by every group in label order, so the
    tie rule picks :meth:`_TgtTagClassifier._arbitrary_label`.
    """

    def __init__(self, classifier: _TgtTagClassifier, values: Sequence[Any]):
        tags = classifier._tag_many(values)
        tag_counts = classifier._tag_counts
        row_of: dict[Any, int] = {}
        for tag in tags:
            if tag is not None and tag in tag_counts:
                row_of.setdefault(tag, len(row_of))
        fallback = len(row_of)
        self.rows = np.array([row_of.get(tag, fallback) for tag in tags],
                             dtype=np.intp)
        self.labels = tuple(classifier._label_counts)
        self._label_counts = dict(classifier._label_counts)
        self._tag_totals = [tag_counts[tag] for tag in row_of]
        first_met = {pair: i for i, pair in enumerate(classifier._tbag)}
        self._joint: dict[Hashable, np.ndarray] = {}
        self._order: dict[Hashable, np.ndarray] = {}
        for index, label in enumerate(self.labels):
            joint = np.zeros(fallback + 1, dtype=np.int64)
            order = np.full(fallback + 1, len(first_met), dtype=np.int64)
            order[fallback] = index
            for tag, row in row_of.items():
                joint[row] = classifier._tbag.get((tag, label), 0)
                order[row] = first_met.get((tag, label), len(first_met))
            self._joint[label] = joint
            self._order[label] = order

    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        joint = sum(self._joint[label] for label in members).tolist()
        count = sum(self._label_counts[label] for label in members)
        scores = [(j / count) * (j / total) if j else 0.0
                  for j, total in zip(joint, self._tag_totals)]
        scores.append(0.0)
        return GroupColumn(
            np.array(scores, dtype=np.float64), count,
            np.minimum.reduce([self._order[label] for label in members]))


class TgtClassInfer(ClusteredViewGenBase):
    """Classify source values by which target column they resemble, then
    correlate the tags with the categorical attributes."""

    name = "tgt"

    def make_classifier(self, dtype: DataType, ctx: InferenceContext) -> Classifier:
        return _TgtTagClassifier(ctx.target_classifiers, dtype,
                                 tag_cache=ctx.tag_cache, stats=ctx.stats)


def make_generator(kind: str) -> CandidateViewGenerator:
    """Factory mapping config strings to generator instances."""
    generators: dict[str, Callable[[], CandidateViewGenerator]] = {
        "naive": NaiveInfer,
        "src": SrcClassInfer,
        "tgt": TgtClassInfer,
    }
    try:
        return generators[kind]()
    except KeyError:
        raise ValueError(f"unknown inference kind {kind!r}; expected one of "
                         f"{sorted(generators)}") from None
