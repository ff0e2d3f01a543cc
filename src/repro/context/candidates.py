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
The ClusteredViewGen loop runs on a :class:`FamilyAssessor`, one per
(h, l) attribute pair, on integer group codes.  The classifier is taught
*once* with the original label values; ``CNaive``'s baseline comes from
per-label training counts summed by group.  The assessor keeps one score
matrix — distinct test value × taught label, each group's column at its
first member's — whose columns come from the classifier's
:class:`~repro.classifiers.base.GroupScorer` (a group's column is
computed from its member labels' summed statistics): the base family's
from one :meth:`~repro.classifiers.base.GroupScorer.columns` call, and
each early-disjunct merge writes only the merged group's.  Every
assessment re-takes the argmax under the classifiers' exact tie rule,
tallies truth × predicted group codes with one ``np.bincount``
(:class:`_Tally`) and reads the next merge pair off that tally under
:func:`~repro.classifiers.metrics.top_error_pair`'s rule.  A
``ConfusionMatrix`` is built only on request, and a ``ViewFamily`` only
for a family the loop returns.  Results are bit-identical to re-teaching
a fresh classifier per family, which the tests keep as the reference
(``tests/infer_reference.py``); :class:`InferenceStats` counts the work
for the engine's stage reports.
"""

from __future__ import annotations

import abc
import dataclasses
from collections import Counter
from typing import Any, Callable, Hashable, Iterator, Sequence

import numpy as np

from ..classifiers.base import (Classifier, GroupColumn, GroupScorer,
                                label_key)
from ..classifiers.metrics import ConfusionMatrix
from ..classifiers.naive_bayes import NaiveBayesClassifier
from ..classifiers.numeric import GaussianClassifier
from ..classifiers.significance import classifier_significance
from ..classifiers.target import TargetClassifierSet
from ..matching.standard import AttributeMatch
from ..relational.columns import ObjectColumn
from ..relational.instance import Database, Relation
from ..relational.types import DataType, is_hashable
from ..relational.views import ViewFamily
from ..sampling import systematic_thin
from .categorical import categorical_attributes
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

    Holds the RNG for train/test partitioning, the run's work counters
    and, for ``TgtClassInfer``, the per-type target classifiers and the
    run's tag memo.  The classifiers come from
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
        for label_attr in categorical_attributes(relation):
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
class _Tally:
    """The confusion tally of one assessment, in group codes.

    ``cells`` holds each test row's cell ``truth * (G + 1) + predicted``
    (predicted ``G``: no prediction).  One ``np.bincount`` counts them;
    the walk over its nonzero cells, in Python (the arrays are tiny),
    sums the diagonal into ``correct``, the rows into ``truth`` and the
    off-diagonal predicted cells into undirected ``errors``.
    """

    __slots__ = ("cells", "width", "correct", "truth", "errors")

    def __init__(self, cells: np.ndarray, n_groups: int):
        self.cells = cells
        self.width = width = n_groups + 1
        counts = np.bincount(cells, minlength=n_groups * width)
        nonzero = np.flatnonzero(counts)
        self.correct = 0
        self.truth = truth = [0] * n_groups
        self.errors: dict[tuple[int, int], int] = {}
        for cell, n in zip(nonzero.tolist(), counts[nonzero].tolist()):
            t, p = divmod(cell, width)
            truth[t] += n
            if t == p:
                self.correct += n
            elif p < n_groups:
                pair = (t, p) if t < p else (p, t)
                self.errors[pair] = self.errors.get(pair, 0) + n

    def top_pair(self, key: Callable[[int], str]) -> tuple[int, int] | None:
        """The group pair to merge next, as
        :func:`~repro.classifiers.metrics.top_error_pair` ranks it: the
        largest undirected error count over the two groups' summed truth
        counts, then the smaller sorted label keys (*key* maps a group
        code to :func:`~repro.classifiers.base.label_key` of its group),
        then the pair that occurs first in test order."""
        best, tied = -1.0, []
        for pair, n in self.errors.items():
            value = n / (self.truth[pair[0]] + self.truth[pair[1]])
            if value > best:
                best, tied = value, [pair]
            elif value == best:
                tied.append(pair)
        if len(tied) > 1:
            ranks = [sorted((key(a), key(b))) for a, b in tied]
            least = min(ranks)
            tied = [pair for pair, rank in zip(tied, ranks) if rank == least]
            if len(tied) > 1:  # colliding keys: test order decides
                return min(tied, key=self._first_seen)
        return tied[0] if tied else None

    def _first_seen(self, pair: tuple[int, int]) -> int:
        a, b = pair
        return int(np.flatnonzero((self.cells == a * self.width + b)
                                  | (self.cells == b * self.width + a))[0])

    def matrix(self, groups: Sequence[frozenset]) -> ConfusionMatrix:
        """The tally as a :class:`ConfusionMatrix` over *groups*, cells
        recorded in the order they first occur in the test set."""
        cells, first, counts = np.unique(self.cells, return_index=True,
                                         return_counts=True)
        absent = self.width - 1
        matrix = ConfusionMatrix()
        for i in np.argsort(first).tolist():
            t, p = divmod(int(cells[i]), self.width)
            matrix.counts[(groups[t], groups[p] if p < absent else None)] = \
                int(counts[i])
        return matrix


@dataclasses.dataclass(frozen=True)
class AssessmentResult:
    """Outcome of scoring one (h, l) candidate family."""

    confidence: float  # Φ((c − µ)/σ) of the significance test
    tally: _Tally
    groups: tuple[frozenset, ...]

    def significant(self, threshold: float) -> bool:
        return self.confidence > threshold

    @property
    def matrix(self) -> ConfusionMatrix:
        """The confusion matrix over the family's groups (built on
        request; the merge loop reads the coded tally instead)."""
        return self.tally.matrix(self.groups)


class _Group:
    """One group of the family under assessment: its label values, the
    scorer positions of its taught members (ascending — the first is the
    group's *slot*, its score-matrix column), its ``CNaive`` training
    count and, once needed, its label key."""

    __slots__ = ("labels", "taught", "train", "column", "_key")

    def __init__(self, labels: frozenset, taught: list[int], train: int):
        self.labels = labels
        self.taught = taught
        self.train = train
        self.column: GroupColumn | None = None
        self._key: str | None = None

    @property
    def key(self) -> str:
        if self._key is None:
            self._key = label_key(self.labels)
        return self._key


def _pick(scores: np.ndarray, rank: Callable[[int, int], tuple]
          ) -> np.ndarray:
    """Winning column per row, under the classifiers' exact tie rule.

    Columns are in label order, NaN where no group sits.  The classifiers
    scan their groups left to right, keeping the best score so far and
    the groups tying it, with Python's comparison semantics: a NaN never
    beats or ties, and a NaN in the first column wins outright
    (``GaussianClassifier.classify``; on NaN-free scores the scan finds
    the plain maximum).  So the tied columns are those equal to the
    largest non-NaN score, or the first column alone when its score is
    NaN (the first column always holds a group).  Rows left with several
    ties go to the largest ``rank(column, row)``.
    """
    tied = scores == np.fmax.reduce(scores, axis=1)[:, None]
    first_nan = np.isnan(scores[:, 0])
    if first_nan.any():
        tied[first_nan] = False
        tied[first_nan, 0] = True
    winners = tied.argmax(axis=1)
    for row in np.flatnonzero(tied.sum(axis=1) > 1).tolist():
        winners[row] = max(np.flatnonzero(tied[row]).tolist(),
                           key=lambda column: rank(column, row))
    return winners


class FamilyAssessor:
    """Batch ``doTraining`` + ``doTesting`` for every family over one
    (h, l) attribute pair, on integer group codes.

    The classifier is taught exactly once, with the *original* label
    values, and ``CNaive``'s baseline is read from per-label training
    counts summed by group.  The assessor keeps one score matrix: a row
    per distinct test value (as the classifier's
    :class:`~repro.classifiers.base.GroupScorer` defines it), a column per
    taught label, where each group's column sits at its first taught
    member's (NaN elsewhere).  :meth:`assess` fills it for a family from
    one :meth:`~repro.classifiers.base.GroupScorer.columns` call; an
    early-disjunct merge writes the merged group's one new column and
    blanks the other.  Each assessment re-takes the argmax
    (:func:`_pick`) and tallies truth × predicted group codes
    (:class:`_Tally`).  Every result is bit-identical to re-teaching a
    fresh classifier per family, so :meth:`families` walks the
    early-disjunct loop (Section 3.3) of Figure 6 with no re-teaching.
    """

    def __init__(self, classifier: Classifier,
                 train_pairs: Sequence[tuple[Any, Any]],
                 test_pairs: Sequence[tuple[Any, Any]],
                 *, stats: InferenceStats | None = None):
        labels = [label for _, label in train_pairs]
        classifier.teach_many([value for value, _ in train_pairs], labels)
        self._scorer = classifier.group_scorer(
            [value for value, _ in test_pairs])
        self._train_counts = Counter(labels)
        self._n_train = len(labels)
        self._n_test = len(test_pairs)
        codes: dict[Any, int] = {}
        self._test_codes = np.array(
            [codes.setdefault(label, len(codes)) for _, label in test_pairs],
            dtype=np.intp)
        self._test_labels = list(codes)
        self._stats = stats
        #: The family under assessment, in family order.
        self._groups: list[_Group] = []
        #: Test row -> group code.
        self._truth = np.zeros(0, dtype=np.intp)
        #: Score matrix column (taught label position) -> group code.
        self._slot_group = np.zeros(0, dtype=np.intp)
        self._scores = np.zeros((0, 0))

    def assess(self, family: ViewFamily, *,
               merged: bool = False) -> AssessmentResult:
        """Assess one family grouping, all its columns scored anew;
        *merged* marks early-disjunct merge steps for the
        ``merges_without_retrain`` counter."""
        groups = family.groups
        index_of = {value: i for i, group in enumerate(groups)
                    for value in group}

        def group_index(label: Any) -> int:
            try:
                return index_of[label]
            except KeyError:
                family.group_label(label)  # raises the ConditionError
                raise

        train = [0] * len(groups)
        for label, n in self._train_counts.items():
            train[group_index(label)] += n
        taught: list[list[int]] = [[] for _ in groups]
        for position, label in enumerate(self._scorer.labels):
            taught[group_index(label)].append(position)
        self._groups = [_Group(group, taught[i], train[i])
                        for i, group in enumerate(groups)]
        self._truth = np.array(
            [group_index(label) for label in self._test_labels],
            dtype=np.intp)[self._test_codes]
        scored = sorted((i for i, group in enumerate(self._groups)
                         if group.taught),
                        key=lambda i: self._groups[i].taught[0])
        columns = self._scorer.columns(
            [self._taught_labels(self._groups[i]) for i in scored])
        self._slot_group = np.zeros(len(self._scorer.labels), dtype=np.intp)
        if columns:
            slots = [self._groups[i].taught[0] for i in scored]
            self._slot_group[slots] = scored
            self._scores = np.full((len(columns[0].scores),
                                    len(self._scorer.labels)), np.nan)
            self._scores[:, slots] = np.column_stack(
                [column.scores for column in columns])
            for i, column in zip(scored, columns):
                self._groups[i].column = column
        return self._score(merged)

    def _merge(self, a: int, b: int) -> AssessmentResult:
        """Merge groups *a* < *b* as :meth:`ViewFamily.merge` does — the
        merged group first, the rest in their order — and assess."""
        first, second = self._groups[a], self._groups[b]
        group = _Group(first.labels | second.labels,
                       sorted(first.taught + second.taught),
                       first.train + second.train)
        if first.taught and second.taught:
            group.column = self._scorer.column(self._taught_labels(group))
            self._scores[:, group.taught[0]] = group.column.scores
            self._scores[:, max(first.taught[0], second.taught[0])] = np.nan
        else:  # the same taught members: the same column
            group.column = first.column or second.column
        rest = [i for i in range(len(self._groups)) if i != a and i != b]
        remap = np.zeros(len(self._groups), dtype=np.intp)
        remap[rest] = range(1, len(rest) + 1)
        self._groups = [group, *(self._groups[i] for i in rest)]
        self._truth = remap[self._truth]
        self._slot_group = remap[self._slot_group]
        return self._score(merged=True)

    def _taught_labels(self, group: _Group) -> list[Any]:
        return [self._scorer.labels[position] for position in group.taught]

    def _rank(self, slot: int, row: int) -> tuple:
        """Tie rank of the group whose column sits at *slot*, at score
        *row*: its count, then its label key, then the lower tie order —
        the column's ``order`` row when it has one, its slot otherwise."""
        group = self._groups[self._slot_group[slot]]
        order = group.column.order
        return (group.column.count, group.key,
                -(slot if order is None else int(order[row])))

    def _score(self, merged: bool) -> AssessmentResult:
        n_groups = len(self._groups)
        if len(self._scorer.labels):
            predicted = self._slot_group[_pick(self._scores, self._rank)][
                self._scorer.rows]
        else:
            predicted = np.full(self._n_test, n_groups, dtype=np.intp)
        tally = _Tally(self._truth * (n_groups + 1) + predicted, n_groups)
        p_null = (max(group.train for group in self._groups) / self._n_train
                  if self._n_train else 0.0)
        significance = classifier_significance(tally.correct, self._n_test,
                                               p_null)
        if self._stats is not None:
            self._stats.batch_calls += 1
            self._stats.values_classified += self._n_test
            if merged:
                self._stats.merges_without_retrain += 1
        return AssessmentResult(
            significance.confidence, tally,
            tuple(group.labels for group in self._groups))

    def families(self, family: ViewFamily, *, threshold: float,
                 early_disjuncts: bool) -> list[tuple[ViewFamily, float]]:
        """The well-clustered families of the pair with their confidences:
        *family* (the base family) if its confidence beats *threshold*,
        then, with *early_disjuncts*, every merged family that does.

        The early-disjunct loop (Section 3.3) merges the most frequent
        (frequency-normalized) confusion pair and re-assesses, until the
        test is error-free or one group remains; a
        :class:`~repro.relational.views.ViewFamily` is built only for the
        merged families it returns.
        """
        result = self.assess(family)
        found = []
        if result.significant(threshold):
            found.append((family, result.confidence))
        while early_disjuncts and len(self._groups) > 1:
            pair = result.tally.top_pair(lambda g: self._groups[g].key)
            if pair is None:
                break
            result = self._merge(*pair)
            if len(self._groups) > 1 and result.significant(threshold):
                found.append((ViewFamily(family.table, family.attribute,
                                         result.groups,
                                         quality=result.confidence),
                              result.confidence))
        return found


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
        """(h, l) values over the rows where both are present and l is
        hashable (an unhashable value is in no view group)."""
        relation = self._relation
        rows = np.flatnonzero(relation.presence_array(h_attr)
                              & relation.presence_array(label_attr))
        h_values = relation.column_store(h_attr).gather(rows)
        l_values = relation.column_store(label_attr).gather(rows)
        pairs = list(zip(h_values, l_values))
        if isinstance(relation.column_store(label_attr), ObjectColumn):
            pairs = [pair for pair in pairs if is_hashable(pair[1])]
        return pairs


class ClusteredViewGenBase(CandidateViewGenerator):
    """Shared Algorithm ClusteredViewGen (Figure 6) skeleton.

    Subclasses provide :meth:`make_classifier` — a fresh classifier for a
    given non-categorical attribute h (``SrcClassInfer`` trains it on source
    values; ``TgtClassInfer`` routes through the target-column tagger).
    """

    def _infer(self, relation: Relation, ctx: InferenceContext,
               exclude: frozenset[str]) -> list[ViewFamily]:
        config = ctx.config
        categorical = categorical_attributes(relation)
        cats = [a for a in categorical if a not in exclude]
        noncats = [a for a in relation.schema.attribute_names
                   if a not in categorical]
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
        assessor = FamilyAssessor(self.make_classifier(dtype, ctx),
                                  train_pairs, test_pairs, stats=ctx.stats)
        return assessor.families(
            base_family, threshold=ctx.config.significance_threshold,
            early_disjuncts=ctx.config.early_disjuncts)

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
