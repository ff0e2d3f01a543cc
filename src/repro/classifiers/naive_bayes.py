"""Multinomial Naive Bayes over character 3-grams.

"If h is a text attribute, a standard Naive Bayesian classifier is used,
with the values tokenized into 3-grams" (Section 3.2.3).  Laplace-smoothed,
log-space, deterministic tie-breaking (more frequent label first, then
stable lexicographic order) per Section 3.2.4's tie rules.

Tokens are integer gram codes (:mod:`repro.matching.grams`), read through
the :mod:`~repro.matching.tokens` cache in each value's gram order.
The taught state is dense: an ascending code vocabulary and an int64
count row per label over it.  Teaching a batch counts every new gram of
every label in one pass — one ``np.unique`` over the old vocabulary and
the batch's codes, one ``np.bincount`` of (label row, column) cells.
Inference lazily compiles the rows (invalidated on teach) into a dense
numpy log-probability matrix, gathers each value's token columns and
reduces them with ``np.add.accumulate`` — for each label the prior
followed by one ``math.log((count + 1) / denom)`` addend per token
occurrence, left to right, the textbook sequential loop — while the
``math.log`` table is built once per compile instead of once per
classified value.  Posterior rows are memoized per distinct value.

:meth:`~NaiveBayesClassifier.group_scorer` serves the early-disjunct merge
loop from the same dense statistics: a label group's column sums its
members' count rows, builds its log row with the routine the compiled
matrix uses (:func:`_log_likelihoods`) and reduces each value with a
gather + ``np.add.accumulate`` in the same order, so it equals the
posterior a classifier taught with the group label computes.  A batch of
groups (a base family's singletons) takes one gather and one accumulate.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Hashable, Sequence

import numpy as np

from ..matching import grams
from ..matching.grams import CodeColumns
from ..matching.tokens import cached_codes, cached_codes_many
from .base import (Classifier, GroupColumn, GroupScorer, label_key,
                   value_key)

__all__ = ["NaiveBayesClassifier"]


def _log_likelihoods(counts: np.ndarray, denom: int) -> np.ndarray:
    """``math.log((count + 1) / denom)`` for every entry of an int64
    token-count row: the scalar loop's addend depends only on (count,
    denom), so ``math.log`` runs once per distinct count value."""
    present = np.flatnonzero(np.bincount(counts)).tolist()
    table = np.empty(present[-1] + 1, dtype=np.float64)
    table[present] = [math.log((count + 1) / denom) for count in present]
    return table[counts]


class _CompiledNB:
    """Frozen dense view of one classifier state (one teach generation).

    ``log_matrix[l, t]`` holds ``math.log((count(t | l) + 1) / denom_l)``
    for every vocabulary token, with an extra trailing column for tokens
    outside the vocabulary (count 0 — the same smoothed probability a
    zero-count vocabulary token gets); ``log_prior[l]`` holds the label's
    log prior.  Every entry is produced by the exact expression the scalar
    path evaluates, so a posterior assembled from this table equals the
    scalar result bit-for-bit.
    """

    __slots__ = ("q", "labels", "label_counts", "columns", "unseen",
                 "log_matrix", "log_prior", "_row_cache")

    def __init__(self, nb: "NaiveBayesClassifier"):
        self.q = nb.q
        self.labels: list[Hashable] = list(nb._label_counts)
        self.label_counts: list[int] = list(nb._label_counts.values())
        self.columns = CodeColumns(nb._vocabulary)
        self.unseen = len(self.columns)
        vocab_size = len(self.columns) or 1
        self.log_matrix = np.empty((len(self.labels), self.unseen + 1),
                                   dtype=np.float64)
        for log_row, counts, total in zip(self.log_matrix, nb._counts,
                                          nb._counts.sum(axis=1).tolist()):
            log_row[:] = _log_likelihoods(np.append(counts, 0),  # + unseen
                                          total + vocab_size)
        self.log_prior = np.array(
            [math.log(count / nb._examples) for count in self.label_counts],
            dtype=np.float64)
        #: Posterior rows memoized per distinct value (keyed by concrete
        #: class + value, so 1 / 1.0 / True stay distinct).
        self._row_cache: dict[tuple, np.ndarray] = {}

    def row_of(self, codes: np.ndarray) -> np.ndarray:
        """Per-label posteriors of a value with gram *codes*, ordered like
        :attr:`labels`: the log prior plus one table entry per token
        occurrence, left to right, via ``np.add.accumulate`` (a strictly
        sequential reduction)."""
        columns = self.columns.columns(codes)
        block = np.empty((len(self.labels), len(columns) + 1),
                         dtype=np.float64)
        block[:, 0] = self.log_prior
        if len(columns):
            block[:, 1:] = self.log_matrix[:, columns]
        np.add.accumulate(block, axis=1, out=block)
        return block[:, -1].copy()

    def posterior_row(self, value: Any) -> np.ndarray:
        """:meth:`row_of` *value*'s codes, memoized per distinct value."""
        key = value_key(value)
        if key is not None:
            cached = self._row_cache.get(key)
            if cached is not None:
                return cached
        row = self.row_of(cached_codes(value, self.q))
        if key is not None:
            self._row_cache[key] = row
        return row

    def _pick_label(self, row: np.ndarray) -> Hashable:
        """argmax over one posterior row with the scalar path's exact
        tie-breaking."""
        ties = np.flatnonzero(row == row.max())
        if len(ties) == 1:
            return self.labels[ties[0]]
        # Same ordering as max(posteriors, key=(posterior, count,
        # label_key)) restricted to the exact-maximum set.
        return self.labels[max(
            ties, key=lambda i: (self.label_counts[i],
                                 label_key(self.labels[i])))]

    def classify_batch(self, values: Sequence[Any]) -> list[Hashable | None]:
        """Batch argmax over many values with one accumulate per bucket.

        Distinct values are bucketed by token count; each bucket
        classifies as a single (batch × labels × tokens+1) gather +
        ``np.add.accumulate`` — per (value, label) the identical sequential
        chain of IEEE additions as :meth:`posterior_row`, so decisions are
        bit-identical to per-value classification while the numpy call
        overhead is paid once per bucket instead of once per value.
        Decisions are not memoized across calls: a trained classifier is
        shared by every run of a process, and a memo would let one run
        skip the tokenizing (and so the token-cache counts) of another.
        """
        if not self.labels:
            return [None for _ in values]
        out: list[Hashable | None] = [None] * len(values)
        # positions needing computation, grouped by distinct value key.
        by_key: dict[tuple, list[int]] = {}
        loose: list[int] = []  # unhashable values — computed individually
        for position, value in enumerate(values):
            key = value_key(value)
            if key is None:
                loose.append(position)
            else:
                by_key.setdefault(key, []).append(position)
        for position in loose:
            out[position] = self._pick_label(
                self.posterior_row(values[position]))
        if not by_key:
            return out
        # Bucket distinct values by token count for rectangular batches.
        codes = cached_codes_many(
            [values[positions[0]] for positions in by_key.values()], self.q)
        buckets: dict[int, tuple[list[tuple], list[np.ndarray]]] = {}
        for key, value_codes in zip(by_key, codes):
            keys, code_rows = buckets.setdefault(len(value_codes), ([], []))
            keys.append(key)
            code_rows.append(value_codes)
        for width, (keys, code_rows) in buckets.items():
            batch = len(keys)
            block = np.empty((batch, len(self.labels), width + 1),
                             dtype=np.float64)
            block[:, :, 0] = self.log_prior
            if width:
                columns = self.columns.columns(np.stack(code_rows))
                block[:, :, 1:] = self.log_matrix[:, columns].transpose(
                    1, 0, 2)
            np.add.accumulate(block, axis=2, out=block)
            rows = block[:, :, -1]
            maxima = rows.max(axis=1)
            argmaxima = rows.argmax(axis=1)
            tie_counts = (rows == maxima[:, None]).sum(axis=1)
            for b, key in enumerate(keys):
                if tie_counts[b] == 1:
                    label = self.labels[argmaxima[b]]
                else:
                    label = self._pick_label(rows[b])
                for position in by_key[key]:
                    out[position] = label
        return out


class NaiveBayesClassifier(Classifier):
    """Laplace-smoothed multinomial NB on q-gram tokens.

    ``q`` must lie in [1, :data:`~repro.matching.grams.MAX_Q`], the range
    where gram codes are exact.
    """

    def __init__(self, *, q: int = 3):
        grams.check_q(q)
        self.q = q
        #: Ascending codes of every gram taught so far.
        self._vocabulary = np.empty(0, dtype=grams.code_dtype(q))
        #: ``_counts[l, t]``: the count of vocabulary gram *t* under the
        #: *l*-th label of ``_label_counts`` (teach order).
        self._counts = np.zeros((0, 0), dtype=np.int64)
        self._label_counts: Counter = Counter()
        self._examples = 0
        self._compiled: _CompiledNB | None = None

    def teach(self, value: Any, label: Hashable) -> None:
        self.teach_many((value,), (label,))

    def teach_many(self, values: Sequence[Any],
                   labels: Sequence[Hashable]) -> None:
        """Bulk teach: one counting pass adds the batch's grams to the
        vocabulary and to every label's count row, and the compiled
        representation is invalidated once.  Counts are integer sums, so
        the result is identical to per-value :meth:`teach`."""
        if len(values) != len(labels):
            raise ValueError(
                f"teach_many needs parallel sequences, got {len(values)} "
                f"values vs {len(labels)} labels")
        codes = cached_codes_many(values, self.q)
        for label in labels:
            self._label_counts[label] += 1
        row_of = {label: row for row, label in enumerate(self._label_counts)}
        known = len(self._vocabulary)
        vocabulary, columns = np.unique(
            np.concatenate([self._vocabulary, *codes]), return_inverse=True)
        lengths = np.fromiter(map(len, codes), dtype=np.intp,
                              count=len(codes))
        cells = (np.repeat(np.array([row_of[label] for label in labels],
                                    dtype=np.intp), lengths)
                 * len(vocabulary) + columns[known:])
        counts = np.bincount(
            cells, minlength=len(row_of) * len(vocabulary)).reshape(
                len(row_of), len(vocabulary))
        counts[:len(self._counts), columns[:known]] += self._counts
        self._vocabulary, self._counts = vocabulary, counts
        self._examples += len(values)
        self._compiled = None

    @property
    def labels(self) -> frozenset[Hashable]:
        return frozenset(self._label_counts)

    def log_posteriors(self, value: Any) -> dict[Hashable, float]:
        """Unnormalized log posterior for every label."""
        if not self._label_counts:
            return {}
        compiled = self.compiled()
        return dict(zip(compiled.labels,
                        compiled.row_of(cached_codes(value, self.q))
                        .tolist()))

    def classify(self, value: Any) -> Hashable | None:
        """Best posterior; ties break toward the more common label, then
        the larger :func:`~repro.classifiers.base.label_key`."""
        if not self._label_counts:
            return None
        compiled = self.compiled()
        return compiled._pick_label(
            compiled.row_of(cached_codes(value, self.q)))

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def compiled(self) -> _CompiledNB:
        """The dense log-probability view of the current counts (lazy;
        invalidated by :meth:`teach`)."""
        if self._compiled is None:
            self._compiled = _CompiledNB(self)
        return self._compiled

    def log_posteriors_many(self, values: Sequence[Any]
                            ) -> list[dict[Hashable, float]]:
        """Batch log posteriors, bit-identical to :meth:`log_posteriors`."""
        if not self._label_counts:
            return [{} for _ in values]
        compiled = self.compiled()
        return [
            dict(zip(compiled.labels,
                     compiled.posterior_row(value).tolist()))
            for value in values
        ]

    def classify_many(self, values: Sequence[Any]) -> list[Hashable | None]:
        """Batch classification, bit-identical to :meth:`classify`."""
        if not self._label_counts:
            return [None for _ in values]
        return self.compiled().classify_batch(values)

    def group_scorer(self, values: Sequence[Any]) -> GroupScorer:
        """Posteriors of label groups over *values*: one row per distinct
        value, each group's column summed from its members' counts."""
        return _NBGroupScorer(self, values)


class _NBGroupScorer(GroupScorer):
    """:class:`GroupScorer` over one batch for Naive Bayes.

    Merging labels leaves the vocabulary — and so every denominator's
    vocabulary term — unchanged, and each label's posterior accumulates on
    its own: a group's column needs only its summed count row, token total
    and example count.  Distinct values are tokenized once into one gather
    matrix — the prior's index, then the value's token columns,
    right-padded to the longest value with an index whose log entry is
    0.0 — so a column costs one log row and one gather +
    ``np.add.accumulate`` — per value the scalar loop's sequential chain
    of IEEE additions, followed by exact ``+ 0.0`` steps (no partial sum
    is ``-0.0``: the log prior is ``+0.0`` or negative, and so is every
    addend).
    """

    def __init__(self, nb: NaiveBayesClassifier, values: Sequence[Any]):
        self.labels = tuple(nb._label_counts)
        self._index = {label: i for i, label in enumerate(self.labels)}
        self._label_counts = list(nb._label_counts.values())
        self._examples = nb._examples
        #: The taught count rows (never written: teaching replaces them).
        self._counts = nb._counts
        self._totals = nb._counts.sum(axis=1).tolist()
        lookup = CodeColumns(nb._vocabulary)
        self._vocab_size = len(lookup) or 1
        row_of: dict[tuple, int] = {}
        rows: list[int] = []
        distinct: list[Any] = []
        for value in values:
            key = value_key(value)
            row = row_of.get(key) if key is not None else None
            if row is None:
                row = len(distinct)
                if key is not None:
                    row_of[key] = row
                distinct.append(value)
            rows.append(row)
        self.rows = np.array(rows, dtype=np.intp)
        codes = cached_codes_many(distinct, nb.q)
        lengths = np.fromiter(map(len, codes), dtype=np.intp,
                              count=len(codes))
        width = int(lengths.max()) if len(codes) else 0
        #: Index of the 0.0 entry appended to every log row; the log
        #: prior follows it.
        self._padding = len(lookup) + 1
        #: Per distinct value, the log-row entries its posterior adds up:
        #: the prior, then its tokens' columns, then padding.
        self._gather = np.full((len(codes), width + 1), self._padding,
                               dtype=np.intp)
        self._gather[:, 0] = self._padding + 1
        if width:
            self._gather[:, 1:][np.arange(width) < lengths[:, None]] = \
                lookup.columns(np.concatenate(codes))

    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        return self.columns((members,))[0]

    def columns(self, groups: Sequence[Sequence[Hashable]]
                ) -> list[GroupColumn]:
        """Every group's column from one gather of the groups' log rows
        and one ``np.add.accumulate`` along the token axis, which reduces
        each (group, value) chain on its own and in order."""
        indices = [[self._index[label] for label in members]
                   for members in groups]
        counts = [sum(self._label_counts[i] for i in group)
                  for group in indices]
        log_rows = np.empty((len(groups), self._padding + 2),
                            dtype=np.float64)
        for log_row, group, count in zip(log_rows, indices, counts):
            log_row[:-2] = _log_likelihoods(
                np.append(self._counts[group].sum(axis=0), 0),  # + unseen
                sum(self._totals[i] for i in group) + self._vocab_size)
            log_row[-2] = 0.0
            log_row[-1] = math.log(count / self._examples)
        block = log_rows[:, self._gather]
        np.add.accumulate(block, axis=2, out=block)
        return [GroupColumn(scores, count)
                for scores, count in zip(block[:, :, -1].copy(), counts)]
