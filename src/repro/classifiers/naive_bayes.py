"""Multinomial Naive Bayes over character 3-grams.

"If h is a text attribute, a standard Naive Bayesian classifier is used,
with the values tokenized into 3-grams" (Section 3.2.3).  Laplace-smoothed,
log-space, deterministic tie-breaking (more frequent label first, then
stable lexicographic order) per Section 3.2.4's tie rules.

Tokens are integer gram codes (:mod:`repro.matching.grams`), read through
the :mod:`~repro.matching.tokens` cache in each value's gram order.
Teaching counts each label's codes into a
:class:`~repro.matching.grams.GramBag`.  Inference lazily compiles the
bags (invalidated on teach) into a sorted code vocabulary and a dense
numpy log-probability matrix, gathers each value's token columns and
reduces them with ``np.add.accumulate`` — for each label the prior
followed by one ``math.log((count + 1) / denom)`` addend per token
occurrence, left to right, the textbook sequential loop — while the
``math.log`` table is built once per compile instead of once per
classified value.  Posterior rows are memoized per distinct value.

:meth:`~NaiveBayesClassifier.group_scorer` serves the early-disjunct merge
loop from the same dense statistics: a label group's column sums its
members' int64 token-count rows, builds its log row with the routine the
compiled matrix uses (:func:`_log_likelihoods`) and reduces each value
with a gather + ``np.add.accumulate`` in the same order, so it equals the
posterior a classifier taught with the group label computes.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any, Hashable, Sequence

import numpy as np

from ..matching import grams
from ..matching.grams import CodeColumns, GramBag
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
        self.labels, self.columns, counts, totals = nb._dense_counts()
        self.label_counts: list[int] = [nb._label_counts[label]
                                        for label in self.labels]
        self.unseen = len(self.columns)
        vocab_size = len(self.columns) or 1
        self.log_matrix = np.empty(counts.shape, dtype=np.float64)
        for li, total in enumerate(totals):
            self.log_matrix[li] = _log_likelihoods(counts[li],
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
        #: Per label (in teach order), the bag of its examples' grams.
        self._bags: dict[Hashable, GramBag] = {}
        self._label_counts: Counter = Counter()
        self._examples = 0
        self._compiled: _CompiledNB | None = None

    def teach(self, value: Any, label: Hashable) -> None:
        self.teach_many((value,), (label,))

    def teach_many(self, values: Sequence[Any],
                   labels: Sequence[Hashable]) -> None:
        """Bulk teach: each label's new grams are counted into one bag and
        added to its bag, and the compiled representation is invalidated
        once.  Counts are integer sums, so the result is identical to
        per-value :meth:`teach`."""
        if len(values) != len(labels):
            raise ValueError(
                f"teach_many needs parallel sequences, got {len(values)} "
                f"values vs {len(labels)} labels")
        taught: dict[Hashable, list[np.ndarray]] = {}
        for codes, label in zip(cached_codes_many(values, self.q), labels):
            self._label_counts[label] += 1
            taught.setdefault(label, []).append(codes)
        for label, arrays in taught.items():
            bag = grams.count(arrays, self.q)
            known = self._bags.get(label)
            self._bags[label] = (bag if known is None
                                 else grams.merge((known, bag)))
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
    def _dense_counts(self) -> tuple[list[Hashable], CodeColumns,
                                     np.ndarray, list[int]]:
        """(labels, vocabulary lookup, int64 count matrix, token totals):
        ``counts[l, t]`` is token *t*'s count under label *l* over the
        sorted code vocabulary plus a trailing all-zero column for unseen
        tokens; labels keep teach order."""
        labels = list(self._label_counts)
        bags = [self._bags[label] for label in labels]
        rows = grams.bag_rows(bags)
        counts = np.zeros((len(labels), len(rows.lookup) + 1),
                          dtype=np.int64)
        counts[np.repeat(np.arange(len(labels)), rows.sizes),
               rows.indices] = rows.counts
        return labels, rows.lookup, counts, [bag.total() for bag in bags]

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
    and example count.  Distinct values are tokenized once into one token
    column matrix, right-padded to the longest value with an index whose
    log entry is 0.0, so a column costs one log row and one gather +
    ``np.add.accumulate`` — per value the scalar loop's sequential chain
    of IEEE additions, followed by exact ``+ 0.0`` steps (no partial sum
    is ``-0.0``: the log prior is ``+0.0`` or negative, and so is every
    addend).
    """

    def __init__(self, nb: NaiveBayesClassifier, values: Sequence[Any]):
        labels, lookup, self._counts, self._totals = nb._dense_counts()
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(labels)}
        self._label_counts = [nb._label_counts[label] for label in labels]
        self._examples = nb._examples
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
        #: Index of the 0.0 entry appended to every log row.
        self._padding = len(lookup) + 1
        self._token_columns = np.full((len(codes), width), self._padding,
                                      dtype=np.intp)
        if width:
            self._token_columns[np.arange(width) < lengths[:, None]] = \
                lookup.columns(np.concatenate(codes))

    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        indices = [self._index[label] for label in members]
        total = sum(self._totals[i] for i in indices)
        count = sum(self._label_counts[i] for i in indices)
        log_row = np.zeros(self._padding + 1, dtype=np.float64)
        log_row[:-1] = _log_likelihoods(self._counts[indices].sum(axis=0),
                                        total + self._vocab_size)
        block = np.empty((len(self._token_columns),
                          self._token_columns.shape[1] + 1),
                         dtype=np.float64)
        block[:, 0] = math.log(count / self._examples)
        block[:, 1:] = log_row[self._token_columns]
        np.add.accumulate(block, axis=1, out=block)
        return GroupColumn(block[:, -1].copy(), count)
