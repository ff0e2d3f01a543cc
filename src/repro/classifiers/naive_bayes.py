"""Multinomial Naive Bayes over character 3-grams.

"If h is a text attribute, a standard Naive Bayesian classifier is used,
with the values tokenized into 3-grams" (Section 3.2.3).  Laplace-smoothed,
log-space, deterministic tie-breaking (more frequent label first, then
stable lexicographic order) per Section 3.2.4's tie rules.

Two equivalent inference paths exist:

* the scalar path (:meth:`NaiveBayesClassifier.log_posteriors` /
  :meth:`~NaiveBayesClassifier.classify`) walks the raw count dictionaries
  and calls ``math.log`` per (token, label) — the original implementation,
  kept verbatim as the equivalence reference;
* the batch path (:meth:`~NaiveBayesClassifier.log_posteriors_many` /
  :meth:`~NaiveBayesClassifier.classify_many`) lazily compiles the counts
  into a vocabulary index plus a dense numpy log-probability matrix
  (invalidated on teach), gathers each value's token columns and reduces
  them with ``np.add.accumulate`` — the same IEEE additions in the same
  left-to-right order as the scalar loop, so posteriors are bit-identical,
  while the ``math.log`` table is built once per compile instead of once
  per classified value.  Values are tokenized through the
  :mod:`~repro.matching.tokens` cache and their posterior rows memoized.

:meth:`~NaiveBayesClassifier.group_scorer` serves the early-disjunct merge
loop from the same dense statistics: a label group's column sums its
members' int64 token-count rows, builds its log row with the routine the
compiled matrix uses (:func:`_log_likelihoods`) and reduces each value
with a gather + ``np.add.accumulate`` in the same order, so it equals the
posterior a classifier taught with the group label computes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Any, Hashable, Sequence

import numpy as np

from ..matching.tokens import cached_qgrams
from .base import Classifier, GroupColumn, GroupScorer, value_key

__all__ = ["NaiveBayesClassifier"]

#: Sentinel distinguishing "not cached" from a cached None label.
_UNRESOLVED = object()


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

    __slots__ = ("q", "labels", "label_counts", "vocab_index", "unseen",
                 "log_matrix", "log_prior", "_row_cache", "_label_cache")

    def __init__(self, nb: "NaiveBayesClassifier"):
        self.q = nb.q
        self.labels, self.vocab_index, counts, totals = nb._dense_counts()
        self.label_counts: list[int] = [nb._label_counts[label]
                                        for label in self.labels]
        self.unseen = len(self.vocab_index)
        vocab_size = len(self.vocab_index) or 1
        self.log_matrix = np.empty(counts.shape, dtype=np.float64)
        for li, total in enumerate(totals):
            self.log_matrix[li] = _log_likelihoods(counts[li],
                                                   total + vocab_size)
        self.log_prior = np.array(
            [math.log(count / nb._examples) for count in self.label_counts],
            dtype=np.float64)
        #: Posterior rows / decisions memoized per distinct value (keyed by
        #: concrete class + value, so 1 / 1.0 / True stay distinct).
        self._row_cache: dict[tuple, np.ndarray] = {}
        self._label_cache: dict[tuple, Hashable] = {}

    def _columns_for(self, value: Any) -> list[int]:
        """Token columns of *value* (out-of-vocabulary tokens read the
        trailing ``unseen`` column)."""
        return [self.vocab_index.get(token, self.unseen)
                for token in cached_qgrams(value, self.q)]

    def posterior_row(self, value: Any) -> np.ndarray:
        """Per-label posteriors of *value*, ordered like :attr:`labels`.

        Reproduces the scalar accumulation exactly: the row starts at the
        log prior and adds one table entry per token occurrence, left to
        right, via ``np.add.accumulate`` (a strictly sequential reduction).
        """
        key = value_key(value)
        if key is not None:
            cached = self._row_cache.get(key)
            if cached is not None:
                return cached
        columns = self._columns_for(value)
        block = np.empty((len(self.labels), len(columns) + 1),
                         dtype=np.float64)
        block[:, 0] = self.log_prior
        if columns:
            block[:, 1:] = self.log_matrix[:, columns]
        np.add.accumulate(block, axis=1, out=block)
        row = block[:, -1].copy()
        if key is not None:
            self._row_cache[key] = row
        return row

    def _pick_label(self, row: np.ndarray) -> Hashable:
        """argmax over one posterior row with the scalar path's exact
        tie-breaking."""
        ties = np.flatnonzero(row == row.max())
        if len(ties) == 1:
            return self.labels[ties[0]]
        # Same ordering as max(posteriors, key=(posterior, count, repr))
        # restricted to the exact-maximum set.
        return self.labels[max(
            ties, key=lambda i: (self.label_counts[i],
                                 repr(self.labels[i])))]

    def classify_value(self, value: Any) -> Hashable | None:
        """argmax with the scalar path's exact tie-breaking."""
        if not self.labels:
            return None
        key = value_key(value)
        if key is not None and key in self._label_cache:
            return self._label_cache[key]
        label = self._pick_label(self.posterior_row(value))
        if key is not None:
            self._label_cache[key] = label
        return label

    def classify_batch(self, values: Sequence[Any]) -> list[Hashable | None]:
        """Batch argmax over many values with one accumulate per bucket.

        Distinct uncached values are bucketed by token count; each bucket
        classifies as a single (batch × labels × tokens+1) gather +
        ``np.add.accumulate`` — per (value, label) the identical sequential
        chain of IEEE additions as :meth:`posterior_row`, so decisions are
        bit-identical to per-value classification while the numpy call
        overhead is paid once per bucket instead of once per value.
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
                continue
            cached = self._label_cache.get(key, _UNRESOLVED)
            if cached is not _UNRESOLVED:
                out[position] = cached
            else:
                by_key.setdefault(key, []).append(position)
        for position in loose:
            out[position] = self._pick_label(
                self.posterior_row(values[position]))
        if not by_key:
            return out
        # Bucket distinct values by token count for rectangular batches.
        buckets: dict[int, tuple[list[tuple], list[list[int]]]] = {}
        for key, positions in by_key.items():
            columns = self._columns_for(values[positions[0]])
            keys, column_rows = buckets.setdefault(len(columns), ([], []))
            keys.append(key)
            column_rows.append(columns)
        for width, (keys, column_rows) in buckets.items():
            batch = len(keys)
            block = np.empty((batch, len(self.labels), width + 1),
                             dtype=np.float64)
            block[:, :, 0] = self.log_prior
            if width:
                gathered = self.log_matrix[
                    :, np.asarray(column_rows, dtype=np.intp)]
                block[:, :, 1:] = gathered.transpose(1, 0, 2)
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
                self._label_cache[key] = label
                for position in by_key[key]:
                    out[position] = label
        return out


class NaiveBayesClassifier(Classifier):
    """Laplace-smoothed multinomial NB on q-gram tokens."""

    def __init__(self, *, q: int = 3):
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self._token_counts: dict[Hashable, Counter] = defaultdict(Counter)
        self._token_totals: dict[Hashable, int] = defaultdict(int)
        self._label_counts: Counter = Counter()
        self._vocabulary: set[str] = set()
        self._examples = 0
        self._compiled: _CompiledNB | None = None

    def _tokens(self, value: Any) -> tuple[str, ...]:
        return cached_qgrams(value, self.q)

    def teach(self, value: Any, label: Hashable) -> None:
        tokens = self._tokens(value)
        self._label_counts[label] += 1
        self._examples += 1
        counts = self._token_counts[label]
        for token in tokens:
            counts[token] += 1
            self._vocabulary.add(token)
        self._token_totals[label] += len(tokens)
        self._compiled = None

    def teach_many(self, values: Sequence[Any],
                   labels: Sequence[Hashable]) -> None:
        """Bulk teach: per-value Counter/set updates run at C speed and the
        compiled representation is invalidated once.  Counts are integer
        sums, so the result is identical to per-value :meth:`teach`."""
        if len(values) != len(labels):
            raise ValueError(
                f"teach_many needs parallel sequences, got {len(values)} "
                f"values vs {len(labels)} labels")
        vocabulary = self._vocabulary
        for value, label in zip(values, labels):
            tokens = self._tokens(value)
            self._label_counts[label] += 1
            self._token_counts[label].update(tokens)
            self._token_totals[label] += len(tokens)
            vocabulary.update(tokens)
        self._examples += len(values)
        self._compiled = None

    @property
    def labels(self) -> frozenset[Hashable]:
        return frozenset(self._label_counts)

    def log_posteriors(self, value: Any) -> dict[Hashable, float]:
        """Unnormalized log posterior for every label (scalar path)."""
        if not self._label_counts:
            return {}
        tokens = self._tokens(value)
        vocab_size = len(self._vocabulary) or 1
        posteriors: dict[Hashable, float] = {}
        for label, label_count in self._label_counts.items():
            log_p = math.log(label_count / self._examples)
            counts = self._token_counts[label]
            denom = self._token_totals[label] + vocab_size
            for token in tokens:
                log_p += math.log((counts[token] + 1) / denom)
            posteriors[label] = log_p
        return posteriors

    def classify(self, value: Any) -> Hashable | None:
        posteriors = self.log_posteriors(value)
        if not posteriors:
            return None
        # Best posterior; ties break toward the more common label, then a
        # stable deterministic order.
        return max(
            posteriors,
            key=lambda lab: (posteriors[lab], self._label_counts[lab], repr(lab)),
        )

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def _dense_counts(self) -> tuple[list[Hashable], dict[str, int],
                                     np.ndarray, list[int]]:
        """(labels, vocabulary index, int64 count matrix, token totals):
        ``counts[l, t]`` is token *t*'s count under label *l* over the
        sorted vocabulary plus a trailing all-zero column for unseen
        tokens; labels keep teach order."""
        labels = list(self._label_counts)
        vocab_index = {token: i
                       for i, token in enumerate(sorted(self._vocabulary))}
        counts = np.zeros((len(labels), len(vocab_index) + 1),
                          dtype=np.int64)
        for li, label in enumerate(labels):
            label_counts = self._token_counts.get(label)
            if label_counts:
                counts[li, [vocab_index[token] for token in label_counts]] = \
                    list(label_counts.values())
        totals = [self._token_totals.get(label, 0) for label in labels]
        return labels, vocab_index, counts, totals

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

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the taught statistics only.

        The compiled log-probability matrix is a lazy, pure function of
        the counts; dropping it keeps worker-bound payloads small and the
        first worker-side :meth:`classify_many` recompiles from the
        restored counts — producing the exact same ``math.log`` table, so
        posteriors are bit-identical across the process boundary.
        """
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

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
        labels, vocab_index, self._counts, self._totals = nb._dense_counts()
        self.labels = tuple(labels)
        self._index = {label: i for i, label in enumerate(labels)}
        self._label_counts = [nb._label_counts[label] for label in labels]
        self._examples = nb._examples
        self._vocab_size = len(vocab_index) or 1
        unseen = len(vocab_index)
        row_of: dict[tuple, int] = {}
        rows: list[int] = []
        token_columns: list[list[int]] = []
        for value in values:
            key = value_key(value)
            row = row_of.get(key) if key is not None else None
            if row is None:
                row = len(token_columns)
                if key is not None:
                    row_of[key] = row
                token_columns.append(
                    [vocab_index.get(token, unseen)
                     for token in cached_qgrams(value, nb.q)])
            rows.append(row)
        self.rows = np.array(rows, dtype=np.intp)
        width = max(map(len, token_columns), default=0)
        #: Index of the 0.0 entry appended to every log row.
        self._padding = unseen + 1
        self._token_columns = np.full((len(token_columns), width),
                                      self._padding, dtype=np.intp)
        for row, columns in enumerate(token_columns):
            self._token_columns[row, :len(columns)] = columns

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
