"""String and set similarity measures used by the matcher zoo.

All functions return similarities in ``[0, 1]``; 1 means identical.

:class:`TermRows` with :func:`cosine_rows_many` and
:func:`jaccard_rows_many` are the many-sources-against-many-targets forms
of :func:`cosine_counts` and :func:`jaccard` (:func:`cosine_rows` and
:func:`jaccard_rows` are their one-source calls): the targets are laid
out once as integer CSR rows over a shared vocabulary, each source is
read against the chosen rows with exact int64 sums, one source vector at
a time, and each (source, row) score takes the same final IEEE
operations as the scalar function, so the two agree bit for bit.  The
overlap matcher's rows hold value strings behind a dict lookup
(:meth:`TermRows.from_sets`); the q-gram matcher's hold integer gram
codes behind a sorted-array lookup (:func:`repro.matching.grams.bag_rows`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from typing import Collection, Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "jaro",
    "jaro_winkler",
    "jaccard",
    "cosine_counts",
    "containment",
    "TermRows",
    "cosine_rows",
    "cosine_rows_many",
    "jaccard_rows",
    "jaccard_rows_many",
]


def jaro(a: str, b: str) -> float:
    """Jaro similarity."""
    if a == b:
        return 1.0
    if not a or not b:
        return 0.0
    window = max(len(a), len(b)) // 2 - 1
    window = max(window, 0)
    matched_a = [False] * len(a)
    matched_b = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        lo = max(0, i - window)
        hi = min(len(b), i + window + 1)
        for j in range(lo, hi):
            if matched_b[j] or b[j] != char_a:
                continue
            matched_a[i] = matched_b[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, flag in enumerate(matched_a):
        if not flag:
            continue
        while not matched_b[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    m = float(matches)
    return (m / len(a) + m / len(b) + (m - transpositions) / m) / 3.0


def jaro_winkler(a: str, b: str, *, prefix_scale: float = 0.1,
                 max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by a shared prefix."""
    base = jaro(a, b)
    prefix = 0
    for char_a, char_b in zip(a, b):
        if char_a != char_b or prefix >= max_prefix:
            break
        prefix += 1
    return base + prefix * prefix_scale * (1.0 - base)


def jaccard(a: Iterable[Hashable], b: Iterable[Hashable]) -> float:
    """Jaccard similarity of two sets."""
    set_a, set_b = set(a), set(b)
    if not set_a and not set_b:
        return 1.0
    union = len(set_a | set_b)
    if union == 0:
        return 1.0
    return len(set_a & set_b) / union


def containment(a: Iterable[Hashable], b: Iterable[Hashable]) -> float:
    """|A ∩ B| / |A| — how much of A is covered by B (asymmetric)."""
    set_a, set_b = set(a), set(b)
    if not set_a:
        return 1.0 if not set_b else 0.0
    return len(set_a & set_b) / len(set_a)


def cosine_counts(a: Mapping[Hashable, int] | Sequence[Hashable],
                  b: Mapping[Hashable, int] | Sequence[Hashable]) -> float:
    """Cosine similarity between two term-frequency vectors.

    Accepts either Counters/mappings or raw token sequences.  The scalar
    reference of :func:`cosine_rows`: the dot product and both squared
    norms are exact integer sums, so the result is one square root per
    norm and one IEEE division.
    """
    counter_a = a if isinstance(a, Mapping) else Counter(a)
    counter_b = b if isinstance(b, Mapping) else Counter(b)
    if not counter_a or not counter_b:
        return 1.0 if not counter_a and not counter_b else 0.0
    # Iterate the smaller vector for the dot product.
    if len(counter_a) > len(counter_b):
        counter_a, counter_b = counter_b, counter_a
    dot = sum(count * counter_b.get(term, 0) for term, count in counter_a.items())
    norm_a = math.sqrt(sum(c * c for c in counter_a.values()))
    norm_b = math.sqrt(sum(c * c for c in counter_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


class TermRows:
    """Term-count rows in CSR layout over one shared vocabulary.

    Row ``i``'s terms sit in columns ``indices[indptr[i]:indptr[i + 1]]``
    and their counts in the same slice of ``counts``.  ``lookup`` maps
    query terms to columns: its ``columns(terms)`` returns one column per
    term, ``len(lookup)`` for terms outside the vocabulary.  ``sizes``
    holds each row's number of distinct terms and ``norms`` each row's
    Euclidean norm, the square root of its exact integer sum of squared
    counts.  Counts are widened to int64; their products and row sums
    must fit in it.

    :meth:`from_sets` builds rows of hashable terms (the overlap matcher's
    value sets) with a dict lookup;
    :func:`~repro.matching.grams.bag_rows` builds rows of q-gram codes.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 counts: np.ndarray, lookup):
        self.indptr = indptr
        self.indices = indices
        self.counts = counts.astype(np.int64)
        self.lookup = lookup
        self.sizes = np.diff(self.indptr)
        # np.add.reduceat over the starts of non-empty rows sums each of
        # them; an empty row would otherwise read its neighbour's element.
        self._nonempty = self.sizes > 0
        self._starts = self.indptr[:-1][self._nonempty]
        self.norms = np.sqrt(self._row_sums(self.counts * self.counts)
                             .astype(np.float64))

    @classmethod
    def from_sets(cls, rows: Sequence[Iterable[Hashable]]) -> "TermRows":
        """Rows of 0/1 counts: one per distinct term of each set."""
        vocabulary: dict[Hashable, int] = {}
        indices: list[int] = []
        indptr = [0]
        for row in rows:
            for term in dict.fromkeys(row):
                indices.append(vocabulary.setdefault(term, len(vocabulary)))
            indptr.append(len(indices))
        return cls(np.asarray(indptr, dtype=np.int64),
                   np.asarray(indices, dtype=np.intp),
                   np.ones(len(indices), dtype=np.int64),
                   _TermColumns(vocabulary))

    def __len__(self) -> int:
        return len(self.sizes)

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        sums = np.zeros(len(self.sizes), dtype=np.int64)
        if self._starts.size:
            sums[self._nonempty] = np.add.reduceat(values, self._starts)
        return sums

    def dots_many(self, queries: Sequence[tuple[Collection[Hashable],
                                                np.ndarray | int]],
                  positions: Sequence[int]) -> np.ndarray:
        """Exact integer dot products, as an int64 (queries × positions)
        array: entry ``[n, j]`` is the dot product of row
        ``positions[j]`` with the vector that gives each of the distinct
        terms of ``queries[n] = (terms, counts)`` its entry of *counts*
        (a scalar gives them all the same count).  Terms outside the
        vocabulary meet no row and add nothing.

        The rows at *positions* are gathered once; each query then fills
        one vocabulary-sized vector, reads it at those rows' entries and
        clears it again, so no (queries × vocabulary) array is built."""
        rows = np.asarray(positions, dtype=np.intp)
        out = np.zeros((len(queries), len(rows)), dtype=np.int64)
        sizes = self.sizes[rows]
        ends = np.cumsum(sizes)
        if not len(queries) or not len(rows) or not ends[-1]:
            return out
        entries = (np.repeat(self.indptr[:-1][rows] - (ends - sizes), sizes)
                   + np.arange(ends[-1]))
        indices = self.indices[entries]
        counts = self.counts[entries]
        nonempty = sizes > 0
        starts = (ends - sizes)[nonempty]
        dense = np.zeros(len(self.lookup) + 1, dtype=np.int64)
        for n, (terms, query_counts) in enumerate(queries):
            columns = self.lookup.columns(terms)
            dense[columns] = query_counts
            out[n, nonempty] = np.add.reduceat(dense[indices] * counts,
                                               starts)
            dense[columns] = 0
        return out


class _TermColumns:
    """Dict lookup of hashable terms for :meth:`TermRows.from_sets`."""

    __slots__ = ("vocabulary",)

    def __init__(self, vocabulary: dict[Hashable, int]):
        self.vocabulary = vocabulary

    def __len__(self) -> int:
        return len(self.vocabulary)

    def columns(self, terms: Collection[Hashable]) -> np.ndarray:
        oov = len(self.vocabulary)
        return np.fromiter(map(self.vocabulary.get, terms, repeat(oov)),
                           dtype=np.intp, count=len(terms))


def _empty_source_scores(rows: TermRows, at: np.ndarray) -> np.ndarray:
    """Score of an empty source: 1 against empty rows, 0 otherwise."""
    return np.where(rows.sizes[at] == 0, 1.0, 0.0)


def cosine_rows_many(queries: Sequence[tuple[Collection[Hashable],
                                             np.ndarray]],
                     rows: TermRows, positions: Sequence[int]) -> np.ndarray:
    """Cosine similarity of each query vector ``(terms, counts)`` — each
    of the distinct *terms* weighted by its entry of *counts* — with the
    rows at *positions*, as a float64 (queries × positions) array.

    The same arithmetic as :func:`cosine_counts`: integer dot products
    and squared norms, one ``sqrt`` per norm, the same product of norms
    and one division per (query, row), so the two agree bit for bit.
    """
    at = np.asarray(positions, dtype=np.intp)
    scores = np.zeros((len(queries), len(at)))
    live: list[int] = []
    norms: list[float] = []
    for n, (terms, counts) in enumerate(queries):
        if not len(terms):
            scores[n] = _empty_source_scores(rows, at)
            continue
        counts = np.asarray(counts, dtype=np.int64)
        norm = math.sqrt(int(counts @ counts))
        if norm != 0.0:
            live.append(n)
            norms.append(norm)
    if not live:
        return scores
    row_norms = rows.norms[at]
    scored = row_norms != 0.0
    dots = rows.dots_many([queries[n] for n in live], at)
    scores[np.ix_(live, np.flatnonzero(scored))] = (
        dots[:, scored] / (np.asarray(norms)[:, None] * row_norms[scored]))
    return scores


def cosine_rows(terms, counts: np.ndarray, rows: TermRows) -> np.ndarray:
    """:func:`cosine_rows_many` of one query against every row."""
    return cosine_rows_many([(terms, counts)], rows, range(len(rows)))[0]


def jaccard_rows_many(sources: Sequence[Collection[Hashable]],
                      rows: TermRows, positions: Sequence[int]) -> np.ndarray:
    """``jaccard(source, row)`` of each of *sources* with each row at
    *positions* of ``TermRows.from_sets`` rows, as a float64 (sources ×
    positions) array: |A ∩ B| / (|A| + |B| − |A ∩ B|) from exact integer
    counts, one IEEE division per (source, row)."""
    at = np.asarray(positions, dtype=np.intp)
    scores = np.zeros((len(sources), len(at)))
    sets = [source if isinstance(source, (set, frozenset)) else set(source)
            for source in sources]
    live = [n for n, terms in enumerate(sets) if terms]
    for n, terms in enumerate(sets):
        if not terms:
            scores[n] = _empty_source_scores(rows, at)
    if not live:
        return scores
    shared = rows.dots_many([(sets[n], 1) for n in live], at)
    lengths = np.array([len(sets[n]) for n in live], dtype=np.int64)
    scores[live] = shared / (lengths[:, None] + rows.sizes[at] - shared)
    return scores


def jaccard_rows(source: Collection[Hashable],
                 rows: TermRows) -> np.ndarray:
    """:func:`jaccard_rows_many` of one source against every row."""
    return jaccard_rows_many([source], rows, range(len(rows)))[0]
