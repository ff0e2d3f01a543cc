"""Sparse BM25 channel over q-gram profiles.

The target side of a prepared schema already carries one q-gram
:class:`~repro.matching.grams.GramBag` per attribute (the ``qgram``
matcher's profile: integer gram codes and their counts, built once by
:class:`~repro.matching.standard.TargetIndex` through the shared
:class:`~repro.matching.tokens.QGramCache`).  Treating those bags as
bag-of-grams documents turns candidate retrieval into classic sparse
ranked retrieval: an inverted postings list per gram code and Okapi BM25
scoring, which rewards rare shared grams (high idf) and saturates on
repeated ones.

The postings are CSR arrays keyed by a sorted code vocabulary.  A query
scores every (query gram, document) posting at once and adds each
document's contributions in the query bag's order (ascending code) with
``np.add.accumulate``, a sequential sum.  Rankings are deterministic
across processes — ties break by ascending document id.

An index pickles its documents and constants, not its postings: the
postings, idf and lookup are a pure function of the documents and are
rebuilt on load.  The documents are the very bags of
``TargetIndex.profiles["qgram"]``, so a pickled prepared target (a store
blob, an executor chunk) holds each bag once.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..matching.grams import CodeColumns, GramBag

__all__ = ["BM25Index"]


class BM25Index:
    """Okapi BM25 over gram-frequency documents.

    Parameters
    ----------
    documents:
        One :class:`~repro.matching.grams.GramBag` per document; document
        ids are list positions.  Empty documents are allowed (they simply
        never score).
    k1, b:
        The standard Okapi saturation / length-normalization constants.
    """

    def __init__(self, documents: Sequence[GramBag],
                 *, k1: float = 1.2, b: float = 0.75):
        self.documents = list(documents)
        self.k1 = k1
        self.b = b
        self._derive()

    def __getstate__(self) -> dict:
        """The documents and constants only: the postings, idf and lookup
        are a pure function of them, rebuilt on load."""
        return {"documents": self.documents, "k1": self.k1, "b": self.b}

    def __setstate__(self, state: dict) -> None:
        self.documents = state["documents"]
        self.k1 = state["k1"]
        self.b = state["b"]
        self._derive()

    def _derive(self) -> None:
        documents = self.documents
        self.n_docs = len(documents)
        self.doc_lengths = np.array([doc.total() for doc in documents],
                                    dtype=np.int64)
        total = int(self.doc_lengths.sum())
        self.avg_length = (total / self.n_docs) if self.n_docs else 0.0
        codes = (np.concatenate([doc.codes for doc in documents])
                 if documents else np.empty(0, dtype=np.int64))
        docs = np.repeat(np.arange(self.n_docs, dtype=np.int32),
                         [len(doc) for doc in documents])
        tfs = (np.concatenate([doc.counts for doc in documents])
               if documents else np.empty(0, dtype=np.int32))
        # A stable sort by code keeps each posting list in document order.
        order = np.argsort(codes, kind="stable")
        vocabulary, df = np.unique(codes, return_counts=True)
        self.lookup = CodeColumns(vocabulary)
        self.indptr = np.concatenate(([0], np.cumsum(df))).astype(np.int64)
        self.posting_docs = docs[order]
        self.posting_tfs = tfs[order]
        # idf with the +1 inside the log (always positive, even for grams
        # present in more than half the documents); math.log once per
        # distinct document frequency.
        by_df = {int(n): math.log(1.0 + (self.n_docs - n + 0.5) / (n + 0.5))
                 for n in np.unique(df).tolist()}
        self.idf = np.array([by_df[n] for n in df.tolist()],
                            dtype=np.float64)

    def query(self, grams: GramBag | None,
              limit: int | None = None) -> list[tuple[int, float]]:
        """Ranked ``(doc_id, score)`` pairs for a gram-frequency query.

        Only documents sharing at least one gram with the query appear.
        The ranking is deterministic: descending score, then ascending
        document id.  ``limit`` truncates the result (None keeps every
        scored document — what rank fusion consumes).
        """
        if not grams or not self.n_docs or self.avg_length == 0.0:
            return []
        columns = self.lookup.columns(grams.codes)
        columns = columns[columns < len(self.lookup)]
        if not len(columns):
            return []
        starts = self.indptr[columns]
        sizes = self.indptr[columns + 1] - starts
        rows = np.repeat(np.arange(len(columns)), sizes)
        entries = (np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
                   + np.arange(len(rows)))
        docs = self.posting_docs[entries]
        tfs = self.posting_tfs[entries]
        lengths = self.k1 * (1.0 - self.b + self.b * self.doc_lengths
                             / self.avg_length)
        contributions = np.zeros((len(columns), self.n_docs))
        contributions[rows, docs] = (self.idf[columns][rows] * tfs
                                     * (self.k1 + 1.0)
                                     / (tfs + lengths[docs]))
        # Each document's contributions, added in query order; a zero
        # entry (a gram the document lacks) adds nothing.
        np.add.accumulate(contributions, axis=0, out=contributions)
        scores = contributions[-1].tolist()
        ranked = sorted(((doc, scores[doc]) for doc in
                         np.unique(docs).tolist()),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked if limit is None else ranked[:limit]

    def __len__(self) -> int:
        return self.n_docs

    def __repr__(self) -> str:
        return (f"<BM25Index {self.n_docs} docs, "
                f"{len(self.lookup)} grams>")
