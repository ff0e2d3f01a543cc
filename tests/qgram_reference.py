"""String-keyed references for the integer q-gram code paths.

The matchers, the retrieval channels and Naive Bayes count q-grams as
integer codes (:mod:`repro.matching.grams`).  These are the plain
string-keyed forms they replaced, kept here so the tests can pin the
coded paths against them: a ``Counter`` profile and merge, a string
cosine, a string-token Naive Bayes, a string-postings BM25 and a MinHash
signature over gram strings.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.matching import grams
from repro.matching.grams import GramBag
from repro.matching.tokens import qgrams, value_to_text


def reference_grams(value: Any, q: int = 3) -> list[str]:
    return qgrams(value_to_text(value), q)


def reference_profile(values: Iterable[Any], q: int = 3) -> Counter:
    counts: Counter = Counter()
    for value in values:
        counts.update(reference_grams(value, q))
    return counts


def reference_merge(profiles: Iterable[Counter]) -> Counter:
    merged: Counter = Counter()
    for counts in profiles:
        merged.update(counts)
    return merged


def as_counter(bag: GramBag) -> Counter:
    """The gram ``Counter`` a bag encodes."""
    return Counter(dict(zip(grams.decode(bag.codes, bag.q),
                            bag.counts.tolist())))


def reference_cosine(source: Mapping[str, int],
                     target: Mapping[str, int]) -> float:
    """The q-gram matcher's score over gram ``Counter``s."""
    if not source or not target:
        return 0.0
    dot = sum(count * target.get(gram, 0) for gram, count in source.items())
    norm_s = math.sqrt(sum(c * c for c in source.values()))
    norm_t = math.sqrt(sum(c * c for c in target.values()))
    return dot / (norm_s * norm_t)


def code_order(gram: str) -> list[int]:
    """Sort key putting gram strings in the order of their codes."""
    return [grams.ALPHABET.index(char) for char in gram]


class ReferenceNB:
    """Multinomial Naive Bayes over gram strings: per-label ``Counter``s,
    ``math.log`` per (token, label), summed left to right."""

    def __init__(self, q: int = 3):
        self.q = q
        self.token_counts: dict[Hashable, Counter] = defaultdict(Counter)
        self.token_totals: dict[Hashable, int] = defaultdict(int)
        self.label_counts: Counter = Counter()
        self.vocabulary: set[str] = set()
        self.examples = 0

    def teach(self, value: Any, label: Hashable) -> None:
        tokens = reference_grams(value, self.q)
        self.label_counts[label] += 1
        self.examples += 1
        self.token_counts[label].update(tokens)
        self.vocabulary.update(tokens)
        self.token_totals[label] += len(tokens)

    def log_posteriors(self, value: Any) -> dict[Hashable, float]:
        if not self.label_counts:
            return {}
        tokens = reference_grams(value, self.q)
        vocab_size = len(self.vocabulary) or 1
        posteriors = {}
        for label, label_count in self.label_counts.items():
            log_p = math.log(label_count / self.examples)
            counts = self.token_counts[label]
            denom = self.token_totals[label] + vocab_size
            for token in tokens:
                log_p += math.log((counts[token] + 1) / denom)
            posteriors[label] = log_p
        return posteriors

    def classify(self, value: Any) -> Hashable | None:
        posteriors = self.log_posteriors(value)
        if not posteriors:
            return None
        return max(posteriors, key=lambda lab: (
            posteriors[lab], self.label_counts[lab], repr(lab)))


def reference_bm25(documents: Sequence[Mapping[str, int]],
                   query: Mapping[str, int] | None,
                   *, k1: float = 1.2, b: float = 0.75
                   ) -> list[tuple[int, float]]:
    """Okapi BM25 over gram-string documents, adding each document's
    contributions in the query's code order."""
    n_docs = len(documents)
    lengths = [sum(doc.values()) for doc in documents]
    avg = sum(lengths) / n_docs if n_docs else 0.0
    if not query or not n_docs or avg == 0.0:
        return []
    postings: dict[str, list[tuple[int, int]]] = {}
    for doc_id, doc in enumerate(documents):
        for gram, tf in doc.items():
            postings.setdefault(gram, []).append((doc_id, tf))
    scores: dict[int, float] = {}
    for gram in sorted(query, key=code_order):
        plist = postings.get(gram)
        if plist is None:
            continue
        idf = math.log(1.0 + (n_docs - len(plist) + 0.5)
                       / (len(plist) + 0.5))
        for doc_id, tf in plist:
            denom = tf + k1 * (1.0 - b + b * lengths[doc_id] / avg)
            scores[doc_id] = scores.get(doc_id, 0.0) \
                + idf * tf * (k1 + 1.0) / denom
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def reference_signature(lsh, gram_strings: Iterable[str]) -> np.ndarray:
    """A MinHash signature from the gram strings' blake2b hashes."""
    hashes = np.array(sorted({grams.gram_hash(g) for g in gram_strings}),
                      dtype=np.uint64)
    if hashes.size == 0:
        return np.full(lsh.num_perm, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
    with np.errstate(over="ignore"):
        permuted = lsh.mult[:, None] * hashes[None, :] + lsh.add[:, None]
    return permuted.min(axis=1)


def reference_lsh_query(lsh, documents: Sequence[Iterable[str]],
                        query: Iterable[str]) -> list[tuple[int, float]]:
    """``MinHashLSH.query`` ranked from string-hashed signatures."""
    signatures = [reference_signature(lsh, doc) for doc in documents]
    sig = reference_signature(lsh, query)
    candidates = {
        doc_id for doc_id, doc_sig in enumerate(signatures)
        if any((doc_sig[band * lsh.rows:(band + 1) * lsh.rows]
                == sig[band * lsh.rows:(band + 1) * lsh.rows]).all()
               for band in range(lsh.bands))}
    scored = [(doc_id, float(np.count_nonzero(signatures[doc_id] == sig))
               / lsh.num_perm) for doc_id in candidates]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored
