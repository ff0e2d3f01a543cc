"""Integer codes of character q-grams, and the bags and rows built on them.

The instance matcher, the candidate-retrieval channels and the Naive
Bayes classifier all work on character q-grams (3-grams, Section 3.2.3)
of a value's :func:`~repro.matching.tokens.normalize_text` rendering,
wrapped in ``q - 1`` ``#`` padding markers.  Such a text holds only 38
characters — ``#``, ``0-9``, space and ``a-z`` — so a length-q gram read
as a q-digit base-38 number (digits in that order) is one exact integer
*code*, and the map is a bijection on grams.  This module owns the
format; no other module computes or decodes a code:

* :func:`encode_texts` encodes a batch of normalized texts in one numpy
  pass, one code array per text, in gram order;
* :class:`GramBag` holds a multiset of grams as ascending distinct codes
  and their counts; :func:`count` counts a sample's code arrays into one
  (:func:`count_many` the samples of a whole view block in one
  ``np.unique``), and :func:`merge` adds bags with one concatenation and
  one sort;
* :func:`bag_rows` lays bags out as CSR
  :class:`~repro.matching.similarity.TermRows` whose code → column lookup
  (:class:`CodeColumns`) is one ``searchsorted`` per query;
* :func:`gram_hashes` maps codes to the stable :func:`gram_hash` of their
  gram through a memo, so MinHash signatures do not depend on the
  encoding;
* :func:`decode` turns codes back into gram strings.

Codes are exact for 1 <= q <= :data:`MAX_Q` (38**12 < 2**63).  Code
arrays use the narrowest integer dtype that holds ``38**q`` codes
(:func:`code_dtype`: uint16 for q = 3) and bag counts are int32; kernels
widen both to int64 before multiplying.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .similarity import TermRows

__all__ = ["ALPHABET", "MAX_Q", "check_q", "code_dtype", "encode_texts",
           "decode", "GramBag", "count", "count_many", "merge",
           "CodeColumns", "bag_rows", "gram_hash", "gram_hashes"]

#: The characters a padded normalized text holds, in digit order.
ALPHABET = "#0123456789 abcdefghijklmnopqrstuvwxyz"
BASE = len(ALPHABET)
#: The largest q whose codes fit in int64.
MAX_Q = 12

_DIGITS = np.full(256, 255, dtype=np.uint8)
_DIGITS[np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)] = \
    np.arange(BASE, dtype=np.uint8)
_CHARS = np.frombuffer(ALPHABET.encode("ascii"), dtype="S1")


def check_q(q: int) -> None:
    """Raise ``ValueError`` unless codes of length-*q* grams are exact."""
    if not 1 <= q <= MAX_Q:
        raise ValueError(f"q must be in [1, {MAX_Q}], got {q}")


def code_dtype(q: int) -> np.dtype:
    """The narrowest integer dtype that holds every code of length *q*."""
    n_codes = BASE ** q
    for dtype in (np.uint8, np.uint16, np.uint32):
        if n_codes <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def encode_texts(texts: Sequence[str], q: int) -> list[np.ndarray]:
    """The codes of ``qgrams(text, q)`` for each normalized *text*, in
    gram order: every text is padded with ``q - 1`` markers on both
    sides, so each yields ``len(text) + q - 1`` grams (none when empty)."""
    dtype = code_dtype(q)
    if not texts:
        return []
    marker = "#" * (q - 1)
    padded = [f"{marker}{text}{marker}" if text else "" for text in texts]
    lengths = np.fromiter(map(len, padded), dtype=np.int64,
                          count=len(padded))
    n_grams = np.where(lengths > 0, lengths - (q - 1), 0)
    digits = _DIGITS[np.frombuffer("".join(padded).encode("ascii"),
                                   dtype=np.uint8)].astype(np.int64)
    windows = len(digits) - q + 1
    if windows <= 0:
        return [np.empty(0, dtype=dtype) for _ in texts]
    codes = digits[:windows].copy()
    for offset in range(1, q):  # Horner over the q digits of each window
        codes *= BASE
        codes += digits[offset:offset + windows]
    # The windows starting inside each text, skipping those that straddle
    # two texts.
    offsets = np.cumsum(lengths) - lengths
    ends = np.cumsum(n_grams)
    first = np.repeat(offsets - (ends - n_grams), n_grams)
    starts = first + np.arange(len(first), dtype=np.int64)
    return np.split(codes[starts].astype(dtype), ends[:-1])


def decode(codes: np.ndarray, q: int) -> tuple[str, ...]:
    """The grams behind *codes*, in order."""
    codes = np.asarray(codes, dtype=np.int64)
    powers = BASE ** np.arange(q - 1, -1, -1, dtype=np.int64)
    chars = _CHARS[(codes[:, None] // powers) % BASE]
    return tuple(gram.decode("ascii") for gram in
                 np.frombuffer(chars.tobytes(), dtype=f"S{q}"))


class GramBag:
    """A multiset of length-*q* grams: ascending distinct ``codes``
    (dtype :func:`code_dtype`) and their int32 ``counts``.

    ``len`` is the number of distinct grams, and an empty bag is falsy,
    like a gram ``Counter``.  Bags are immutable by convention: kernels
    and merges never write into their arrays.
    """

    __slots__ = ("q", "codes", "counts")

    def __init__(self, q: int, codes: np.ndarray, counts: np.ndarray):
        self.q = q
        self.codes = codes
        self.counts = counts

    @classmethod
    def empty(cls, q: int) -> "GramBag":
        return cls(q, np.empty(0, dtype=code_dtype(q)),
                   np.empty(0, dtype=np.int32))

    def __len__(self) -> int:
        return len(self.codes)

    def total(self) -> int:
        """The number of grams counted, repeats included."""
        return int(self.counts.sum(dtype=np.int64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GramBag):
            return NotImplemented
        return (self.q == other.q
                and np.array_equal(self.codes, other.codes)
                and np.array_equal(self.counts, other.counts))

    __hash__ = None  # type: ignore[assignment]

    def __getstate__(self) -> tuple:
        return self.q, self.codes, self.counts

    def __setstate__(self, state: tuple) -> None:
        self.q, self.codes, self.counts = state

    def __repr__(self) -> str:
        return (f"<GramBag q={self.q} {len(self)} distinct, "
                f"{self.total()} grams>")


def count(arrays: Sequence[np.ndarray], q: int) -> GramBag:
    """The bag of every gram in *arrays* (code arrays of one q)."""
    return count_many(arrays, [len(arrays)], q)[0]


def count_many(arrays: Sequence[np.ndarray], sizes: Sequence[int],
               q: int) -> list[GramBag]:
    """``count`` of each consecutive run of ``sizes[n]`` of *arrays*, in
    one ``np.unique``: each run's codes are offset by ``n * 38**q`` so
    the runs sort apart, then split at the offsets."""
    if not arrays:
        return [GramBag.empty(q) for _ in sizes]
    codes = np.concatenate(arrays)
    if len(sizes) == 1:
        codes, counts = np.unique(codes, return_counts=True)
        return [GramBag(q, codes, counts.astype(np.int32))]
    span = BASE ** q
    if span * len(sizes) > np.iinfo(np.int64).max:
        bounds = np.cumsum([0, *sizes]).tolist()
        return [count(arrays[a:b], q) for a, b in zip(bounds, bounds[1:])]
    # Grams per run: the code-array lengths summed over each run.
    ends = np.concatenate(([0], np.cumsum(
        np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays)))))
    grams_per_run = np.diff(ends[np.cumsum([0, *sizes])])
    offsets = np.arange(len(sizes), dtype=np.int64) * span
    keys, counts = np.unique(
        codes.astype(np.int64) + np.repeat(offsets, grams_per_run),
        return_counts=True)
    bounds = np.searchsorted(keys, np.append(offsets, span * len(sizes)))
    codes = (keys % span).astype(code_dtype(q))
    counts = counts.astype(np.int32)
    return [GramBag(q, codes[a:b], counts[a:b])
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


def merge(bags: Sequence[GramBag]) -> GramBag:
    """The sum of *bags* (all of one q): one concatenation, one sort and
    one segment sum of the counts."""
    q = bags[0].q
    codes = np.concatenate([bag.codes for bag in bags])
    if not codes.size:
        return GramBag.empty(q)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    counts = np.add.reduceat(
        np.concatenate([bag.counts for bag in bags])[order], starts)
    return GramBag(q, codes[starts], counts.astype(np.int32))


class CodeColumns:
    """Column lookup over an ascending vocabulary of codes: code ``c``
    reads the position of ``c`` in ``vocabulary``, and codes outside it
    read ``len(vocabulary)``.  One ``searchsorted`` per query, no Python
    call per gram."""

    __slots__ = ("vocabulary",)

    def __init__(self, vocabulary: np.ndarray):
        self.vocabulary = vocabulary

    def __len__(self) -> int:
        return len(self.vocabulary)

    def columns(self, codes: np.ndarray) -> np.ndarray:
        n = len(self.vocabulary)
        if not n:
            return np.zeros(np.shape(codes), dtype=np.intp)
        found = np.searchsorted(self.vocabulary, codes)
        inside = np.minimum(found, n - 1)
        return np.where(self.vocabulary[inside] == codes, found, n)


def bag_rows(bags: Sequence[GramBag]) -> TermRows:
    """*bags* as CSR rows over the union of their codes."""
    codes = (np.concatenate([bag.codes for bag in bags]) if bags
             else np.empty(0, dtype=np.int64))
    lookup = CodeColumns(np.unique(codes))
    indptr = np.zeros(len(bags) + 1, dtype=np.int64)
    np.cumsum([len(bag) for bag in bags], out=indptr[1:])
    counts = (np.concatenate([bag.counts for bag in bags]) if bags
              else np.empty(0, dtype=np.int32))
    return TermRows(indptr, lookup.columns(codes), counts, lookup)


def gram_hash(gram: str) -> int:
    """Stable 64-bit hash of one gram (process-independent, unlike
    builtin ``hash``)."""
    digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


#: q -> {code: gram_hash of its gram}.  Filling an entry twice stores the
#: same value, so concurrent callers need no lock.
_HASHES: dict[int, dict[int, int]] = {}
#: A q's memo is replaced by an empty one when it reaches this size.
_HASHES_MAX = 1 << 20


def gram_hashes(bag: GramBag) -> np.ndarray:
    """``gram_hash`` of each gram of *bag*, as uint64, aligned with
    ``bag.codes``.  Each distinct code is hashed once per process."""
    memo = _HASHES.get(bag.q)
    if memo is None or len(memo) >= _HASHES_MAX:
        memo = _HASHES[bag.q] = {}
    codes = bag.codes.tolist()
    missing = [code for code in codes if code not in memo]
    if missing:
        for code, gram in zip(missing, decode(np.array(missing), bag.q)):
            memo[code] = gram_hash(gram)
    return np.array([memo[code] for code in codes], dtype=np.uint64)
