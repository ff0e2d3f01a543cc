"""MinHash-LSH channel for near-duplicate value distributions.

Two columns drawn from the same domain (product codes, state names,
prices rendered the same way) share most of their distinct q-grams even
when frequencies differ; Jaccard similarity over gram *sets* catches them
where tf-weighted scoring may not.  MinHash signatures estimate that
Jaccard cheaply, and banding the signatures into an LSH bucket table
makes lookup sublinear: a query only touches documents that collide with
it in at least one band.

Determinism matters here because the index is pickled into the artifact
store and must rank identically across processes: Python's builtin
``hash`` is salted per process, so base gram hashes are blake2b digests
of the gram strings (:func:`~repro.matching.grams.gram_hash`, read per
gram code through :func:`~repro.matching.grams.gram_hashes`' memo), and
the permutation family is multiply-shift over ``uint64`` (numpy wraps
unsigned overflow with C semantics — intended, that *is* the mod-2^64
arithmetic).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..matching.grams import GramBag, gram_hash, gram_hashes

__all__ = ["MinHashLSH", "gram_hash"]

#: Sentinel signature entry for empty documents: no gram hashes to
#: minimize, so every slot stays at the identity of ``min``.
_EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)


class MinHashLSH:
    """MinHash signatures + banded LSH buckets over gram-set documents.

    Parameters
    ----------
    documents:
        One :class:`~repro.matching.grams.GramBag` per document (only its
        distinct grams matter to Jaccard); document ids are list
        positions.
    num_perm:
        Signature length; more permutations = lower estimator variance.
    bands:
        Number of LSH bands (``num_perm`` must divide evenly).  With the
        defaults (64 permutations, 16 bands of 4 rows) the collision
        curve crosses ~50% Jaccard — near-duplicates almost surely share
        a bucket, unrelated columns almost surely don't.
    seed:
        Seed of the permutation family (part of the index's identity; two
        indexes built with equal inputs and seed are bit-equal).
    """

    def __init__(self, documents: Sequence[GramBag],
                 *, num_perm: int = 64, bands: int = 16, seed: int = 7):
        if num_perm < 1 or bands < 1 or num_perm % bands:
            raise ValueError(
                f"bands ({bands}) must evenly divide num_perm ({num_perm})")
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self.seed = seed
        rng = np.random.default_rng(seed)
        # Odd multipliers keep the multiply-shift family a bijection on
        # the uint64 ring.
        self.mult = rng.integers(1, 1 << 62, size=num_perm,
                                 dtype=np.uint64) * np.uint64(2) + np.uint64(1)
        self.add = rng.integers(0, 1 << 62, size=num_perm, dtype=np.uint64)
        if documents:
            self.signatures = np.stack(
                [self.signature(doc) for doc in documents])
        else:
            self.signatures = np.empty((0, num_perm), dtype=np.uint64)
        buckets: dict[tuple[int, bytes], list[int]] = {}
        for doc_id in range(len(documents)):
            for band, key in self._band_keys(self.signatures[doc_id]):
                buckets.setdefault((band, key), []).append(doc_id)
        self.buckets = buckets

    # ------------------------------------------------------------------
    def signature(self, grams: GramBag | None) -> np.ndarray:
        """The ``num_perm``-slot MinHash signature of one gram set (None
        reads as the empty set)."""
        if not grams:
            return np.full(self.num_perm, _EMPTY_SLOT, dtype=np.uint64)
        hashes = np.unique(gram_hashes(grams))
        with np.errstate(over="ignore"):
            permuted = self.mult[:, None] * hashes[None, :] \
                + self.add[:, None]
        return permuted.min(axis=1)

    def _band_keys(self, signature: np.ndarray):
        for band in range(self.bands):
            chunk = signature[band * self.rows:(band + 1) * self.rows]
            yield band, chunk.tobytes()

    # ------------------------------------------------------------------
    def query(self, grams: GramBag | None) -> list[tuple[int, float]]:
        """Documents sharing at least one LSH bucket with the query,
        ranked by estimated Jaccard (signature agreement fraction), ties
        by ascending document id."""
        if not len(self.signatures):
            return []
        sig = self.signature(grams)
        candidates: set[int] = set()
        for band, key in self._band_keys(sig):
            candidates.update(self.buckets.get((band, key), ()))
        scored = [
            (doc_id,
             float(np.count_nonzero(self.signatures[doc_id] == sig))
             / self.num_perm)
            for doc_id in candidates
        ]
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored

    def __len__(self) -> int:
        return len(self.signatures)

    def __repr__(self) -> str:
        return (f"<MinHashLSH {len(self.signatures)} docs, "
                f"{self.num_perm} perms x {self.bands} bands>")
