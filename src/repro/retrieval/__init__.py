"""Candidate retrieval — prune the scoring frontier before the pipeline.

PRs 4-5 made each (source attribute x candidate view x matcher) scoring
pair cheap; this package makes the *set of pairs* small.  A hybrid
retrieve-then-rank prefilter (the SCHEMORA shape) runs over the target's
column profiles and hands the candidate-scoring stage a top-k frontier
per source attribute, so view rescoring stops being quadratic in target
schema width.

Module index
------------
:mod:`repro.retrieval.sparse`
    :class:`BM25Index` — Okapi BM25 ranked retrieval over the q-gram
    bags (integer gram codes and counts) the target index already
    computed, with CSR postings keyed by gram code.
:mod:`repro.retrieval.minhash`
    :class:`MinHashLSH` — stable (blake2b-based) MinHash signatures with
    banded LSH buckets over the same bags, catching near-duplicate value
    distributions by estimated Jaccard.
:mod:`repro.retrieval.index`
    :class:`RetrievalIndex` — the fused index built inside
    ``MatchEngine.prepare()`` (reciprocal rank fusion + name/type
    tie-breaks) for every target wider than ``retrieval_top_k``, carried
    on its ``PreparedTarget`` (and so stored and shipped inside it; the
    store has no kind of its own for a bare index), or built once per
    process for runs whose k prunes a target prepared without one;
    :class:`ScoringFrontier` — the per-relation
    position map + pruning counters the scoring stage consumes.

Guarantees
----------
* ``ContextMatchConfig.use_retrieval=False`` (or ``retrieval_top_k >=``
  the target's attribute count) is bit-identical to exhaustive scoring.
* The frontier always includes every accepted prototype target, so no RL
  entry is ever dropped — pruning can only shrink the Φ-normalization
  pool of *rejected* alternatives.
* ``retrieval_recall`` (accepted targets retrieved in the raw top-k) is
  pinned at 1.0 across the golden scenario grid.
"""

from .index import RRF_K, RetrievalIndex, ScoringFrontier
from .minhash import MinHashLSH
from .sparse import BM25Index

__all__ = ["BM25Index", "MinHashLSH", "RetrievalIndex", "ScoringFrontier",
           "RRF_K"]
