"""The hybrid retrieval index and the pruned scoring frontier.

:class:`RetrievalIndex` fuses the two channels over one prepared target:

* :class:`~repro.retrieval.sparse.BM25Index` — tf-weighted sparse ranking
  over q-gram profiles (distribution-aware): CSR postings keyed by gram
  code;
* :class:`~repro.retrieval.minhash.MinHashLSH` — Jaccard-estimating
  near-duplicate buckets over the same grams (set-aware): signatures
  from the memoized blake2b hash of each gram code's gram.

Both take the ``qgram`` matcher's :class:`~repro.matching.grams.GramBag`
profiles as documents and a source column's bag as the query.

Channel rankings are blended with reciprocal rank fusion and ties broken
by cheap schema-level signals (attribute-name token overlap, then type
compatibility, then stable position order), so a query always yields a
deterministic ``min(k, n_targets)``-sized frontier — with ``k`` at or
above the target's attribute count, retrieval degrades to the identity
and pruned runs are bit-identical to exhaustive ones.

:class:`ScoringFrontier` is the consumer-side handle: it maps each source
attribute to its retrieved target positions and tallies the pruning
economics (``pairs_considered`` / ``pairs_pruned``) that stage reports
surface.  A frontier without a position map is the exhaustive reference —
it counts pairs but never prunes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from ..matching.grams import GramBag
from ..matching.tokens import word_tokens
from .minhash import MinHashLSH
from .sparse import BM25Index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..matching.standard import TargetIndex
    from ..relational.schema import Attribute

__all__ = ["RetrievalIndex", "ScoringFrontier", "RRF_K"]

#: Reciprocal-rank-fusion constant (the standard 60 from Cormack et al.);
#: large enough that a document's fused score degrades gracefully with
#: rank instead of being dominated by a single channel's top hit.
RRF_K = 60


def _name_overlap(query_tokens: frozenset, target_tokens: frozenset) -> float:
    """Jaccard overlap of word-token sets (0.0 when either side is empty)."""
    if not query_tokens or not target_tokens:
        return 0.0
    union = len(query_tokens | target_tokens)
    return len(query_tokens & target_tokens) / union if union else 0.0


class RetrievalIndex:
    """Prefilter over one prepared target's column profiles.

    Built by :meth:`~repro.engine.engine.MatchEngine.prepare` only where
    it can prune — the target index carries a ``qgram`` channel and the
    target has more attributes than the engine's ``retrieval_top_k`` —
    and carried on the :class:`~repro.engine.prepared.PreparedTarget`, in
    whose pickle and store blob it travels.  A run whose own k is below
    the attribute count of a target prepared without one uses a run-local
    index
    (:meth:`~repro.engine.prepared.PreparedTarget.run_local_retrieval`),
    built once per process and never written onto the artifact.
    Querying never changes the index, so concurrent runs may share it,
    and its pickle is a pure function of its content.  The stage counts
    tally each run's queries.
    """

    def __init__(self, refs: Sequence[tuple[str, str]],
                 dtypes: Sequence, name_tokens: Sequence[frozenset],
                 sparse: BM25Index, lsh: MinHashLSH):
        self.refs = list(refs)
        self.dtypes = list(dtypes)
        self.name_tokens = list(name_tokens)
        self.sparse = sparse
        self.lsh = lsh
        self._position: dict[tuple[str, str], int] = {
            ref: i for i, ref in enumerate(self.refs)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, index: "TargetIndex") -> bool:
        """Whether a retrieval index can serve *index*: it must carry the
        q-gram channel the retrieval index is built from."""
        return "qgram" in index.profiles

    @classmethod
    def build(cls, index: "TargetIndex") -> "RetrievalIndex":
        """Index every target attribute of a prepared
        :class:`~repro.matching.standard.TargetIndex`.

        The q-gram profiles were already computed (once, through the
        shared :class:`~repro.matching.tokens.QGramCache`) when the
        target index was built — both channels reuse them verbatim, so
        building the retrieval index adds no re-tokenization work.
        """
        gram_profiles = index.profiles["qgram"]
        refs = [(s.table, s.name) for s in index.samples]
        dtypes = [s.attribute.dtype for s in index.samples]
        name_tokens = [frozenset(word_tokens(s.name)) for s in index.samples]
        return cls(refs=refs, dtypes=dtypes, name_tokens=name_tokens,
                   sparse=BM25Index(gram_profiles),
                   lsh=MinHashLSH(gram_profiles))

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    @property
    def n_targets(self) -> int:
        return len(self.refs)

    def position_of(self, table: str, attribute: str) -> int | None:
        """Target position of ``table.attribute`` (None when unknown)."""
        return self._position.get((table, attribute))

    def query(self, attribute: "Attribute",
              grams: GramBag | None, k: int) -> list[int]:
        """The top-``min(k, n_targets)`` target positions for one source
        attribute, ascending — a deterministic pure function of the index
        content and the query.

        ``grams`` is the source column's q-gram bag (the ``qgram``
        matcher's profile; None degrades to schema-signal-only ranking).
        Fusion: reciprocal-rank blend of the BM25 and LSH channel
        rankings, ties broken by name-token overlap with the query
        attribute, then type compatibility, then position.
        """
        n = self.n_targets
        if k >= n:
            # Identity frontier: pruning disabled by construction, and the
            # exhaustive iteration order is preserved exactly.
            return list(range(n))
        fused = [0.0] * n
        sparse_ranked = self.sparse.query(grams)
        lsh_ranked = self.lsh.query(grams)
        for channel in (sparse_ranked, lsh_ranked):
            for rank, (doc_id, _score) in enumerate(channel):
                fused[doc_id] += 1.0 / (RRF_K + rank + 1)
        query_tokens = frozenset(word_tokens(attribute.name))
        dtype = attribute.dtype

        def type_compat(i: int) -> int:
            other = self.dtypes[i]
            if other == dtype:
                return 2
            if (other.is_textual == dtype.is_textual
                    and other.is_numeric == dtype.is_numeric):
                return 1
            return 0

        order = sorted(
            range(n),
            key=lambda i: (-fused[i],
                           -_name_overlap(query_tokens, self.name_tokens[i]),
                           -type_compat(i), i))
        return sorted(order[:k])

    def __repr__(self) -> str:
        return f"<RetrievalIndex {self.n_targets} targets>"


class ScoringFrontier:
    """Per-source-attribute target subsets + pruning tallies for one
    relation's candidate rescoring.

    ``positions`` maps source attribute name -> ascending target
    positions (always a superset of the attribute's accepted prototype
    targets, so every RL entry survives pruning).  A frontier built with
    ``positions=None`` never prunes — it only counts pairs, giving the
    exhaustive path the same ``pairs_considered`` accounting.
    """

    def __init__(self, n_targets: int,
                 positions: Mapping[str, Sequence[int]] | None = None):
        self.n_targets = n_targets
        self.positions = (
            {attr: tuple(pos) for attr, pos in positions.items()}
            if positions is not None else None)
        self.pairs_considered = 0
        self.pairs_pruned = 0

    def positions_for(self, attr_name: str, *,
                      views: int = 1) -> tuple[int, ...] | None:
        """Target positions to rescore *attr_name* against (None =
        everything), tallying the considered/pruned pair counts of
        rescoring it in *views* views."""
        if self.positions is None:
            self.pairs_considered += views * self.n_targets
            return None
        positions = self.positions.get(attr_name)
        if positions is None:
            # Attribute unseen at frontier-build time (defensive): score
            # exhaustively rather than dropping evidence.
            self.pairs_considered += views * self.n_targets
            return None
        self.pairs_considered += views * len(positions)
        self.pairs_pruned += views * (self.n_targets - len(positions))
        return positions

    def counts(self) -> dict[str, int]:
        return {"pairs_considered": self.pairs_considered,
                "pairs_pruned": self.pairs_pruned}
