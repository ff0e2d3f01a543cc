"""Unit tests of the candidate-retrieval package: the BM25 channel, the
MinHash-LSH channel, the fused :class:`RetrievalIndex` and the
:class:`ScoringFrontier` bookkeeping."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import make_retail_workload
from repro.matching import QGramMatcher
from repro.matching.grams import GramBag
from repro.matching.matchers import AttributeSample
from repro.relational import Attribute, DataType
from repro.retrieval import (BM25Index, MinHashLSH, RetrievalIndex,
                             ScoringFrontier)
from repro.retrieval.minhash import gram_hash


def _grams(text: str, q: int = 3) -> GramBag:
    """The q-gram bag of one value, as the ``qgram`` matcher profiles it."""
    return QGramMatcher(q=q).profile(
        AttributeSample("t", Attribute("a", DataType.TEXT), (text,)))


class TestBM25Index:
    def test_exact_duplicate_ranks_first(self):
        docs = [_grams("hardcover"), _grams("audio cd"),
                _grams("monday tuesday wednesday")]
        index = BM25Index(docs)
        ranked = index.query(_grams("hardcover"))
        assert ranked[0][0] == 0
        assert ranked[0][1] > 0.0

    def test_deterministic_ordering_with_ties(self):
        docs = [_grams("abc"), _grams("abc"), _grams("xyz")]
        ranked = BM25Index(docs).query(_grams("abc"))
        # Equal scores break by ascending document id.
        assert [doc_id for doc_id, _ in ranked] == [0, 1]
        assert ranked[0][1] == ranked[1][1]

    def test_empty_query_and_empty_index(self):
        index = BM25Index([_grams("abc")])
        assert index.query(None) == []
        assert index.query(GramBag.empty(3)) == []
        empty = BM25Index([])
        assert empty.query(_grams("abc")) == []
        assert len(empty) == 0

    def test_empty_documents_never_score(self):
        index = BM25Index([GramBag.empty(3), _grams("abc"),
                           GramBag.empty(3)])
        ranked = index.query(_grams("abc"))
        assert [doc_id for doc_id, _ in ranked] == [1]

    def test_limit_truncates(self):
        docs = [_grams(f"value {i}") for i in range(10)]
        index = BM25Index(docs)
        assert len(index.query(_grams("value 1"), limit=3)) == 3

    def test_rare_gram_outweighs_common(self):
        # "zq" appears in one doc, " a" in many: the rare gram's idf must
        # dominate when both appear once in the query.
        docs = [_grams("a zq"), _grams("a b"), _grams("a c"),
                _grams("a d")]
        index = BM25Index(docs)
        ranked = index.query(_grams("a zq"))
        assert ranked[0][0] == 0


class TestBM25Pickle:
    """An index pickles its document bags and constants; the postings,
    idf and lookup are rebuilt on load."""

    @pytest.fixture(scope="class")
    def documents(self, prepared_retail):
        return prepared_retail.index.profiles["qgram"]

    def test_state_is_documents_and_constants(self, documents):
        index = BM25Index(documents, k1=1.5, b=0.6)
        state = index.__getstate__()
        assert set(state) == {"documents", "k1", "b"}
        assert state["documents"] == documents
        assert (state["k1"], state["b"]) == (1.5, 0.6)

    def test_loaded_index_ranks_like_the_built_one(self, documents):
        index = BM25Index(documents)
        loaded = pickle.loads(pickle.dumps(index))
        rng = np.random.default_rng(11)
        codes = np.unique(np.concatenate([d.codes for d in documents]))
        queries = list(documents) + [GramBag.empty(3), None]
        for _ in range(25):
            picked = np.unique(rng.choice(codes, size=rng.integers(1, 40)))
            queries.append(GramBag(3, picked.astype(codes.dtype),
                                   rng.integers(1, 5, len(picked))
                                   .astype(np.int32)))
        for query in queries:
            assert loaded.query(query) == index.query(query)
            assert loaded.query(query, limit=3) == index.query(query,
                                                                limit=3)

    def test_equal_content_pickles_byte_equal(self, documents):
        copies = [GramBag(bag.q, bag.codes.copy(), bag.counts.copy())
                  for bag in documents]
        assert pickle.dumps(BM25Index(documents)) \
            == pickle.dumps(BM25Index(copies))
        index = BM25Index(documents)
        index.query(documents[0])
        assert pickle.dumps(index) == pickle.dumps(BM25Index(documents))

    def test_prepared_target_holds_each_bag_once(self, prepared_retail):
        """The index's documents are the target index's q-gram profiles,
        so a pickled prepared target carries them once."""
        sparse = prepared_retail.retrieval.sparse
        assert all(doc is bag for doc, bag in zip(
            sparse.documents, prepared_retail.index.profiles["qgram"]))
        alone = len(pickle.dumps(prepared_retail.index))
        together = len(pickle.dumps((prepared_retail.index, sparse)))
        assert together - alone < 2048


class TestMinHashLSH:
    def test_gram_hash_is_process_stable(self):
        # blake2b-derived, so this value is a constant of the test suite.
        assert gram_hash("abc") == int.from_bytes(
            __import__("hashlib").blake2b(b"abc", digest_size=8).digest(),
            "big")

    def test_identical_documents_collide_with_estimate_one(self):
        grams = _grams("hardcover paperback")
        lsh = MinHashLSH([grams, _grams("audio cd")])
        ranked = lsh.query(grams)
        assert ranked[0] == (0, 1.0)

    def test_disjoint_documents_do_not_collide(self):
        lsh = MinHashLSH([_grams("aaaa bbbb cccc")])
        ranked = lsh.query(_grams("xxxx yyyy zzzz"))
        assert ranked == []

    def test_cross_instance_determinism(self):
        docs = [_grams(f"value number {i}") for i in range(6)]
        first = MinHashLSH(docs)
        second = MinHashLSH(docs)
        np.testing.assert_array_equal(first.signatures, second.signatures)
        assert first.buckets.keys() == second.buckets.keys()
        query = _grams("value number 3")
        assert first.query(query) == second.query(query)

    def test_pickle_round_trip_preserves_rankings(self):
        docs = [_grams(f"row {i}") for i in range(4)]
        lsh = MinHashLSH(docs)
        restored = pickle.loads(pickle.dumps(lsh))
        query = _grams("row 2")
        assert restored.query(query) == lsh.query(query)

    def test_empty_document_gets_sentinel_signature(self):
        lsh = MinHashLSH([GramBag.empty(3), _grams("abc")])
        assert (lsh.signatures[0] == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_bands_must_divide_num_perm(self):
        with pytest.raises(ValueError):
            MinHashLSH([], num_perm=64, bands=7)


@pytest.fixture(scope="module")
def prepared_retail():
    """The 12-attribute retail target prepared at k = 4: prepare builds
    the index only where k is below the attribute count."""
    workload = make_retail_workload(target="ryan", gamma=2, n_source=200,
                                    seed=3)
    engine = MatchEngine(ContextMatchConfig(inference="src", seed=2,
                                            retrieval_top_k=4))
    return engine.prepare(workload.target)


class TestRetrievalIndex:
    def test_built_on_prepare(self, prepared_retail):
        retrieval = prepared_retail.retrieval
        assert isinstance(retrieval, RetrievalIndex)
        assert retrieval.n_targets == len(prepared_retail.index.samples)
        assert retrieval.refs == [(s.table, s.name)
                                  for s in prepared_retail.index.samples]
        # At the default k (16) the frontier is the whole target, so a
        # default prepare of the same target carries no index.
        default = MatchEngine(ContextMatchConfig(inference="src", seed=2))
        assert default.config.retrieval_top_k >= retrieval.n_targets
        assert default.prepare(prepared_retail.target).retrieval is None

    def test_query_k_at_or_above_n_is_identity(self, prepared_retail):
        retrieval = prepared_retail.retrieval
        sample = prepared_retail.index.samples[0]
        identity = list(range(retrieval.n_targets))
        assert retrieval.query(sample.attribute, None,
                               retrieval.n_targets) == identity
        assert retrieval.query(sample.attribute, None, 10_000) == identity

    def test_self_retrieval(self, prepared_retail):
        """Every target attribute retrieves its own position at small k
        when queried with its own gram profile."""
        retrieval = prepared_retail.retrieval
        profiles = prepared_retail.index.profiles["qgram"]
        k = max(1, retrieval.n_targets // 2)
        for position, sample in enumerate(prepared_retail.index.samples):
            retrieved = retrieval.query(sample.attribute,
                                        profiles[position], k)
            assert len(retrieved) == k
            assert retrieved == sorted(retrieved)
            assert position in retrieved

    def test_position_of(self, prepared_retail):
        retrieval = prepared_retail.retrieval
        for position, (table, attr) in enumerate(retrieval.refs):
            assert retrieval.position_of(table, attr) == position
        assert retrieval.position_of("nope", "nothing") is None

    def test_pickle_is_deterministic(self, prepared_retail):
        retrieval = prepared_retail.retrieval
        sample = prepared_retail.index.samples[0]
        profiles = prepared_retail.index.profiles["qgram"]
        before = pickle.dumps(retrieval)
        retrieval.query(sample.attribute, profiles[0], 2)
        after = pickle.dumps(retrieval)
        # Querying leaves the index unchanged: the payload is a pure
        # function of the index content (store dedup-by-digest relies on
        # this).
        assert before == after
        restored = pickle.loads(after)
        assert restored.query(sample.attribute, profiles[0], 2) \
            == retrieval.query(sample.attribute, profiles[0], 2)


class TestScoringFrontier:
    def test_counting_only_frontier_never_prunes(self):
        frontier = ScoringFrontier(10)
        assert frontier.positions_for("price") is None
        assert frontier.positions_for("name") is None
        assert frontier.counts() == {"pairs_considered": 20,
                                     "pairs_pruned": 0}

    def test_position_map_prunes_and_counts(self):
        frontier = ScoringFrontier(10, positions={"price": (1, 4, 7)})
        assert frontier.positions_for("price") == (1, 4, 7)
        # Unseen attribute: exhaustive, never drop evidence.
        assert frontier.positions_for("name") is None
        assert frontier.counts() == {"pairs_considered": 13,
                                     "pairs_pruned": 7}
