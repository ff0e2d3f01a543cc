"""Integer q-gram codes against the string-keyed references.

Every coded path must reproduce its string-keyed form exactly: the codes
decode to the grams ``qgrams`` produces, bags and merges equal gram
``Counter``s, block scores equal the string cosine with ``==``, Naive
Bayes posteriors, labels and group columns are bit-equal to a
string-token classifier, and the retrieval channels rank as they do over
gram strings.  The references live in ``tests/qgram_reference.py``.
"""

from __future__ import annotations

import pickle
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgram_reference import (ReferenceNB, as_counter, reference_bm25,
                             reference_cosine, reference_grams,
                             reference_lsh_query, reference_merge,
                             reference_profile, reference_signature)
from repro.classifiers import NaiveBayesClassifier
from repro.matching import QGramMatcher, grams
from repro.matching.matchers import AttributeSample
from repro.matching.tokens import QGramCache, cached_codes_many
from repro.relational import Attribute, DataType
from repro.retrieval import BM25Index, MinHashLSH

#: Values of every kind the tokenizer renders: unicode text, digit
#: strings, empties, None, bools, integral floats and integers.
values = st.one_of(
    st.text(max_size=14),
    st.text(alphabet="abc xyz-", max_size=10),
    st.text(alphabet="0123456789 .", max_size=8),
    st.just(""), st.none(), st.booleans(),
    st.integers(-10**6, 10**6).map(float),
    st.integers(-10**9, 10**9))
value_lists = st.lists(values, max_size=12)
#: Few labels, so groups of several members occur.
labels = st.sampled_from(["A", "B", "C", 7])


def _bag(vals, q=3):
    return QGramMatcher(q=q).profile(
        AttributeSample("t", Attribute("a", DataType.TEXT), tuple(vals)))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestCodes:
    @settings(max_examples=200, deadline=None)
    @given(value_lists, st.integers(1, grams.MAX_Q))
    def test_decode_gives_the_grams(self, vals, q):
        cache = QGramCache()
        for value, codes in zip(vals, cache.codes_many(vals, q)):
            assert codes.dtype == grams.code_dtype(q)
            assert grams.decode(codes, q) == tuple(reference_grams(value, q))

    def test_codes_are_base_38_and_narrow(self):
        codes = QGramCache().codes("ab", 3)
        # "##a" "#ab" "ab#" "b##": '#' = 0, 'a' = 12, 'b' = 13.
        assert codes.tolist() == [12, 12 * 38 + 13, (12 * 38 + 13) * 38,
                                  13 * 38 * 38]
        assert grams.code_dtype(3) == np.uint16
        assert grams.code_dtype(1) == np.uint8
        assert grams.code_dtype(12) == np.int64
        assert 38 ** grams.MAX_Q - 1 <= np.iinfo(np.int64).max

    @pytest.mark.parametrize("q", [0, -1, grams.MAX_Q + 1, 40])
    def test_q_outside_the_exact_range_raises(self, q):
        with pytest.raises(ValueError):
            grams.check_q(q)
        with pytest.raises(ValueError):
            QGramMatcher(q=q)
        with pytest.raises(ValueError):
            NaiveBayesClassifier(q=q)

    def test_batch_lookups_count_like_single_lookups(self):
        vals = ["x", "y", "x", None, ["unhashable"], "y", "z"]
        batch, single = QGramCache(), QGramCache()
        batch.codes_many(vals)
        for value in vals:
            single.codes(value)
        assert batch.counters() == single.counters() \
            == {"token_cache_hits": 2, "token_cache_misses": 5}


class TestBags:
    @settings(max_examples=200, deadline=None)
    @given(value_lists, st.sampled_from([1, 2, 3, 5]))
    def test_bag_equals_the_reference_counter(self, vals, q):
        bag = _bag(vals, q)
        assert as_counter(bag) == reference_profile(vals, q)
        assert bag.codes.dtype == grams.code_dtype(q)
        assert bag.counts.dtype == np.int32
        assert np.all(np.diff(bag.codes.astype(np.int64)) > 0)
        assert len(bag) == len(reference_profile(vals, q))
        assert bool(bag) == bool(reference_profile(vals, q))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(value_lists, min_size=1, max_size=5))
    def test_merge_equals_counting_the_union(self, cells):
        merged = QGramMatcher().merge_profiles([_bag(c) for c in cells])
        union = [value for cell in cells for value in cell]
        assert merged == _bag(union)
        assert as_counter(merged) == reference_merge(
            reference_profile(c) for c in cells)

    def test_bag_pickles(self):
        bag = _bag(["hello", "world", 42])
        assert pickle.loads(pickle.dumps(bag)) == bag


class TestScoring:
    @settings(max_examples=150, deadline=None)
    @given(value_lists, st.lists(value_lists, min_size=1, max_size=6),
           st.data())
    def test_score_block_equals_the_string_cosine(self, source, targets,
                                                  data):
        matcher = QGramMatcher()
        bags = [_bag(t) for t in targets]
        positions = data.draw(st.lists(st.integers(0, len(targets) - 1),
                                       max_size=2 * len(targets)))
        got = matcher.score_block(_bag(source), matcher.target_block(bags),
                                  positions)
        reference = [reference_cosine(reference_profile(source),
                                      reference_profile(targets[i]))
                     for i in positions]
        assert got == reference
        assert [matcher.score_profiles(_bag(source), bags[i])
                for i in positions] == reference


class TestNaiveBayes:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(values, labels), min_size=1, max_size=25),
           value_lists)
    def test_posteriors_and_labels_equal_the_string_classifier(
            self, examples, probes):
        nb, reference = NaiveBayesClassifier(), ReferenceNB()
        nb.teach_many([v for v, _ in examples], [l for _, l in examples])
        for value, label in examples:
            reference.teach(value, label)
        expected = [{k: _bits(v) for k, v in
                     reference.log_posteriors(p).items()} for p in probes]
        assert [{k: _bits(v) for k, v in posts.items()}
                for posts in nb.log_posteriors_many(probes)] == expected
        assert [{k: _bits(v) for k, v in nb.log_posteriors(p).items()}
                for p in probes] == expected
        labels_expected = [reference.classify(p) for p in probes]
        assert nb.classify_many(probes) == labels_expected
        assert [nb.classify(p) for p in probes] == labels_expected

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(values, labels), min_size=1, max_size=25),
           value_lists, st.data())
    def test_group_columns_equal_a_retrained_string_classifier(
            self, examples, probes, data):
        nb = NaiveBayesClassifier()
        nb.teach_many([v for v, _ in examples], [l for _, l in examples])
        scorer = nb.group_scorer(probes)
        taught = list(scorer.labels)
        members = data.draw(st.lists(st.sampled_from(taught), min_size=1,
                                     unique=True))
        members = [label for label in taught if label in members]
        group = frozenset(members)
        retrained = ReferenceNB()
        for value, label in examples:
            retrained.teach(value, group if label in group else label)
        column = scorer.column(members)
        assert [_bits(column.scores[row]) for row in scorer.rows] \
            == [_bits(retrained.log_posteriors(p)[group]) for p in probes]
        assert column.count == retrained.label_counts[group]


class TestRetrieval:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(value_lists, min_size=1, max_size=6), value_lists)
    def test_bm25_ranks_like_string_postings(self, docs, query):
        index = BM25Index([_bag(d) for d in docs])
        assert index.query(_bag(query)) == reference_bm25(
            [reference_profile(d) for d in docs], reference_profile(query))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(value_lists, min_size=1, max_size=6), value_lists)
    def test_minhash_ranks_like_string_hashes(self, docs, query):
        lsh = MinHashLSH([_bag(d) for d in docs])
        for doc, signature in zip(docs, lsh.signatures):
            assert np.array_equal(
                signature, reference_signature(lsh, reference_profile(doc)))
        assert lsh.query(_bag(query)) == reference_lsh_query(
            lsh, [reference_profile(d) for d in docs],
            reference_profile(query))

    def test_gram_hashes_are_the_string_hashes(self):
        bag = _bag(["hardcover", "audio cd", 1999])
        assert grams.gram_hashes(bag).tolist() == [
            grams.gram_hash(g) for g in grams.decode(bag.codes, 3)]


def test_run_tokens_equal_the_reference_counts():
    """The shared entry point hands out the same codes for repeats."""
    vals = ["abc", "abc", 3.0, 3]
    first, second, third, fourth = cached_codes_many(vals)
    assert first is second
    assert np.array_equal(third, fourth)
    assert Counter(grams.decode(np.concatenate([first, third]), 3)) \
        == reference_profile(["abc", 3])
