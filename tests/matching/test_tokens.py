"""Unit tests for tokenizers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matching import (grams, normalize_text, qgrams, value_to_text,
                            word_tokens)


class TestValueToText:
    def test_none_empty(self):
        assert value_to_text(None) == ""

    def test_bool(self):
        assert value_to_text(True) == "true"

    def test_integral_float(self):
        assert value_to_text(3.0) == "3"

    def test_plain(self):
        assert value_to_text("Abc") == "Abc"


class TestNormalize:
    def test_lowercases_and_collapses(self):
        assert normalize_text("The  White--Album!") == "the white album"

    def test_empty(self):
        assert normalize_text("  ") == ""


class TestWordTokens:
    def test_camel_case(self):
        assert word_tokens("ItemType") == ["item", "type"]

    def test_snake_case(self):
        assert word_tokens("list_price") == ["list", "price"]

    def test_mixed(self):
        assert word_tokens("bookISBN10") == ["book", "isbn10"]


class TestQgrams:
    def test_basic_trigrams(self):
        grams = qgrams("abcd", 3, pad=False)
        assert grams == ["abc", "bcd"]

    def test_padding_marks_boundaries(self):
        grams = qgrams("ab", 3)
        assert grams[0].startswith("#")
        assert grams[-1].endswith("#")

    def test_short_string_yields_one_gram(self):
        assert qgrams("a", 3, pad=False) == ["a"]

    def test_empty_yields_nothing(self):
        assert qgrams("", 3) == []

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError):
            qgrams("abc", 0)


@given(st.text(alphabet="abcdefgh ", max_size=30))
def test_qgram_count_matches_length(text):
    grams = qgrams(text, 3, pad=False)
    normalized = normalize_text(text)
    if len(normalized) >= 3:
        assert len(grams) == len(normalized) - 2
    elif normalized:
        assert grams == [normalized]
    else:
        assert grams == []


@given(st.text(max_size=30))
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


class TestQGramCache:
    def test_cached_equals_uncached(self):
        from repro.matching.tokens import QGramCache, qgrams, value_to_text

        cache = QGramCache()
        for value in ["hello world", 42, 3.5, 7.0, True, None, "N/A", ""]:
            assert grams.decode(cache.codes(value, 3), 3) == tuple(
                qgrams(value_to_text(value), 3))

    def test_hits_and_misses_counted(self):
        from repro.matching.tokens import QGramCache

        cache = QGramCache()
        cache.codes("abc")
        cache.codes("abc")
        cache.codes("xyz")
        assert cache.hits == 1 and cache.misses == 2
        assert cache.counters() == {"token_cache_hits": 1,
                                    "token_cache_misses": 2}

    def test_equal_but_differently_typed_values_do_not_alias(self):
        """1, 1.0 and True hash equal but render differently — the cache
        must key on the concrete class."""
        from repro.matching.tokens import QGramCache

        cache = QGramCache()
        # both render "1"
        assert cache.codes(1).tolist() == cache.codes(1.0).tolist()
        # "true" vs "1"
        assert cache.codes(True).tolist() != cache.codes(1).tolist()

    def test_unhashable_values_bypass_cache(self):
        from repro.matching.tokens import QGramCache, qgrams, value_to_text

        cache = QGramCache()
        value = ["a", "list"]
        assert grams.decode(cache.codes(value), 3) \
            == tuple(qgrams(value_to_text(value), 3))
        assert len(cache) == 0 and cache.misses == 1

    def test_bounded_by_max_entries(self):
        from repro.matching.tokens import QGramCache

        cache = QGramCache(max_entries=4)
        for i in range(10):
            cache.codes(f"value {i}")
        assert len(cache) <= 4

    def test_clear_keeps_counters(self):
        from repro.matching.tokens import QGramCache

        cache = QGramCache()
        cache.codes("abc")
        cache.clear()
        assert len(cache) == 0 and cache.misses == 1
        cache.codes("abc")
        assert cache.misses == 2  # re-tokenized after clear

    def test_shared_cache_counters_snapshot(self):
        from repro.matching.tokens import cached_codes, token_cache_counters

        before = token_cache_counters()
        cached_codes("snapshot-test-value")
        cached_codes("snapshot-test-value")
        after = token_cache_counters()
        assert after["token_cache_hits"] >= before["token_cache_hits"] + 1
        assert after["token_cache_misses"] >= before["token_cache_misses"]
