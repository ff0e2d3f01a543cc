"""Unit and property tests for similarity measures.

Edit distance and the Dice coefficient are classic measures no matcher
of the zoo uses; they are defined here, beside their properties.
"""

from typing import Hashable, Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matching import (containment, cosine_counts, jaccard, jaro,
                            jaro_winkler)

short_text = st.text(alphabet="abcde", max_size=12)


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs), over
    two row buffers swapped per row."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, char_a in enumerate(a, start=1):
        current[0] = i
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost  # substitution
            )
        previous, current = current, previous
    return previous[-1]


def levenshtein_similarity(a: str, b: str) -> float:
    """Edit distance normalized into a similarity."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def dice(a: Iterable[Hashable], b: Iterable[Hashable]) -> float:
    """Sørensen-Dice coefficient of two sets."""
    set_a, set_b = set(a), set(b)
    total = len(set_a) + len(set_b)
    if total == 0:
        return 1.0
    return 2.0 * len(set_a & set_b) / total


class TestLevenshtein:
    @pytest.mark.parametrize("a,b,expected", [
        ("", "", 0), ("abc", "abc", 0), ("abc", "", 3), ("", "xy", 2),
        ("kitten", "sitting", 3), ("flaw", "lawn", 2), ("abc", "abd", 1),
    ])
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_similarity_range(self):
        assert levenshtein_similarity("abc", "abc") == 1.0
        assert levenshtein_similarity("", "") == 1.0
        assert levenshtein_similarity("abc", "xyz") == 0.0

    @given(short_text, short_text)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0


class TestJaro:
    def test_identical(self):
        assert jaro("martha", "martha") == 1.0

    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    @given(short_text, short_text)
    def test_bounds_and_symmetry(self, a, b):
        value = jaro(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaro(b, a)

    def test_winkler_boosts_prefix(self):
        base = jaro("prefixes", "prefixed")
        assert jaro_winkler("prefixes", "prefixed") >= base

    @given(short_text, short_text)
    def test_winkler_bounds(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0


class TestSetMeasures:
    def test_jaccard_known(self):
        assert jaccard({1, 2}, {2, 3}) == pytest.approx(1 / 3)

    def test_jaccard_empty_both(self):
        assert jaccard([], []) == 1.0

    def test_dice_known(self):
        assert dice({1, 2}, {2, 3}) == pytest.approx(0.5)

    def test_containment_asymmetric(self):
        assert containment({1}, {1, 2}) == 1.0
        assert containment({1, 2}, {1}) == 0.5

    @given(st.sets(st.integers(0, 20)), st.sets(st.integers(0, 20)))
    def test_jaccard_bounds_symmetry(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)

    @given(st.sets(st.integers(0, 20), min_size=1))
    def test_jaccard_identity(self, a):
        assert jaccard(a, a) == 1.0

    @given(st.sets(st.integers(0, 20)), st.sets(st.integers(0, 20)))
    def test_dice_geq_jaccard(self, a, b):
        # Dice >= Jaccard for all set pairs.
        assert dice(a, b) >= jaccard(a, b) - 1e-12


class TestCosine:
    def test_identical_counts(self):
        assert cosine_counts({"a": 2, "b": 1}, {"a": 2, "b": 1}) == \
            pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_counts({"a": 1}, {"b": 1}) == 0.0

    def test_accepts_sequences(self):
        assert cosine_counts(["a", "a"], ["a"]) == pytest.approx(1.0)

    def test_empty_both(self):
        assert cosine_counts({}, {}) == 1.0

    def test_empty_one(self):
        assert cosine_counts({"a": 1}, {}) == 0.0

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(1, 9), max_size=5),
           st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(1, 9), max_size=5))
    def test_bounds_and_symmetry(self, a, b):
        value = cosine_counts(a, b)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(cosine_counts(b, a))

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.integers(1, 9), min_size=1, max_size=5),
           st.integers(2, 5))
    def test_scale_invariance(self, counts, factor):
        scaled = {k: v * factor for k, v in counts.items()}
        assert cosine_counts(counts, scaled) == pytest.approx(1.0)


class TestCosineNormCache:
    """Norms are computed inline on every call: the value depends only on
    the counts, never on which objects carry them."""

    def test_cached_counter_norms_do_not_change_results(self):
        from collections import Counter

        profile = Counter({"ab": 3, "bc": 1, "cd": 2})
        other = Counter({"ab": 1, "cd": 2, "de": 4})
        first = cosine_counts(profile, other)
        # Repeated scoring of the same profile objects gives the same value.
        for _ in range(3):
            assert cosine_counts(profile, other) == first
        # Fresh-but-equal Counters produce the same value as well.
        assert cosine_counts(Counter(profile), Counter(other)) == first

    def test_sequences_still_accepted(self):
        assert cosine_counts(["a", "b", "a"], ["a", "b", "a"]) == pytest.approx(1.0)
        assert cosine_counts([], []) == 1.0
        assert cosine_counts(["a"], []) == 0.0

    def test_plain_dicts_bypass_cache(self):
        # Plain dicts score like Counters.
        assert cosine_counts({"a": 1}, {"a": 1}) == pytest.approx(1.0)


class TestLevenshteinBuffers:
    def test_asymmetric_lengths(self):
        # The two-buffer rewrite swaps operands so b is the shorter; cover
        # both orders explicitly.
        assert levenshtein("short", "a much longer string") == \
            levenshtein("a much longer string", "short")

    @given(short_text, short_text)
    def test_against_reference_dp(self, a, b):
        # Full-matrix reference implementation.
        rows = len(a) + 1
        cols = len(b) + 1
        dp = [[0] * cols for _ in range(rows)]
        for i in range(rows):
            dp[i][0] = i
        for j in range(cols):
            dp[0][j] = j
        for i in range(1, rows):
            for j in range(1, cols):
                cost = 0 if a[i - 1] == b[j - 1] else 1
                dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1,
                               dp[i - 1][j - 1] + cost)
        assert levenshtein(a, b) == dp[-1][-1]
