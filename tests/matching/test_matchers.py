"""Unit tests for the matcher zoo."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (AttributeSample, NameMatcher, NumericMatcher,
                            QGramMatcher, TypeMatcher, ValueOverlapMatcher,
                            default_matchers)
from repro.matching.matchers.numeric import NumericSummary
from repro.relational import Attribute, DataType


def sample(name, values, dtype=DataType.TEXT, table="t"):
    return AttributeSample.from_column(table, Attribute(name, dtype), values)


class TestAttributeSample:
    def test_drops_missing(self):
        s = sample("a", ["x", None, "", "y"])
        assert s.values == ("x", "y")

    def test_limit_thins_deterministically(self):
        s1 = AttributeSample.from_column(
            "t", Attribute("a"), list(range(100)), limit=10)
        s2 = AttributeSample.from_column(
            "t", Attribute("a"), list(range(100)), limit=10)
        assert s1.values == s2.values
        assert len(s1) == 10

    def test_limit_noop_when_small(self):
        s = AttributeSample.from_column("t", Attribute("a"), [1, 2],
                                        limit=10)
        assert s.values == (1, 2)


class TestNameMatcher:
    def test_identical_names(self):
        m = NameMatcher()
        assert m.score(sample("price", []), sample("price", [])) == \
            pytest.approx(1.0)

    def test_synonyms_fold(self):
        m = NameMatcher()
        score = m.score(sample("name", []), sample("title", []))
        assert score > 0.5  # 'name' folds to 'title' via synonyms

    def test_camel_vs_snake(self):
        m = NameMatcher()
        score = m.score(sample("ListPrice", []), sample("list_price", []))
        assert score > 0.9

    def test_unrelated_names_low(self):
        m = NameMatcher()
        assert m.score(sample("qty", []), sample("author", [])) < 0.4

    def test_bad_token_share_rejected(self):
        with pytest.raises(ValueError):
            NameMatcher(token_share=1.5)


class TestQGramMatcher:
    def test_same_population_high(self):
        m = QGramMatcher()
        books = ["the hidden garden", "a war of kings", "the lost letter"]
        more = ["the golden garden", "a king of wars", "the hidden road"]
        assert m.score(sample("a", books), sample("b", more)) > 0.6

    def test_different_population_lower(self):
        m = QGramMatcher()
        titles = ["the hidden garden", "a war of kings"]
        codes = ["B0006L16N8", "B0009PLM4Y"]
        same = m.score(sample("a", titles), sample("b", titles))
        cross = m.score(sample("a", titles), sample("b", codes))
        assert cross < same

    def test_not_applicable_to_numeric(self):
        m = QGramMatcher()
        numeric = sample("n", [1.5], DataType.FLOAT)
        text = sample("t", ["x"])
        assert not m.applicable(numeric, text)

    def test_empty_profile_scores_zero(self):
        m = QGramMatcher()
        assert m.score_profiles(m.profile(sample("a", [])),
                                m.profile(sample("b", ["x"]))) == 0.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramMatcher(q=0)


class TestValueOverlap:
    def test_identical_sets(self):
        m = ValueOverlapMatcher()
        assert m.score(sample("a", ["x", "y"]), sample("b", ["y", "x"])) == 1.0

    def test_case_insensitive(self):
        m = ValueOverlapMatcher()
        assert m.score(sample("a", ["Hardcover"]),
                       sample("b", ["hardcover"])) == 1.0

    def test_disjoint(self):
        m = ValueOverlapMatcher()
        assert m.score(sample("a", ["x"]), sample("b", ["y"])) == 0.0


class TestNumericMatcher:
    def test_same_distribution_high(self, rng):
        m = NumericMatcher()
        a = sample("a", list(rng.normal(50, 5, 200)), DataType.FLOAT)
        b = sample("b", list(rng.normal(50, 5, 200)), DataType.FLOAT)
        assert m.score(a, b) > 0.85

    def test_shifted_distribution_lower(self, rng):
        m = NumericMatcher()
        a = sample("a", list(rng.normal(50, 5, 200)), DataType.FLOAT)
        b = sample("b", list(rng.normal(90, 5, 200)), DataType.FLOAT)
        c = sample("c", list(rng.normal(50, 5, 200)), DataType.FLOAT)
        assert m.score(a, b) < m.score(a, c)

    def test_not_applicable_to_text(self):
        m = NumericMatcher()
        assert not m.applicable(sample("a", ["x"]),
                                sample("b", [1], DataType.INTEGER))

    def test_summary_from_garbage_is_none(self):
        assert NumericSummary.from_values(["x", "y"]) is None

    def test_constant_columns(self):
        m = NumericMatcher()
        a = sample("a", [5.0] * 10, DataType.FLOAT)
        b = sample("b", [5.0] * 10, DataType.FLOAT)
        assert m.score(a, b) > 0.95

    def test_summary_quartiles_ordered(self, rng):
        summary = NumericSummary.from_values(list(rng.normal(0, 1, 500)))
        assert summary.minimum <= summary.q1 <= summary.median \
            <= summary.q3 <= summary.maximum

    def test_text_columns_are_not_summarized(self):
        """``applicable`` never lets a text column's summary be read, so
        none is built, even from number-like codes."""
        m = NumericMatcher()
        assert m.profile(sample("isbn", ["0195128", "0312"])) is None
        assert m.profile(sample("n", ["0195128", "0312"],
                                DataType.INTEGER)) is not None

    def test_summary_skips_non_finite_values(self):
        finite = NumericSummary.from_values([1.0, 2.0, 4.0])
        assert NumericSummary.from_values(
            [float("inf"), 1.0, float("-inf"), 2.0, 4.0]) == finite
        assert NumericSummary.from_values([float("inf")]) is None

    @pytest.mark.parametrize("values", [[1e308, 1.7e308], [-1e308, 1e308],
                                        [1e200, -1e200, 3.0]])
    def test_overflowing_summary_is_empty(self, values):
        assert NumericSummary.from_values(values) is None

    def test_ints_beyond_float_range_are_skipped(self):
        assert NumericSummary.from_values([10 ** 400, 2, 4]) \
            == NumericSummary.from_values([2, 4])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False), max_size=12),
           st.lists(st.floats(allow_nan=False), max_size=12))
    def test_scores_of_any_float_summaries_are_finite(self, left, right):
        m = NumericMatcher()
        score = m.score_profiles(NumericSummary.from_values(left),
                                 NumericSummary.from_values(right))
        assert math.isfinite(score) and 0.0 <= score <= 1.0


class TestTypeMatcher:
    def test_identical(self):
        m = TypeMatcher()
        assert m.score(sample("a", [], DataType.INTEGER),
                       sample("b", [], DataType.INTEGER)) == 1.0

    def test_family(self):
        m = TypeMatcher()
        assert m.score(sample("a", [], DataType.INTEGER),
                       sample("b", [], DataType.FLOAT)) == 0.75

    def test_incompatible(self):
        m = TypeMatcher()
        assert m.score(sample("a", [], DataType.TEXT),
                       sample("b", [], DataType.FLOAT)) == 0.0


def test_default_zoo_composition():
    names = {m.name for m in default_matchers()}
    assert names == {"name", "qgram", "overlap", "numeric", "type"}
