"""Unit tests for the classifier substrate (NB, Gaussian, majority)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.classifiers import (GaussianClassifier, MajorityClassifier,
                               NaiveBayesClassifier)


class TestNaiveBayes:
    def test_untrained_returns_none(self):
        assert NaiveBayesClassifier().classify("x") is None

    def test_learns_populations(self):
        nb = NaiveBayesClassifier()
        for text in ["hardcover", "paperback", "mass market paperback"]:
            nb.teach(text, "book")
        for text in ["audio cd", "compact disc", "elektra cd"]:
            nb.teach(text, "music")
        assert nb.classify("paperback edition") == "book"
        assert nb.classify("cd single") == "music"

    def test_labels(self):
        nb = NaiveBayesClassifier()
        nb.teach("x", 1)
        nb.teach("y", 2)
        assert nb.labels == {1, 2}

    def test_prior_dominates_when_token_mass_is_balanced(self):
        nb = NaiveBayesClassifier()
        for _ in range(9):
            nb.teach("aaa", "common")
        for _ in range(9):
            nb.teach("zzz", "rare")
        nb.teach("zzz", "rare")  # rare now has slightly more token mass
        for _ in range(5):
            nb.teach("aaa", "common")  # common clearly more frequent
        assert nb.classify("aaa") == "common"
        # Unknown tokens: prediction is still one of the seen labels.
        assert nb.classify("qqqqq") in {"common", "rare"}

    def test_log_posteriors_ordered(self):
        nb = NaiveBayesClassifier()
        nb.teach("alpha beta", "a")
        nb.teach("gamma delta", "b")
        posts = nb.log_posteriors("alpha")
        assert posts["a"] > posts["b"]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            NaiveBayesClassifier(q=0)

    def test_deterministic_tiebreak(self):
        nb = NaiveBayesClassifier()
        nb.teach("same", "a")
        nb.teach("same", "a")
        nb.teach("same", "b")
        assert nb.classify("same") == "a"  # more frequent label wins ties

    @given(st.lists(st.tuples(st.text("ab", min_size=1, max_size=6),
                              st.sampled_from(["x", "y"])),
                    min_size=1, max_size=30))
    def test_always_predicts_seen_label(self, examples):
        nb = NaiveBayesClassifier()
        nb.teach_all(examples)
        assert nb.classify("abab") in nb.labels


class TestGaussian:
    def test_untrained_returns_none(self):
        assert GaussianClassifier().classify(5.0) is None

    def test_separable_means(self, rng):
        g = GaussianClassifier()
        for v in rng.normal(10, 1, 100):
            g.teach(float(v), "low")
        for v in rng.normal(50, 1, 100):
            g.teach(float(v), "high")
        assert g.classify(11.0) == "low"
        assert g.classify(49.0) == "high"

    def test_prior_breaks_overlap(self):
        g = GaussianClassifier()
        for _ in range(90):
            g.teach(10.0, "common")
        for _ in range(10):
            g.teach(10.0, "rare")
        assert g.classify(10.0) == "common"

    def test_non_numeric_training_ignored(self):
        g = GaussianClassifier()
        g.teach("not-a-number", "junk")
        assert g.classify(1.0) is None

    def test_non_numeric_query_falls_back_to_prior(self):
        g = GaussianClassifier()
        g.teach(1.0, "a")
        assert g.classify("garbage") == "a"

    def test_ints_no_float_holds_are_not_numbers(self):
        """An exactly read 400-digit INTEGER value carries no signal, as
        garbage does, instead of raising ``OverflowError``."""
        g = GaussianClassifier()
        g.teach_many([1.0, 10 ** 400, 2.0], ["a", "b", "a"])
        assert g.labels == frozenset({"a"})
        assert g.classify(10 ** 400) == "a"
        assert g.classify_many([10 ** 400, 1.5]) == ["a", "a"]

    def test_constant_class_usable(self):
        g = GaussianClassifier()
        g.teach(5.0, "five")
        g.teach(5.0, "five")
        g.teach(100.0, "hundred")
        assert g.classify(5.1) == "five"

    def test_nan_leaves_the_variance_floor_finite(self):
        """The floor comes from the finite training values, so a NaN
        taught first cannot turn it NaN and leave the constant label's
        variance at zero for ``math.log``."""
        g = GaussianClassifier()
        g.teach_many([float("nan"), 5.0, 5.0, 100.0],
                     ["n", "five", "five", "hundred"])
        assert g.classify(5.1) in g.labels
        assert g.classify_many([5.1, 99.0]) \
            == [g.classify(5.1), g.classify(99.0)]

    def test_string_numbers_accepted(self):
        g = GaussianClassifier()
        g.teach("2.5", "a")
        assert g.classify(2.5) == "a"


class TestMajority:
    def test_untrained(self):
        m = MajorityClassifier()
        assert m.classify("x") is None
        assert m.majority_label is None
        assert m.majority_fraction == 0.0

    def test_majority_and_fraction(self):
        m = MajorityClassifier()
        for label in ["a", "a", "a", "b"]:
            m.teach(None, label)
        assert m.majority_label == "a"
        assert m.classify("anything") == "a"
        assert m.majority_fraction == pytest.approx(0.75)

    def test_deterministic_tie(self):
        m = MajorityClassifier()
        m.teach(None, "a")
        m.teach(None, "b")
        assert m.majority_label == "b"  # ties break by repr order

    @given(st.lists(st.sampled_from("abc"), min_size=1, max_size=50))
    def test_fraction_matches_counts(self, labels):
        m = MajorityClassifier()
        for label in labels:
            m.teach(None, label)
        top = max(set(labels), key=labels.count)
        assert m.majority_fraction == pytest.approx(
            labels.count(m.majority_label) / len(labels))
        assert labels.count(m.majority_label) == labels.count(top)
