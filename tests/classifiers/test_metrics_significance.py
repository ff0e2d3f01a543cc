"""Unit tests for classification metrics and the significance test."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import (ConfusionMatrix, MajorityClassifier,
                               classifier_significance, evaluate_classifier,
                               micro_fbeta, normalized_error_pairs,
                               per_label_precision_recall, top_error_pair)


def matrix_from(pairs):
    matrix = ConfusionMatrix()
    for truth, predicted in pairs:
        matrix.record(truth, predicted)
    return matrix


class TestConfusionMatrix:
    def test_counts(self):
        m = matrix_from([("a", "a"), ("a", "b"), ("b", "b")])
        assert m.total == 3
        assert m.correct == 2
        assert m.accuracy == pytest.approx(2 / 3)

    def test_empty(self):
        m = ConfusionMatrix()
        assert m.accuracy == 0.0

    def test_label_counts(self):
        m = matrix_from([("a", "b"), ("a", "a"), ("b", "a")])
        assert m.true_label_counts() == {"a": 2, "b": 1}
        assert m.predicted_label_counts() == {"a": 2, "b": 1}

    def test_errors(self):
        m = matrix_from([("a", "b"), ("a", "a")])
        assert m.errors() == {("a", "b"): 1}


class TestEvaluate:
    def test_against_majority(self):
        clf = MajorityClassifier()
        clf.teach(None, "x")
        m = evaluate_classifier(clf, [("v", "x"), ("w", "y")])
        assert m.correct == 1 and m.total == 2


class TestMicroFbeta:
    def test_single_label_equals_accuracy(self):
        m = matrix_from([("a", "a")] * 7 + [("a", "b")] * 3)
        assert micro_fbeta(m) == pytest.approx(m.accuracy)

    def test_empty_is_zero(self):
        assert micro_fbeta(ConfusionMatrix()) == 0.0

    def test_perfect(self):
        assert micro_fbeta(matrix_from([("a", "a")])) == 1.0

    @given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")),
                    min_size=1, max_size=40),
           st.floats(0.5, 2.0))
    def test_beta_invariant_in_single_label_setting(self, pairs, beta):
        m = matrix_from(pairs)
        assert micro_fbeta(m, beta) == pytest.approx(micro_fbeta(m, 1.0))


class TestPerLabel:
    def test_precision_recall(self):
        m = matrix_from([("a", "a"), ("a", "b"), ("b", "b"), ("b", "b")])
        pr = per_label_precision_recall(m)
        precision_a, recall_a = pr["a"]
        assert precision_a == 1.0 and recall_a == 0.5
        precision_b, recall_b = pr["b"]
        assert precision_b == pytest.approx(2 / 3)
        assert recall_b == 1.0


class TestErrorPairs:
    def test_undirected_grouping(self):
        m = matrix_from([("a", "b"), ("b", "a"), ("a", "a"), ("c", "c")])
        ranked = normalized_error_pairs(m)
        assert ranked[0][0] == frozenset({"a", "b"})

    def test_normalized_by_frequency(self):
        # (a,b) errs twice among 8 occurrences; (c,d) errs once among 2.
        pairs = ([("a", "b")] * 2 + [("a", "a")] * 4 + [("b", "b")] * 2
                 + [("c", "d")])
        pairs += [("d", "d")]
        ranked = normalized_error_pairs(matrix_from(pairs))
        assert ranked[0][0] == frozenset({"c", "d"})

    def test_none_predictions_skipped(self):
        ranked = normalized_error_pairs(matrix_from([("a", None)]))
        assert ranked == []
        assert top_error_pair(matrix_from([("a", None)])) is None


class _Twin:
    """A label whose ``repr`` collides with its twin's (equality is
    identity), so only insertion order can break a tie between them."""

    def __repr__(self) -> str:
        return "twin"


_FIRST, _SECOND = _Twin(), _Twin()
#: Labels as families name them: raw values, merged groups, and twins.
LABELS = st.sampled_from(["a", "b", "c", 1, 2.5, _FIRST, _SECOND,
                          frozenset({"a", "b"}), frozenset({_FIRST}),
                          frozenset({_SECOND})])


class TestTopErrorPair:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(LABELS, st.one_of(LABELS, st.none())),
                    max_size=14))
    def test_equals_first_of_full_ranking(self, pairs):
        matrix = matrix_from(pairs)
        ranked = normalized_error_pairs(matrix)
        picked = top_error_pair(matrix)
        if not ranked:
            assert picked is None
        else:
            assert picked == ranked[0][0]

    def test_repr_twins_tie_to_the_first_seen_pair(self):
        pairs = [("a", _SECOND), (_SECOND, "a"), ("a", _FIRST),
                 (_FIRST, "a")]
        matrix = matrix_from(pairs)
        assert top_error_pair(matrix) == frozenset({"a", _SECOND})
        assert top_error_pair(matrix) == normalized_error_pairs(matrix)[0][0]


class TestSignificance:
    def test_clearly_significant(self):
        result = classifier_significance(95, 100, 0.5)
        assert result.significant(0.95)
        assert result.confidence > 0.99

    def test_at_null_not_significant(self):
        result = classifier_significance(50, 100, 0.5)
        assert not result.significant(0.95)
        assert result.confidence == pytest.approx(0.5)

    def test_below_null(self):
        assert classifier_significance(30, 100, 0.5).confidence < 0.5

    def test_empty_test_set(self):
        assert classifier_significance(0, 0, 0.5).confidence == 0.0

    def test_degenerate_p(self):
        assert classifier_significance(10, 10, 1.0).confidence == 0.0
        assert classifier_significance(10, 10, 0.0).confidence == 0.0

    def test_mu_sigma_match_binomial(self):
        result = classifier_significance(60, 100, 0.2)
        assert result.mu == pytest.approx(20.0)
        assert result.sigma == pytest.approx((100 * 0.2 * 0.8) ** 0.5)

    @given(st.integers(1, 300), st.floats(0.05, 0.95))
    def test_confidence_bounds(self, n, p):
        result = classifier_significance(n // 2, n, p)
        assert 0.0 <= result.confidence <= 1.0

    @given(st.integers(10, 200), st.floats(0.1, 0.9))
    def test_monotone_in_correct_count(self, n, p):
        low = classifier_significance(n // 4, n, p).confidence
        high = classifier_significance(3 * n // 4, n, p).confidence
        assert high >= low
