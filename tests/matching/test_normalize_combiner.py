"""Unit tests for score normalization and evidence combination."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mathutil import mean_std, phi
from repro.matching import (MatcherEvidence, combine_evidence,
                            confidences_from_scores)


def phi_inverse_threshold(p: float) -> float:
    """Inverse normal CDF via bisection on :func:`phi`."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if phi(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestPhi:
    def test_symmetry(self):
        assert phi(0.0) == pytest.approx(0.5)
        assert phi(1.0) + phi(-1.0) == pytest.approx(1.0)

    def test_known_value(self):
        assert phi(1.96) == pytest.approx(0.975, abs=1e-3)

    def test_inverse(self):
        assert phi(phi_inverse_threshold(0.95)) == pytest.approx(0.95,
                                                                 abs=1e-6)

    def test_inverse_rejects_bad_p(self):
        with pytest.raises(ValueError):
            phi_inverse_threshold(1.0)

    @given(st.floats(-8, 8))
    def test_monotone(self, z):
        assert phi(z) <= phi(z + 0.1)


class TestMeanStd:
    def test_empty(self):
        assert mean_std([]) == (0.0, 0.0)

    def test_constant(self):
        mean, std = mean_std([2.0, 2.0])
        assert mean == 2.0 and std == 0.0

    def test_known(self):
        mean, std = mean_std([1.0, 3.0])
        assert mean == 2.0 and std == 1.0


class TestConfidences:
    def test_above_mean_above_half(self):
        confs = confidences_from_scores([0.1, 0.2, 0.9])
        assert confs[2] > 0.5 > confs[0]

    def test_abstentions_preserved(self):
        confs = confidences_from_scores([0.1, None, 0.9])
        assert confs[1] is None
        assert confs[0] is not None

    def test_degenerate_all_equal(self):
        assert confidences_from_scores([0.4, 0.4, 0.4]) == [0.5, 0.5, 0.5]

    def test_single_score_is_half(self):
        assert confidences_from_scores([0.7]) == [0.5]

    def test_empty(self):
        assert confidences_from_scores([]) == []

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=20))
    def test_bounds(self, scores):
        for conf in confidences_from_scores(scores):
            assert conf is None or 0.0 <= conf <= 1.0

    @given(st.lists(st.floats(0, 1), min_size=3, max_size=20))
    def test_order_preserved(self, scores):
        confs = confidences_from_scores(scores)
        pairs = sorted(zip(scores, confs))
        for (s1, c1), (s2, c2) in zip(pairs, pairs[1:]):
            if s1 < s2:
                assert c1 <= c2


class TestCombiner:
    def evidence(self, weight, raw, conf, name="m"):
        return MatcherEvidence(matcher=name, weight=weight, raw_score=raw,
                               confidence=conf)

    def test_empty_returns_none(self):
        assert combine_evidence([]) is None

    def test_single(self):
        combined = combine_evidence([self.evidence(1.0, 0.6, 0.8)])
        assert combined.score == 0.6
        assert combined.confidence == 0.8

    def test_weighted_mean(self):
        combined = combine_evidence([
            self.evidence(1.0, 0.0, 0.0), self.evidence(3.0, 1.0, 1.0)])
        assert combined.score == pytest.approx(0.75)
        assert combined.confidence == pytest.approx(0.75)

    def test_zero_total_weight(self):
        assert combine_evidence([self.evidence(0.0, 0.5, 0.5)]) is None

    def test_evidence_carried(self):
        items = [self.evidence(1.0, 0.5, 0.5, "a"),
                 self.evidence(1.0, 0.7, 0.6, "b")]
        combined = combine_evidence(items)
        assert [e.matcher for e in combined.evidence] == ["a", "b"]
