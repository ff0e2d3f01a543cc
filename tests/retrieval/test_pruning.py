"""Engine-level behavior of the retrieval frontier.

The contract under test: with the default ``retrieval_top_k`` the pruned
pipeline is bit-identical to the exhaustive reference; with an
aggressively small ``k`` it actually prunes, yet never drops a candidate
rescoring of an accepted prototype match (the frontier is a superset of
the accepted targets by construction)."""

from __future__ import annotations

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(120))


def _match_keys(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


def _score_counts(result):
    return result.report.stage("score-candidates").counts


class TestDefaultEquivalence:
    def test_default_is_bit_identical_to_exhaustive(self, workload):
        config = ContextMatchConfig(inference="src", seed=2)
        assert config.use_retrieval and config.retrieval_top_k == 16
        pruned = MatchEngine(config).match(workload.source, workload.target)
        exhaustive = MatchEngine(
            ContextMatchConfig(inference="src", seed=2,
                               use_retrieval=False)
        ).match(workload.source, workload.target)
        assert _match_keys(pruned) == _match_keys(exhaustive)

    def test_default_counts(self, workload):
        config = ContextMatchConfig(inference="src", seed=2)
        result = MatchEngine(config).match(workload.source, workload.target)
        counts = _score_counts(result)
        # Default k covers every golden-scale target schema: queries run,
        # nothing is pruned, recall is trivially perfect.
        assert counts["retrieval_queries"] > 0
        assert counts["pairs_pruned"] == 0
        assert counts["retrieval_missed"] == 0
        assert counts["retrieval_recall"] == 1.0
        assert counts["pairs_considered"] > 0

    def test_exhaustive_counts(self, workload):
        config = ContextMatchConfig(inference="src", seed=2,
                                    use_retrieval=False)
        result = MatchEngine(config).match(workload.source, workload.target)
        counts = _score_counts(result)
        assert counts["retrieval_queries"] == 0
        assert counts["pairs_pruned"] == 0
        assert counts["pairs_considered"] > 0


class TestAggressivePruning:
    def test_small_k_prunes_but_keeps_accepted_candidates(self, workload):
        exhaustive = MatchEngine(
            ContextMatchConfig(inference="src", seed=2,
                               use_retrieval=False)
        ).match(workload.source, workload.target)
        pruned = MatchEngine(
            ContextMatchConfig(inference="src", seed=2, retrieval_top_k=3)
        ).match(workload.source, workload.target)
        counts = _score_counts(pruned)
        assert counts["pairs_pruned"] > 0
        assert counts["pairs_considered"] \
            < _score_counts(exhaustive)["pairs_considered"]
        # The frontier is retrieved-top-k UNION accepted positions: every
        # candidate rescoring of an accepted prototype pair survives, so
        # the CandidateScore count matches the exhaustive run exactly.
        assert counts["candidates"] \
            == _score_counts(exhaustive)["candidates"]

    def test_small_k_reports_recall(self, workload):
        result = MatchEngine(
            ContextMatchConfig(inference="src", seed=2, retrieval_top_k=1)
        ).match(workload.source, workload.target)
        counts = _score_counts(result)
        assert 0.0 <= counts["retrieval_recall"] <= 1.0
        assert counts["retrieval_hits"] + counts["retrieval_missed"] > 0


class TestConfigValidation:
    def test_top_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ContextMatchConfig(retrieval_top_k=0)
        with pytest.raises(ValueError):
            ContextMatchConfig(retrieval_top_k=-4)
