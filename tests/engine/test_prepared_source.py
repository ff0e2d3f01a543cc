"""PreparedSource: amortized source-side profiling across engine runs."""

import pytest

from repro import (ContextMatchConfig, MatchEngine, PreparedSource,
                   StandardMatchConfig)
from repro.context.serialize import report_from_dict, report_to_dict
from repro.errors import EngineError
from repro.evaluation.runner import EngineRunner


def _match_keys(result):
    return [(m.source, m.target, str(m.condition), m.score, m.confidence)
            for m in result.matches]


@pytest.fixture(scope="module")
def engine_and_prepared(retail_workload):
    engine = MatchEngine(ContextMatchConfig(inference="src", seed=5))
    return engine, engine.prepare(retail_workload.target)


class TestPrepareSource:
    def test_prepare_source_roundtrip(self, retail_workload,
                                      engine_and_prepared):
        engine, prepared = engine_and_prepared
        prepared_src = engine.prepare_source(retail_workload.source)
        assert isinstance(prepared_src, PreparedSource)
        plain = engine.match(retail_workload.source, prepared)
        via_prepared = engine.match(prepared_src, prepared)
        assert _match_keys(plain) == _match_keys(via_prepared)
        assert via_prepared.report.source_prepared
        assert not plain.report.source_prepared

    def test_second_run_hits_the_profile_cache(self, retail_workload,
                                               engine_and_prepared):
        engine, prepared = engine_and_prepared
        prepared_src = engine.prepare_source(retail_workload.source)
        first = engine.match(prepared_src, prepared)
        second = engine.match(prepared_src, prepared)
        assert _match_keys(first) == _match_keys(second)
        counts1 = first.report.stage("standard-match").counts
        counts2 = second.report.stage("standard-match").counts
        assert counts1["profile_misses"] > 0
        assert counts2["profile_misses"] == 0
        assert counts2["profile_hits"] == counts1["profile_hits"] \
            + counts1["profile_misses"]
        score2 = second.report.stage("score-candidates").counts
        assert score2["profile_misses"] == 0
        assert score2["partitions_built"] == 0

    def test_match_many_accepts_prepared_sources(self, retail_workload,
                                                 engine_and_prepared):
        engine, prepared = engine_and_prepared
        prepared_src = engine.prepare_source(retail_workload.source)
        results = engine.match_many([prepared_src, retail_workload.source],
                                    prepared)
        assert _match_keys(results[0]) == _match_keys(results[1])
        assert results[0].report.source_prepared
        assert not results[1].report.source_prepared

    def test_incompatible_standard_config_rejected(self, retail_workload,
                                                   engine_and_prepared):
        engine, _ = engine_and_prepared
        prepared_src = engine.prepare_source(retail_workload.source)
        other = MatchEngine(ContextMatchConfig(
            inference="src", seed=5,
            standard=StandardMatchConfig(sample_limit=17)))
        with pytest.raises(EngineError, match="incompatible"):
            other.match(prepared_src, retail_workload.target)

    def test_equivalent_engine_accepts_foreign_prepared_source(
            self, retail_workload, engine_and_prepared):
        engine, prepared = engine_and_prepared
        prepared_src = engine.prepare_source(retail_workload.source)
        twin = MatchEngine(ContextMatchConfig(inference="src", seed=5))
        result = twin.match(prepared_src, twin.prepare(retail_workload.target))
        assert result.report.source_prepared


class TestReportSerialization:
    def test_source_prepared_roundtrips(self, retail_workload,
                                        engine_and_prepared):
        engine, prepared = engine_and_prepared
        result = engine.match(engine.prepare_source(retail_workload.source),
                              prepared)
        data = report_to_dict(result.report)
        assert data["source_prepared"] is True
        back = report_from_dict(data)
        assert back.source_prepared
        restored = back.stage("score-candidates")
        assert restored.counts == \
            result.report.stage("score-candidates").counts


class TestRunnerPreparedSources:
    def test_runner_shares_source_profiles_across_configs(self,
                                                          retail_workload):
        runner = EngineRunner()
        first = runner.run(retail_workload.source, retail_workload.target,
                           ContextMatchConfig(inference="src", seed=5))
        second = runner.run(retail_workload.source, retail_workload.target,
                            ContextMatchConfig(inference="src", seed=5,
                                               omega=10.0))
        assert first.report.source_prepared
        assert second.report.source_prepared
        # The second configuration re-used every base-column profile.
        counts = second.report.stage("standard-match").counts
        assert counts["profile_misses"] == 0
        assert counts["profile_hits"] > 0
