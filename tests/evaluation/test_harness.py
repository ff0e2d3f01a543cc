"""Tests for runner/reporting helpers and smoke tests of the experiment
drivers (tiny parameterizations — full sweeps live in benchmarks/)."""

import dataclasses

import pytest

from repro import ContextMatch
from repro.context.serialize import match_to_dict
from repro.evaluation import (EngineRunner, format_series, format_table,
                              seed_pairs, summarize)
from repro.evaluation.experiments import (grades_sigma_sweep, omega_sweep,
                                          run_grades, run_retail,
                                          strawman_comparison)
from repro.context.model import ContextMatchConfig


class TestSummarize:
    def test_empty(self):
        avg = summarize([])
        assert avg.mean == 0.0 and avg.n == 0

    def test_mean_std(self):
        avg = summarize([1.0, 3.0])
        assert avg.mean == 2.0 and avg.std == 1.0 and avg.n == 2

    def test_str(self):
        assert "±" in str(summarize([1.0, 2.0]))


class TestSeedPairs:
    def test_deterministic(self):
        assert seed_pairs(3) == seed_pairs(3)

    def test_distinct(self):
        pairs = seed_pairs(5)
        assert len(set(pairs)) == 5


class TestReporting:
    def test_format_table(self):
        text = format_table(["x", "y"], [[1, 2.5], ["long-value", 3.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-value" in text
        assert "2.5" in text

    def test_format_series(self):
        data = {1: {"a": 10.0, "b": 20.0}, 2: {"a": 30.0}}
        text = format_series("title", "x", data, ["a", "b"])
        assert "title" in text
        assert "nan" in text  # missing series point rendered explicitly


class TestDrivers:
    def test_run_retail(self):
        config = ContextMatchConfig(inference="src", seed=3)
        metrics, elapsed = run_retail("ryan", config, workload_seed=7,
                                      n_source=200)
        assert 0.0 <= metrics.fmeasure <= 100.0
        assert elapsed > 0.0

    def test_run_grades(self):
        config = ContextMatchConfig(inference="src", early_disjuncts=False,
                                    seed=3)
        metrics, elapsed = run_grades(10.0, config, workload_seed=7)
        assert 0.0 <= metrics.accuracy <= 100.0
        assert elapsed > 0.0

    def test_omega_sweep_shape(self):
        data = omega_sweep("ryan", [5.0], inference="src", repeats=1)
        assert set(data) == {5.0}
        assert set(data[5.0]) == {"disjearly", "disjlate"}

    def test_strawman_shape(self):
        data = strawman_comparison(["ryan"], repeats=1)
        assert set(data["ryan"]) == {"qualtable", "multitable"}

    def test_grades_sweep_shape(self):
        data = grades_sigma_sweep([10.0], repeats=1)
        assert set(data[10.0]) == {"src", "tgt", "naive"}


class TestEngineRunner:
    def test_prepares_each_target_once_across_configs(self, retail_workload):
        runner = EngineRunner(max_prepared=4)
        for omega in (5.0, 10.0):
            config = ContextMatchConfig(inference="src", omega=omega, seed=3)
            result = runner.run(retail_workload.source,
                                retail_workload.target, config)
            assert result.report.target_prepared
        assert len(runner._prepared) == 1

    def test_results_match_fresh_runs(self, retail_workload):
        config = ContextMatchConfig(inference="src", seed=3)
        runner_result = EngineRunner().run(
            retail_workload.source, retail_workload.target, config)
        fresh = ContextMatch(config).run(retail_workload.source,
                                         retail_workload.target)
        assert ([match_to_dict(m) for m in runner_result.matches]
                == [match_to_dict(m) for m in fresh.matches])

    def test_lru_eviction(self, retail_workload, grades_workload):
        runner = EngineRunner(max_prepared=1)
        config = ContextMatchConfig(inference="src", seed=3)
        runner.run(retail_workload.source, retail_workload.target, config)
        runner.run(grades_workload.source, grades_workload.target, config)
        assert len(runner._prepared) == 1

    def test_distinct_standard_configs_get_distinct_preparations(
            self, retail_workload):
        from repro.matching import StandardMatchConfig
        runner = EngineRunner()
        runner.run(retail_workload.source, retail_workload.target,
                   ContextMatchConfig(inference="src", seed=3))
        runner.run(retail_workload.source, retail_workload.target,
                   ContextMatchConfig(
                       inference="src", seed=3,
                       standard=StandardMatchConfig(sample_limit=100)))
        assert len(runner._prepared) == 2

    def test_distinct_standard_configs_get_distinct_source_stores(
            self, retail_workload):
        """Regression: the prepared-source LRU keys on the engine's
        fingerprint too — a differing sample limit must not serve the
        other engine's cached profiles."""
        from repro import MatchEngine
        from repro.matching import StandardMatchConfig
        runner = EngineRunner()
        narrow = MatchEngine(ContextMatchConfig(
            inference="src", seed=3,
            standard=StandardMatchConfig(sample_limit=100)))
        wide = MatchEngine(ContextMatchConfig(inference="src", seed=3))
        first = runner.prepared_source_for(narrow, retail_workload.source)
        second = runner.prepared_source_for(wide, retail_workload.source)
        assert first is not second
        assert len(runner._prepared_sources) == 2
        assert runner.prepared_source_for(narrow,
                                          retail_workload.source) is first

    def test_custom_matcher_engines_do_not_share_artifacts(
            self, retail_workload):
        """Regression: engines whose matcher zoos differ (here, one
        without name evidence) can neither poison nor crash each other
        through a shared runner: each gets, and keeps hitting, its own
        prepared entry, and runs against it."""
        from repro import MatchEngine
        from repro.matching import StandardMatchConfig

        config = ContextMatchConfig(inference="src", seed=3)
        custom_engine = MatchEngine(dataclasses.replace(
            config, standard=StandardMatchConfig(use_name_evidence=False)))
        plain_engine = MatchEngine(config)
        runner = EngineRunner()
        custom_prepared = runner.prepared_for(custom_engine,
                                              retail_workload.target)
        plain_prepared = runner.prepared_for(plain_engine,
                                             retail_workload.target)
        assert custom_prepared is not plain_prepared
        assert len(runner._prepared) == 2
        # Both engines run happily against their own artifacts.
        custom_engine.match(retail_workload.source, custom_prepared)
        plain_engine.match(retail_workload.source, plain_prepared)
        # And repeated lookups still hit their own entries.
        assert runner.prepared_for(custom_engine,
                                   retail_workload.target) is custom_prepared
        assert runner.prepared_for(plain_engine,
                                   retail_workload.target) is plain_prepared

    def test_run_many_matches_sequential_runs(self, retail_workload,
                                              grades_workload):
        from repro.engine import ExecutorConfig, MatchExecutor
        config = ContextMatchConfig(inference="src", seed=3)
        sources = [retail_workload.source]
        sequential = EngineRunner().run(retail_workload.source,
                                        retail_workload.target, config)
        runner = EngineRunner()
        batch = runner.run_many(sources, retail_workload.target, config)
        assert batch.throughput.backend == "serial"
        assert batch.throughput.tasks == 1
        assert ([match_to_dict(m) for m in batch[0].matches]
                == [match_to_dict(m) for m in sequential.matches])
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            process = runner.run_many(sources, retail_workload.target,
                                      config, executor=executor)
        assert process.throughput.backend == "process"
        assert ([match_to_dict(m) for m in process[0].matches]
                == [match_to_dict(m) for m in sequential.matches])
        # The prepared target came from (and stayed in) the runner's LRU.
        assert len(runner._prepared) == 1

    def test_run_many_reuses_engine_and_shipped_payload(self,
                                                        retail_workload):
        """Consecutive equal-config run_many calls share one engine, so a
        reused executor's artifact/payload memos hit instead of
        re-pickling the prepared target per call."""
        from repro.engine import ExecutorConfig, MatchExecutor
        runner = EngineRunner()
        executor = MatchExecutor(ExecutorConfig(backend="serial"))
        config = ContextMatchConfig(inference="src", seed=3)
        runner.run_many([retail_workload.source], retail_workload.target,
                        config, executor=executor)
        runner.run_many([retail_workload.source], retail_workload.target,
                        ContextMatchConfig(inference="src", seed=3),
                        executor=executor)
        assert len(executor._artifacts) == 1  # one shared EngineArtifact
