"""EngineRunner keying and store backing.

The regression pinned here: the runner's prepared LRUs used to key on
``id(database)``, which (a) treated every rebuilt copy of the same
workload as new — sweeps that rebuild per point silently re-prepared
everything — and (b) could alias a *different* database onto a stale
prepared artifact once the original was garbage collected and its
address recycled.  Content-token keys fix both: equal content is one
entry, regardless of object identity or lifetime.
"""

from __future__ import annotations

import pytest

from repro import ArtifactStore, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.evaluation import EngineRunner
from repro.evaluation.scenarios import run_scenario, scenario_config


@pytest.fixture(scope="module")
def spec():
    return get_scenario("events").resized(60)


class TestContentTokenKeying:
    def test_equal_content_shares_one_prepared_entry(self, spec):
        """Two independently built (distinct-object) copies of one
        workload hit the same LRU slot — the satellite's regression
        test."""
        runner = EngineRunner()
        engine = MatchEngine(scenario_config(spec))
        first_target = build_scenario(spec).target
        second_target = build_scenario(spec).target
        assert first_target is not second_target
        prepared_first = runner.prepared_for(engine, first_target)
        prepared_second = runner.prepared_for(engine, second_target)
        assert prepared_second is prepared_first
        assert len(runner._prepared) == 1

    def test_token_survives_object_death(self, spec):
        """After the original database is gone (and its id() free for
        recycling), a rebuilt copy still maps to the same entry."""
        runner = EngineRunner()
        engine = MatchEngine(scenario_config(spec))
        prepared = runner.prepared_for(engine, build_scenario(spec).target)
        import gc
        gc.collect()  # the first target object is now dead
        again = runner.prepared_for(engine, build_scenario(spec).target)
        assert again is prepared

    def test_different_configs_never_share(self, spec):
        """Engines whose artifacts are incompatible keep separate
        entries even over one database object."""
        import dataclasses

        from repro.matching import StandardMatchConfig

        runner = EngineRunner()
        target = build_scenario(spec).target
        base = MatchEngine(scenario_config(spec))
        tweaked = MatchEngine(dataclasses.replace(
            scenario_config(spec),
            standard=StandardMatchConfig(sample_limit=123)))
        assert runner.prepared_for(base, target) \
            is not runner.prepared_for(tweaked, target)
        assert len(runner._prepared) == 2

    def test_prepared_sources_key_on_content_too(self, spec):
        runner = EngineRunner()
        engine = MatchEngine(scenario_config(spec))
        first = runner.prepared_source_for(
            engine, build_scenario(spec).source)
        second = runner.prepared_source_for(
            engine, build_scenario(spec).source)
        assert first is second

    def test_token_memo_is_per_object(self, spec):
        runner = EngineRunner()
        target = build_scenario(spec).target
        token = runner.database_token(target)
        assert runner.database_token(target) == token  # memo hit
        assert runner.database_token(build_scenario(spec).target) == token


class TestStoreBackedRunner:
    def test_two_processes_one_preparation(self, tmp_path):
        """A store-backed runner persists its preparation; a second
        (fresh) runner over the same store loads instead of re-preparing
        — the serve-loop artifact path, driven through the evaluation
        tier."""
        store = ArtifactStore(tmp_path / "store")
        cold = run_scenario("events", runner=EngineRunner(store=store))
        assert store.counters["saves"] == 1
        assert len(store) == 1

        warm_store = ArtifactStore(store.root)  # fresh handle, same disk
        warm = run_scenario("events",
                            runner=EngineRunner(store=warm_store))
        assert warm_store.counters["loads"] == 1
        assert warm_store.counters["saves"] == 0
        assert warm.metrics == cold.metrics
        assert warm.n_matches == cold.n_matches

    def test_loaded_preparation_replays_the_cold_run(self, tmp_path):
        """The store snapshots *prepare-time* state, so a fresh runner
        over the loaded artifact retraces the cold run counter for
        counter — the behavioral face of bit-identical restoration."""
        store = ArtifactStore(tmp_path / "store")
        cold = run_scenario("events", runner=EngineRunner(store=store))
        warm = run_scenario("events",
                            runner=EngineRunner(store=ArtifactStore(
                                store.root)))
        assert warm.counters == cold.counters
        assert warm.counters["partitions_built"] > 0  # both runs are first runs

    def test_storeless_runner_unchanged(self):
        runner = EngineRunner()
        assert runner.store is None
        result = run_scenario("events", runner=runner)
        assert result.n_matches > 0
