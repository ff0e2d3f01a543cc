"""Tests for the MatchEngine: prepared-target reuse, batch matching,
pluggable stages, observer hooks, and run reports."""

import dataclasses

import pytest

from repro import (ContextMatch, ContextMatchConfig, MatchEngine,
                   StandardMatch, StandardMatchConfig)
from repro.context.serialize import match_to_dict
from repro.engine import (STAGE_NAMES, EngineObserver, PreparedTarget,
                          RunReport, SelectStage, Stage, default_stages)
from repro.errors import EngineError


class CountingMatcher:
    """MatchingSystem stub: delegates to StandardMatch, counting calls."""

    def __init__(self, config=None):
        self.inner = StandardMatch(config)
        self.index_builds = 0
        self.relation_scores = 0

    def build_target_index(self, target):
        self.index_builds += 1
        return self.inner.build_target_index(target)

    def score_relation(self, relation, index):
        self.relation_scores += 1
        return self.inner.score_relation(relation, index)

    def accept(self, match, tau):
        return self.inner.accept(match, tau)

    def score_attribute(self, table, sample_values, attribute, index):
        return self.inner.score_attribute(table, sample_values, attribute,
                                          index)

    def match(self, source, target, tau):
        return self.inner.match(source, target, tau)


@pytest.fixture(scope="module")
def retail_sources():
    """Three retail source schemas plus one shared target."""
    from repro.datagen import make_retail_workload
    workloads = [make_retail_workload(target="ryan", gamma=2, n_source=250,
                                      seed=31 + i) for i in range(3)]
    return [w.source for w in workloads], workloads[0].target


CONFIG = ContextMatchConfig(inference="src", seed=5)


class TestPrepare:
    def test_prepared_target_contents(self, retail_sources):
        _, target = retail_sources
        prepared = MatchEngine(CONFIG).prepare(target)
        assert isinstance(prepared, PreparedTarget)
        assert set(prepared.table_names) == set(target.schema.table_names)
        assert prepared.index.samples
        # Categorical-policy analysis covers every target table.
        assert set(prepared.categorical) == set(prepared.table_names)

    def test_match_accepts_plain_database(self, retail_sources):
        sources, target = retail_sources
        result = MatchEngine(CONFIG).match(sources[0], target)
        assert result.matches
        assert result.report is not None
        assert not result.report.target_prepared

    def test_match_flags_prepared_reuse(self, retail_sources):
        sources, target = retail_sources
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        result = engine.match(sources[0], prepared)
        assert result.report.target_prepared

    def test_incompatible_prepared_rejected(self, retail_sources):
        _, target = retail_sources
        prepared = MatchEngine(CONFIG).prepare(target)
        other = MatchEngine(ContextMatchConfig(
            inference="src", seed=5,
            standard=StandardMatchConfig(sample_limit=50)))
        with pytest.raises(EngineError):
            other.match(target, prepared)

    def test_custom_matcher_prepared_not_reusable_elsewhere(
            self, retail_sources):
        """An index built by a custom matching system may use a private
        format; only the same matcher object may consume it."""
        sources, target = retail_sources
        custom = MatchEngine(CONFIG, matcher=CountingMatcher(CONFIG.standard))
        prepared = custom.prepare(target)
        assert custom.match(sources[0], prepared).matches  # same object: fine
        with pytest.raises(EngineError):
            MatchEngine(CONFIG).match(sources[0], prepared)

    def test_prepared_stamps_actual_matcher_config(self, retail_sources):
        """A custom StandardMatch's own config is what the index was
        profiled under — not the engine-level config.standard."""
        _, target = retail_sources
        thin = StandardMatchConfig(sample_limit=50)
        engine = MatchEngine(CONFIG, matcher=StandardMatch(thin))
        prepared = engine.prepare(target)
        assert prepared.standard_config == thin
        with pytest.raises(EngineError):
            MatchEngine(CONFIG).match(target, prepared)


class TestMatchMany:
    """Acceptance: match_many over N sources against one PreparedTarget
    builds the target index exactly once and returns matches equal to N
    fresh ContextMatch runs with the same seed."""

    def test_index_built_exactly_once(self, retail_sources):
        sources, target = retail_sources
        matcher = CountingMatcher(CONFIG.standard)
        engine = MatchEngine(CONFIG, matcher=matcher)
        results = engine.match_many(sources, target)
        assert len(results) == 3
        assert matcher.index_builds == 1
        assert matcher.relation_scores >= 3

    def test_equal_to_fresh_contextmatch_runs(self, retail_sources):
        sources, target = retail_sources
        engine = MatchEngine(CONFIG)
        batched = engine.match_many(sources, engine.prepare(target))
        for source, batch_result in zip(sources, batched):
            fresh = ContextMatch(CONFIG).run(source, target)
            assert ([match_to_dict(m) for m in batch_result.matches]
                    == [match_to_dict(m) for m in fresh.matches])

    def test_fresh_facade_runs_rebuild_index_each_time(self, retail_sources):
        """The baseline the engine improves on: one build per run."""
        sources, target = retail_sources
        matcher = CountingMatcher(CONFIG.standard)
        for source in sources:
            ContextMatch(CONFIG, matcher=matcher).run(source, target)
        assert matcher.index_builds == 3

    def test_results_in_input_order(self, retail_sources):
        sources, target = retail_sources
        engine = MatchEngine(CONFIG)
        results = engine.match_many(reversed(sources), target)
        assert len(results) == 3


class TestRunReport:
    def test_all_five_stages_timed(self, retail_sources):
        sources, target = retail_sources
        result = MatchEngine(CONFIG).match(sources[0], target)
        report = result.report
        assert isinstance(report, RunReport)
        assert tuple(s.name for s in report.stages) == STAGE_NAMES
        timings = report.stage_timings()
        assert set(timings) == set(STAGE_NAMES)
        assert all(t >= 0.0 for t in timings.values())
        assert report.elapsed_seconds >= sum(timings.values())
        assert result.elapsed_seconds == report.elapsed_seconds

    def test_stage_counts(self, retail_sources):
        sources, target = retail_sources
        report = MatchEngine(CONFIG).match(sources[0], target).report
        assert report.stage("standard-match").counts["accepted"] > 0
        assert report.stage("infer-views").counts["families"] > 0
        assert report.stage("score-candidates").counts["candidates"] > 0
        assert report.stage("select").counts["contextual"] > 0
        assert report.stage("conjunctive-refine").counts["iterations"] == 0
        assert report.stage("missing-stage") is None

    def test_report_renders(self, retail_sources):
        sources, target = retail_sources
        report = MatchEngine(CONFIG).match(sources[0], target).report
        text = str(report)
        for name in STAGE_NAMES:
            assert name in text


class TestObservers:
    def test_callbacks_fire_in_order(self, retail_sources):
        sources, target = retail_sources
        events = []

        class Recorder(EngineObserver):
            def on_run_start(self, source, prepared):
                events.append("run-start")

            def on_stage_start(self, stage, state):
                events.append(f"start:{stage}")

            def on_stage_end(self, report, state):
                events.append(f"end:{report.name}")

            def on_run_end(self, report, result):
                events.append("run-end")

        engine = MatchEngine(CONFIG, observers=[Recorder()])
        engine.match(sources[0], target)
        expected = ["run-start"]
        for name in STAGE_NAMES:
            expected += [f"start:{name}", f"end:{name}"]
        expected.append("run-end")
        assert events == expected

    def test_observer_sees_pipeline_state(self, retail_sources):
        sources, target = retail_sources
        seen = {}

        class Inspector(EngineObserver):
            def on_stage_end(self, report, state):
                if report.name == "standard-match":
                    seen["accepted"] = dict(state.accepted)

        MatchEngine(CONFIG, observers=[Inspector()]).match(sources[0],
                                                           target)
        assert any(seen["accepted"].values())


class TestPluggableStages:
    def test_custom_stage_list(self, retail_sources):
        """A pipeline without the conjunctive stage still selects matches."""
        sources, target = retail_sources
        stages = [s for s in default_stages()
                  if s.name != "conjunctive-refine"]
        result = MatchEngine(CONFIG, stages=stages).match(sources[0], target)
        assert result.matches
        assert [s.name for s in result.report.stages] == \
            [s.name for s in stages]

    def test_extra_stage_observes_result(self, retail_sources):
        sources, target = retail_sources

        class PruneStage(Stage):
            name = "prune"

            def run(self, state):
                before = len(state.result.matches)
                state.result.matches = [m for m in state.result.matches
                                        if m.confidence >= 0.6]
                return {"pruned": before - len(state.result.matches)}

        stages = default_stages() + [PruneStage()]
        result = MatchEngine(CONFIG, stages=stages).match(sources[0], target)
        assert all(m.confidence >= 0.6 for m in result.matches)
        assert result.report.stage("prune") is not None

    def test_select_stage_alone_requires_nothing(self, retail_sources):
        """Stages are independent: selection over an empty state yields an
        empty result rather than crashing."""
        sources, target = retail_sources
        result = MatchEngine(CONFIG, stages=[SelectStage()]).match(
            sources[0], target)
        assert result.matches == []

    def test_pipeline_without_standard_stage_degrades_gracefully(
            self, retail_sources):
        """Dropping the first stage leaves no accepted prototypes: later
        stages see empty inputs instead of crashing."""
        sources, target = retail_sources
        stages = [s for s in default_stages() if s.name != "standard-match"]
        result = MatchEngine(CONFIG, stages=stages).match(sources[0], target)
        assert result.matches == []
        assert result.candidates == []


class TestMatchReversed:
    def test_equals_facade_run_reversed(self, retail_sources):
        sources, target = retail_sources
        engine_result = MatchEngine(CONFIG).match_reversed(target,
                                                           sources[0])
        facade_result = ContextMatch(CONFIG).run_reversed(target, sources[0])
        assert ([match_to_dict(m) for m in engine_result.matches]
                == [match_to_dict(m) for m in facade_result.matches])

    def test_report_marks_reversal(self, retail_sources):
        sources, target = retail_sources
        result = MatchEngine(CONFIG).match_reversed(target, sources[0])
        assert result.report.role_reversed
        assert result.elapsed_seconds > 0.0
        assert result.elapsed_seconds == result.report.elapsed_seconds
        # This call built the preparation itself, and the report says so.
        assert not result.report.target_prepared

    def test_report_marks_supplied_preparation(self, retail_sources):
        sources, target = retail_sources
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        result = engine.match_reversed(prepared, sources[0])
        assert result.report.target_prepared

    def test_prepared_source_side_reused(self, retail_sources):
        """Reversed matching prepares the *source* side — reusable too."""
        sources, target = retail_sources
        matcher = CountingMatcher(CONFIG.standard)
        engine = MatchEngine(CONFIG, matcher=matcher)
        prepared = engine.prepare(target)
        engine.match_reversed(prepared, sources[0])
        engine.match_reversed(prepared, sources[1])
        assert matcher.index_builds == 1


class TestGarbage:
    def test_a_run_leaves_no_cyclic_garbage(self, retail_sources):
        """Reference counting frees everything a warm run allocates:
        cyclic garbage would outlive the run until a collection, and a
        worker matching source after source would climb in peak
        memory."""
        import gc

        sources, target = retail_sources
        engine = MatchEngine(dataclasses.replace(CONFIG,
                                                 conjunctive_stages=2))
        prepared = engine.prepare(target)
        engine.match(sources[0], prepared)
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            engine.match(sources[1], prepared)
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []


class TestDeterminism:
    def test_reused_prepared_target_is_stateless_across_runs(
            self, retail_sources):
        """Lazily-populated caches on the prepared target must not change
        results between the first and later runs."""
        sources, target = retail_sources
        config = ContextMatchConfig(inference="tgt", seed=5)
        engine = MatchEngine(config)
        prepared = engine.prepare(target)
        first = engine.match(sources[0], prepared)
        again = engine.match(sources[0], prepared)
        assert ([match_to_dict(m) for m in first.matches]
                == [match_to_dict(m) for m in again.matches])


def run_counts(result, stage):
    """One stage's counts without the q-gram cache keys: the first tgt
    run against an artifact in a process also trains its target
    classifiers, and that tokenizing is credited to it."""
    return {key: value
            for key, value in result.report.stage(stage).counts.items()
            if not key.startswith("token_cache")}


class TestFrozenPreparedTarget:
    """No run writes to a prepared target: it is a frozen dataclass, its
    pickle is what ``prepare()`` built, and a run's counts do not depend
    on the runs before it."""

    def test_assigning_a_field_raises(self, retail_sources):
        _, target = retail_sources
        prepared = MatchEngine(CONFIG).prepare(target)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.retrieval = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.runs = 1

    def test_runs_leave_the_pickle_unchanged(self, retail_sources):
        import pickle

        sources, target = retail_sources
        for prepared_k in (16, 4):
            prepared = MatchEngine(dataclasses.replace(
                CONFIG, retrieval_top_k=prepared_k)).prepare(target)
            assert (prepared.retrieval is None) == (prepared_k == 16)
            before = pickle.dumps(prepared)
            # k = 4 against the index-less artifact builds a run-local
            # index; none of it may land in the artifact.
            for inference in ("src", "tgt"):
                for k in (16, 4):
                    MatchEngine(dataclasses.replace(
                        CONFIG, inference=inference, retrieval_top_k=k)
                    ).match(sources[0], prepared)
            assert pickle.dumps(prepared) == before

    def test_tgt_counts_equal_on_fresh_and_used_artifacts(
            self, retail_sources):
        sources, target = retail_sources
        engine = MatchEngine(ContextMatchConfig(inference="tgt", seed=5))
        used = engine.prepare(target)
        for source in sources:
            engine.match(source, used)
        fresh = engine.match(sources[0], engine.prepare(target))
        again = engine.match(sources[0], used)
        assert again.report.stage("infer-views").counts[
            "values_classified"] > 0
        assert run_counts(again, "infer-views") \
            == run_counts(fresh, "infer-views")
        assert ([match_to_dict(m) for m in again.matches]
                == [match_to_dict(m) for m in fresh.matches])
        # Once trained, the classifiers add nothing: later runs agree on
        # the q-gram counts too.
        assert again.report.stage("infer-views").counts \
            == engine.match(sources[0], used).report.stage(
                "infer-views").counts


def token_counts(result):
    """Per-stage q-gram cache counts of one run."""
    return {stage.name: (stage.counts.get("token_cache_hits"),
                         stage.counts.get("token_cache_misses"))
            for stage in result.report.stages}


class TestRunTokenCache:
    """Each run tokenizes through its own q-gram cache: its stage counts
    are its own, and the process cache does not grow with requests."""

    def test_concurrent_runs_report_their_solo_counts(self,
                                                      retail_sources):
        import sys
        import threading

        sources, target = retail_sources
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        solo = [token_counts(engine.match(source, prepared))
                for source in sources[:2]]
        assert solo[0] != solo[1]  # different sources, different counts
        barrier = threading.Barrier(2, timeout=30)
        results: dict[int, dict] = {}
        errors: list[BaseException] = []

        def run(i):
            try:
                barrier.wait()
                results[i] = token_counts(engine.match(sources[i],
                                                       prepared))
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        assert [results[0], results[1]] == solo

    def test_stage_counts_sum_to_the_run_cache(self, retail_sources):
        """Every stage that tokenizes credits its cache work, the
        rescoring and refinement stages included, so the stage counts of
        a run sum to its whole q-gram cache traffic."""
        from repro.matching.tokens import token_cache_counters

        class CacheTotals(EngineObserver):
            def on_stage_end(self, report, state):
                # Inside the run: the active cache is the run's own.
                self.totals = token_cache_counters()

        sources, target = retail_sources
        totals = CacheTotals()
        engine = MatchEngine(dataclasses.replace(CONFIG,
                                                 conjunctive_stages=2),
                             observers=[totals])
        result = engine.match(sources[0], engine.prepare(target))
        counts = result.report.stage("conjunctive-refine").counts
        assert counts["iterations"] == 1
        assert counts["token_cache_hits"] > 0
        assert result.report.stage("score-candidates").counts[
            "token_cache_hits"] > 0
        summed = {key: sum(stage.counts.get(key, 0)
                           for stage in result.report.stages)
                  for key in totals.totals}
        assert summed == totals.totals

    def test_runs_leave_the_process_cache_unchanged(self, retail_sources):
        from repro.datagen import make_retail_workload
        from repro.matching.tokens import TOKEN_CACHE

        _, target = retail_sources
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        size = len(TOKEN_CACHE)
        for seed in (71, 72, 73):
            source = make_retail_workload(target="ryan", gamma=2,
                                          n_source=120, seed=seed).source
            result = engine.match(source, prepared)
            assert token_counts(result)["infer-views"][0] > 0
        assert len(TOKEN_CACHE) == size
