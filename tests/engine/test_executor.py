"""Tests for the parallel match executor: backend selection, submission
ordering, chunked scheduling, throughput reporting, worker-side artifact
caching, and serial/process bit-identity."""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.context.serialize import (result_to_dict, throughput_from_dict,
                                     throughput_to_dict)
from repro.engine import (BatchResult, ExecutorConfig, MatchExecutor,
                          ThroughputReport)
from repro.engine.executor import effective_parallelism
from repro.errors import EngineError


@pytest.fixture(scope="module")
def retail_batch():
    """Three small retail sources plus one shared target."""
    from repro.datagen import make_retail_workload
    workloads = [make_retail_workload(target="ryan", gamma=2, n_source=150,
                                      seed=60 + i) for i in range(3)]
    return [w.source for w in workloads], workloads[0].target


CONFIG = ContextMatchConfig(inference="src", seed=5)


def _comparable(result):
    """Everything pinned across backends: matches, prototype scores and
    deterministic stage counts (timings and the process-global token-cache
    telemetry legitimately vary run to run)."""
    payload = result_to_dict(result)
    payload.pop("elapsed_seconds")
    report = payload["report"]
    report.pop("elapsed_seconds")
    for stage in report["stages"]:
        stage.pop("elapsed_seconds")
        for key in ("token_cache_hits", "token_cache_misses"):
            stage["counts"].pop(key, None)
    return payload


class TestExecutorConfig:
    def test_defaults_to_serial(self):
        config = ExecutorConfig()
        assert config.backend == "serial"
        assert config.resolved_workers() == 1

    def test_rejects_unknown_backend(self):
        with pytest.raises(EngineError, match="unknown executor backend"):
            ExecutorConfig(backend="threads")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(EngineError, match="max_workers"):
            ExecutorConfig(backend="process", max_workers=0)

    def test_process_workers_default_to_host_parallelism(self):
        config = ExecutorConfig(backend="process")
        assert config.resolved_workers() == effective_parallelism()

    def test_for_jobs_mapping(self):
        assert ExecutorConfig.for_jobs(None).backend == "serial"
        assert ExecutorConfig.for_jobs(1).backend == "serial"
        four = ExecutorConfig.for_jobs(4)
        assert four.backend == "process"
        assert four.resolved_workers() == 4

    def test_for_jobs_rejects_non_positive(self):
        with pytest.raises(EngineError, match="jobs must be >= 1"):
            ExecutorConfig.for_jobs(0)
        with pytest.raises(EngineError, match="jobs must be >= 1"):
            ExecutorConfig.for_jobs(-2)

    def test_resolved_chunk_size_targets_four_rounds_per_worker(self):
        config = ExecutorConfig(backend="process", max_workers=2)
        assert config.resolved_chunk_size(80) == 10  # 8 chunks, 4/worker
        assert config.resolved_chunk_size(3) == 1    # small batches spread
        assert config.resolved_chunk_size(0) == 1


class TestSerialBackend:
    def test_match_many_equals_engine_loop(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        direct = [engine.match(source, prepared) for source in sources]
        batch = MatchExecutor().match_many(engine, sources, prepared)
        assert isinstance(batch, BatchResult)
        assert len(batch) == len(sources)
        for loop_result, batch_result in zip(direct, batch):
            assert loop_result.matches == batch_result.matches
            assert (loop_result.standard_matches
                    == batch_result.standard_matches)

    def test_throughput_report_shape(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        executor = MatchExecutor()
        batch = executor.match_many(engine, sources, target)
        report = batch.throughput
        assert isinstance(report, ThroughputReport)
        assert report.backend == "serial"
        assert report.workers == 1
        assert report.tasks == len(sources)
        assert len(report.task_seconds) == len(sources)
        assert all(t > 0.0 for t in report.task_seconds)
        assert report.wall_seconds >= max(report.task_seconds)
        assert report.prepare_transfer_bytes == 0
        assert report.tasks_per_second > 0.0
        assert executor.last_throughput is report

    def test_batch_result_is_sequence_like(self, retail_batch):
        sources, target = retail_batch
        batch = MatchExecutor().match_many(MatchEngine(CONFIG),
                                           sources[:2], target)
        assert len(batch) == 2
        assert batch[0] is batch.results[0]
        assert list(batch) == batch.results

    def test_serial_backend_fires_observers(self, retail_batch):
        """In-process batches run on the caller's engine, so observer
        hooks fire exactly as in a hand-written loop."""
        from repro.engine import EngineObserver

        class Recorder(EngineObserver):
            def __init__(self):
                self.runs = 0
                self.stages = []

            def on_run_start(self, source, prepared):
                self.runs += 1

            def on_stage_end(self, report, state):
                self.stages.append(report.name)

        sources, target = retail_batch
        recorder = Recorder()
        engine = MatchEngine(CONFIG, observers=[recorder])
        MatchExecutor().match_many(engine, sources[:2], target)
        assert recorder.runs == 2
        assert recorder.stages.count("select") == 2

    def test_engine_match_many_routes_through_executor(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        executor = MatchExecutor()
        results = engine.match_many(sources[:2], target, executor=executor)
        assert isinstance(results, list) and len(results) == 2
        assert executor.last_throughput.tasks == 2


class TestChunkedScheduling:
    """Bit-identity, submission order and chunk counts across the derived
    chunk sizes of the process backend."""

    @staticmethod
    def _check_batch(executor, engine, prepared, sources, reference, tasks):
        """Match ``tasks`` sources (cycling the batch) and pin results,
        order and chunk count; returns the derived chunk size."""
        batch_sources = [sources[i % len(sources)] for i in range(tasks)]
        batch = executor.match_many(engine, batch_sources, prepared)
        expected = [reference[i % len(sources)] for i in range(tasks)]
        assert [_comparable(r) for r in batch] == expected, tasks
        size = executor.config.resolved_chunk_size(tasks)
        assert batch.throughput.chunks == -(-tasks // size)
        return size

    def test_match_many_chunk_grid(self, retail_batch):
        """Batch sizes on one 2-worker pool: 3 tasks run in chunks of 1,
        9 tasks in chunks of 2 with an uneven last chunk (2*4+1)."""
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        reference = [_comparable(r) for r in
                     MatchExecutor().match_many(engine, sources, prepared)]
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            sizes = [self._check_batch(executor, engine, prepared, sources,
                                       reference, tasks)
                     for tasks in (3, 9)]
        assert sizes == [1, 2]

    def test_match_many_chunk_grid_process(self, retail_batch):
        """Worker counts at a fixed 5-task batch: one worker runs chunks
        of 2 (2+2+1), two workers run chunks of 1."""
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        reference = [_comparable(r) for r in
                     MatchExecutor().match_many(engine, sources, prepared)]
        sizes = []
        for workers in (1, 2):
            config = ExecutorConfig(backend="process", max_workers=workers)
            with MatchExecutor(config) as executor:
                sizes.append(self._check_batch(executor, engine, prepared,
                                               sources, reference, 5))
        assert sizes == [2, 1]

    def test_route_many_chunk_grid(self):
        """``route_many`` on a process pool equals serial routing, with
        every hub's artifact riding the chunks of one pool."""
        from repro import TargetRepository
        from repro.datagen import build_scenario, get_scenario
        events = build_scenario(get_scenario("events").resized(50))
        retail = build_scenario(get_scenario("retail").resized(50))
        engine = MatchEngine()
        repo = TargetRepository(engine)
        repo.add(events.target)
        repo.add(retail.target)
        sources = [events.source, retail.source, events.source,
                   retail.source, events.source]
        reference = [[(s.token, s.score, s.n_matches) for s in r.ranking]
                     for r in repo.route_many(sources)]
        for workers in (1, 2):  # chunk sizes 2 (uneven) and 1
            config = ExecutorConfig(backend="process", max_workers=workers)
            with MatchExecutor(config) as executor:
                routed = repo.route_many(sources, executor=executor)
                assert executor.counters["batches"] == 2  # one per hub
            got = [[(s.token, s.score, s.n_matches) for s in r.ranking]
                   for r in routed]
            assert got == reference, workers


def _probe_worker_cache(_payload):
    """Worker-side probe: size and lifetime evictions of the artifact
    cache in the (sole) worker process."""
    from repro.engine import executor as mod
    return len(mod._ARTIFACTS), mod._EVICTIONS


class TestWorkerCacheBounds:
    def test_cycling_artifacts_keeps_worker_cache_bounded(self):
        """Regression: N distinct targets through ONE pool must not grow
        the worker cache without limit — the bounded LRU evicts, and the
        evictions surface on the batch reports."""
        from repro.datagen import make_retail_workload
        from repro.engine import executor as mod
        engine = MatchEngine(CONFIG)
        workloads = [make_retail_workload(target="ryan", gamma=2,
                                          n_source=60, seed=200 + i)
                     for i in range(mod._ARTIFACT_SLOTS + 2)]
        reported = 0
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=1)) as executor:
            pool = None
            for workload in workloads:
                prepared = engine.prepare(workload.target)
                batch = executor.match_many(engine, [workload.source],
                                            prepared)
                reported += batch.throughput.artifact_evictions
                if pool is None:
                    pool = executor._pool
            assert executor._pool is pool  # one pool served every artifact
            # The most recent artifact is still cached: no unpickle, no
            # eviction.
            again = executor.match_many(engine, [workload.source], prepared)
            assert again.throughput.artifact_evictions == 0
            size, lifetime = executor.run_tasks(
                _probe_worker_cache, [None]).results[0]
            # The parent-side memos stay bounded too.
            assert len(executor._shipped) <= executor._MEMO_SLOTS
        assert size <= mod._ARTIFACT_SLOTS
        assert reported >= 2          # 6 artifacts through 4 slots
        assert lifetime == reported   # every eviction was surfaced
        assert executor.counters["artifact_evictions"] == reported


class TestProcessBackend:
    def test_match_many_bit_identical_to_serial(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        serial = MatchExecutor().match_many(engine, sources, prepared)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            process = executor.match_many(engine, sources, prepared)
        assert [_comparable(r) for r in serial] \
            == [_comparable(r) for r in process]

    def test_results_in_submission_order(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            batch = executor.match_many(engine, sources, target)
        serial = [engine.match(s, engine.prepare(target)) for s in sources]
        for expected, got in zip(serial, batch):
            assert {str(m) for m in expected.matches} \
                == {str(m) for m in got.matches}

    def test_reports_transfer_bytes_and_workers(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            batch = executor.match_many(engine, sources[:2], target)
        report = batch.throughput
        assert report.backend == "process"
        assert report.workers == 2
        assert report.transport == "pickle"
        assert report.shm_bytes == 0
        assert report.prepare_transfer_bytes > 0
        assert len(report.task_seconds) == 2

    def test_pool_and_payload_reused_across_batches(self, retail_batch):
        """Same prepared artifact, consecutive batches: the pickled payload
        is shipped (counted) identically and the pool object survives."""
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            first = executor.match_many(engine, sources[:1], prepared)
            pool = executor._pool
            second = executor.match_many(engine, sources[1:2], prepared)
            assert executor._pool is pool
            assert (first.throughput.prepare_transfer_bytes
                    == second.throughput.prepare_transfer_bytes)
            # One shared EngineArtifact, pickled exactly once: the memos
            # hit instead of accumulating per batch.
            assert len(executor._artifacts) == 1
            assert len(executor._shipped) == 1
        assert executor._pool is None  # context exit closed it

    def test_artifact_memo_invalidated_by_stage_mutation(self,
                                                         retail_batch):
        """Swapping engine.stages between batches must rebuild the shipped
        artifact — both backends always run the live pipeline."""
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        prepared = engine.prepare(target)
        executor = MatchExecutor()
        first = executor._artifact_for(engine, prepared)
        assert executor._artifact_for(engine, prepared) is first  # memo hit
        engine.stages = [s for s in engine.stages
                         if s.name != "conjunctive-refine"]
        second = executor._artifact_for(engine, prepared)
        assert second is not first
        assert [s.name for s in second.stages] \
            == [s.name for s in engine.stages]

    def test_empty_process_batch_spins_no_pool(self, retail_batch):
        _, target = retail_batch
        engine = MatchEngine(CONFIG)
        executor = MatchExecutor(ExecutorConfig(backend="process"))
        batch = executor.match_many(engine, [], target)
        assert batch.results == []
        assert executor._pool is None  # early return, no workers spawned

    def test_artifact_memos_are_bounded(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        executor = MatchExecutor()
        for _ in range(executor._MEMO_SLOTS + 3):
            # A fresh PreparedTarget per batch — distinct memo keys.
            executor.match_many(engine, sources[:1], target)
        assert len(executor._artifacts) <= executor._MEMO_SLOTS
        assert len(executor._shipped) <= executor._MEMO_SLOTS

    def test_reversed_sweep_bit_identical(self, retail_batch):
        sources, target = retail_batch
        engine = MatchEngine(CONFIG)
        targets = [target]
        serial = MatchExecutor().match_reversed_many(engine, sources[0],
                                                     targets)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            process = executor.match_reversed_many(engine, sources[0],
                                                   targets)
        assert [_comparable(r) for r in serial] \
            == [_comparable(r) for r in process]
        assert all(r.report.role_reversed for r in process)

    def test_worker_errors_propagate(self):
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=1)) as executor:
            with pytest.raises(ZeroDivisionError):
                executor.run_tasks(_failing_task, [1])

    def test_empty_batch(self, retail_batch):
        _, target = retail_batch
        engine = MatchEngine(CONFIG)
        batch = MatchExecutor(ExecutorConfig(backend="process")) \
            .match_many(engine, [], target)
        assert batch.results == []
        assert batch.throughput.tasks == 0
        assert batch.throughput.tasks_per_second == 0.0

    def test_pickle_transport_ships_whole_artifact(self):
        """Every chunk carries the artifact's whole pickle, and the report
        counts it once per chunk."""
        artifact = {"offset": 10, "pad": b"x" * 4096}
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=1)) as executor:
            batch = executor.run_tasks(_offset_task, [1, 2, 3],
                                       artifact=artifact)
            _, blob = executor._ship(artifact)
        assert batch.results == [11, 12, 13]
        report = batch.throughput
        assert report.transport == "pickle"
        assert report.shm_bytes == 0
        assert report.chunks == 3  # 3 tasks on 1 worker: chunks of 1
        assert len(blob) > len(artifact["pad"])
        assert report.prepare_transfer_bytes == len(blob) * report.chunks

    def test_closed_executor_restarts_pool_on_next_batch(self):
        artifact = {"offset": 10}
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=1)) as executor:
            first = executor.run_tasks(_offset_task, [1], artifact=artifact)
            executor.close()  # stops the pool; the executor stays usable
            assert executor._pool is None
            second = executor.run_tasks(_offset_task, [1], artifact=artifact)
            assert executor._pool is not None
        assert first.results == second.results == [11]
        assert (first.throughput.prepare_transfer_bytes
                == second.throughput.prepare_transfer_bytes > 0)

    def test_broken_pool_is_dropped_and_replaced(self):
        """A killed worker breaks the pool: the executor drops it, and
        the next batch runs on a fresh one."""
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=1)) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.run_tasks(_exit_task, [0])
            assert executor._pool is None
            batch = executor.run_tasks(_offset_task, [2],
                                       artifact={"offset": 1})
        assert batch.results == [3]


def _failing_task(payload):
    return payload / 0


def _offset_task(artifact, payload):
    return artifact["offset"] + payload


def _exit_task(_payload):
    os._exit(1)


class TestThroughputCodec:
    def test_round_trip(self):
        report = ThroughputReport(backend="process", workers=4, tasks=3,
                                  wall_seconds=1.5,
                                  task_seconds=[0.5, 0.4, 0.6],
                                  prepare_transfer_bytes=1234)
        payload = throughput_to_dict(report)
        assert payload["busy_seconds"] == pytest.approx(1.5)
        assert payload["tasks_per_second"] == pytest.approx(2.0)
        restored = throughput_from_dict(payload)
        assert restored == report

    def test_round_trip_with_transport_counters(self):
        report = ThroughputReport(backend="process", workers=4, tasks=8,
                                  wall_seconds=1.0,
                                  task_seconds=[0.1] * 8,
                                  prepare_transfer_bytes=512,
                                  transport="pickle", chunks=3,
                                  shm_bytes=4096, artifact_evictions=2)
        payload = throughput_to_dict(report)
        assert payload["transport"] == "pickle"
        assert payload["chunks"] == 3
        assert payload["shm_bytes"] == 4096
        assert payload["artifact_evictions"] == 2
        assert throughput_from_dict(payload) == report

    def test_legacy_payload_parses_with_counter_defaults(self):
        """Pre-transport payloads (no transport/chunk/shm fields) still
        parse — the counters default to their in-process values."""
        payload = {"backend": "process", "workers": 2, "tasks": 1,
                   "wall_seconds": 0.5, "task_seconds": [0.5],
                   "prepare_transfer_bytes": 10}
        report = throughput_from_dict(payload)
        assert report.transport is None
        assert report.chunks == 0
        assert report.shm_bytes == 0
        assert report.artifact_evictions == 0

    def test_derived_fields_not_trusted_on_parse(self):
        payload = throughput_to_dict(ThroughputReport(
            backend="serial", workers=1, tasks=1, wall_seconds=2.0,
            task_seconds=[2.0]))
        payload["busy_seconds"] = 999.0  # ignored: derived, not stored
        assert throughput_from_dict(payload).busy_seconds \
            == pytest.approx(2.0)
