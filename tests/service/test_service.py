"""MatchService: warm-LRU semantics, concurrency, telemetry.

The acceptance pin of the serve loop lives here: concurrent requests
against one target are answered from the warm LRU with **exactly one**
store load per target per process — the ``lru["loads"]`` counter proves
it — and every served result is bit-identical to running the engine in
process.
"""

from __future__ import annotations

import threading

import pytest

from repro import ArtifactStore, MatchEngine, MatchService
from repro.datagen import build_scenario, get_scenario
from repro.errors import ArtifactNotFoundError
from repro.relational.jsonio import database_to_dict
from repro.service.report import ServiceReport, latency_summary, percentile


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def reference(engine, workload):
    """The in-process answer every served result must equal."""
    prepared = engine.prepare(workload.target)
    return engine.match(workload.source, prepared)


@pytest.fixture
def store(tmp_path, engine, workload):
    store = ArtifactStore(tmp_path / "store")
    store.save(engine.prepare(workload.target), engine=engine)
    return store


def _key(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


class TestMatch:
    def test_bit_identical_to_in_process(self, store, workload, reference):
        with MatchService(store) as service:
            token = service.warm()[0]
            result, served = service.match(workload.source, token)
        assert served == token
        assert _key(result) == _key(reference)

    def test_accepts_json_payload_sources(self, store, workload, reference):
        with MatchService(store) as service:
            token = service.warm()[0]
            result, _ = service.match(database_to_dict(workload.source),
                                      token)
        assert _key(result) == _key(reference)

    def test_resolves_database_name(self, store, workload):
        with MatchService(store) as service:
            token = service.warm()[0]
            _, served = service.match(workload.source,
                                      workload.target.name)
        assert served == token

    def test_unknown_target_raises_not_found(self, store, workload):
        with MatchService(store) as service:
            with pytest.raises(ArtifactNotFoundError):
                service.match(workload.source, "no-such-target")

    def test_match_many_routes_through_executor(self, store, workload,
                                                reference):
        with MatchService(store) as service:
            token = service.warm()[0]
            batch, served = service.match_many(
                [workload.source, workload.source], token)
        assert served == token
        assert len(batch.results) == 2
        for result in batch.results:
            assert _key(result) == _key(reference)
        assert batch.throughput.tasks == 2


class TestWarmLRU:
    def test_one_store_load_per_target(self, store, workload):
        """The headline counter: N requests, one disk load."""
        with MatchService(store) as service:
            token = service.warm()[0]
            for _ in range(5):
                service.match(workload.source, token)
            lru = dict(service.lru_counters)
        assert lru["loads"] == 1
        assert lru["misses"] == 1  # the warm() call's initial cold miss
        assert lru["hits"] == 5
        assert store.counters["loads"] == 1

    def test_concurrent_cold_herd_loads_once(self, store, workload):
        """Eight threads race a cold target; the per-token load lock
        admits exactly one store load."""
        service = MatchService(store)  # deliberately NOT warmed
        token = store.entries()[0].token
        errors = []
        results = []

        def hammer():
            try:
                result, _ = service.match(workload.source, token)
                results.append(_key(result))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert not errors
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert service.lru_counters["loads"] == 1
        assert store.counters["loads"] == 1

    def test_eviction_and_reload(self, store, engine, workload):
        """A capacity-1 LRU serving two targets alternately reloads from
        the store instead of failing — and counts each load."""
        other = build_scenario(get_scenario("retail").resized(60))
        store.save(engine.prepare(other.target), engine=engine)
        with MatchService(store, capacity=1) as service:
            token_events = service.resolve(workload.target.name)
            token_retail = service.resolve(other.target.name)
            service.match(workload.source, token_events)
            service.match(other.source, token_retail)   # evicts events
            service.match(workload.source, token_events)  # reloads
            lru = dict(service.lru_counters)
        assert lru["evictions"] == 2
        assert lru["loads"] == 3
        assert store.counters["loads"] == 3

    def test_save_target_is_immediately_warm(self, tmp_path, workload):
        store = ArtifactStore(tmp_path / "fresh")
        with MatchService(store) as service:
            entry = service.save_target(workload.target)
            _, served = service.match(workload.source, entry.token)
            lru = dict(service.lru_counters)
        assert served == entry.token
        assert lru["loads"] == 0  # prepared in memory, never read back
        assert store.counters["loads"] == 0


class TestLRUAccounting:
    @pytest.fixture
    def three_targets(self, store, engine):
        """The module store plus two more prepared targets."""
        for name in ("retail", "clinical"):
            scenario = build_scenario(get_scenario(name).resized(60))
            store.save(engine.prepare(scenario.target), engine=engine)
        return [entry.token for entry in store.entries()]

    def test_warm_clamps_to_capacity(self, store, three_targets):
        """Warming more targets than fit must not claim-warm tokens it
        immediately evicted; only resident tokens come back."""
        with MatchService(store, capacity=2) as service:
            warmed = service.warm()
            lru = dict(service.lru_counters,
                       size=len(service._targets))
        assert len(warmed) == 2
        assert lru["size"] == 2
        assert lru["loads"] == 2          # the third was never loaded
        assert lru["evictions"] == 0
        assert set(warmed) == set(three_targets[:2])

    def test_warm_reports_only_resident_tokens(self, store, three_targets):
        with MatchService(store, capacity=3) as service:
            warmed = service.warm(three_targets)
            resident = set(service._targets)
        assert set(warmed) == resident == set(three_targets)

    def test_load_locks_stay_bounded_under_eviction(self, store,
                                                    three_targets):
        """A capacity-1 service cycling many targets must not leak one
        load lock per token it has ever seen."""
        with MatchService(store, capacity=1) as service:
            for _ in range(3):
                for token in three_targets:
                    service._target_for(token)
            locks = len(service._load_locks)
            evictions = service.lru_counters["evictions"]
        assert locks <= 1
        assert evictions == 8  # 9 loads through a single slot

    def test_save_target_evicts_overflow(self, tmp_path, engine):
        """save_target inserts at the MRU end and applies the same
        capacity accounting as a cache load."""
        store = ArtifactStore(tmp_path / "fresh")
        scenarios = [build_scenario(get_scenario(name).resized(60))
                     for name in ("events", "retail", "clinical")]
        with MatchService(store, capacity=2) as service:
            entries = [service.save_target(s.target) for s in scenarios]
            size = len(service._targets)
            resident = list(service._targets)
            evictions = service.lru_counters["evictions"]
        assert size == 2
        assert evictions == 1
        # Oldest saved target fell out; the newer two are resident.
        assert resident == [entries[1].token, entries[2].token]

    def test_resave_does_not_double_insert(self, tmp_path, engine,
                                           workload):
        store = ArtifactStore(tmp_path / "fresh")
        with MatchService(store, capacity=2) as service:
            first = service.save_target(workload.target)
            second = service.save_target(workload.target)
            size = len(service._targets)
            evictions = service.lru_counters["evictions"]
        assert first.token == second.token
        assert size == 1
        assert evictions == 0


class TestMatchRepository:
    @pytest.fixture
    def hub_store(self, tmp_path, engine):
        store = ArtifactStore(tmp_path / "hubs")
        scenarios = {}
        for name in ("events", "retail", "clinical"):
            scenario = build_scenario(get_scenario(name).resized(60))
            store.save(engine.prepare(scenario.target), engine=engine)
            scenarios[name] = scenario
        return store, scenarios

    def test_routes_across_every_stored_hub(self, hub_store):
        store, scenarios = hub_store
        with MatchService(store) as service:
            routed, tokens = service.match_repository(
                scenarios["retail"].source)
        assert len(tokens) == 3
        assert len(routed.ranking) == 3
        assert routed.best.database == scenarios["retail"].target.name

    def test_explicit_refs_resolve_and_dedupe(self, hub_store):
        store, scenarios = hub_store
        with MatchService(store) as service:
            events_token = service.resolve(
                scenarios["events"].target.name)
            routed, tokens = service.match_repository(
                scenarios["events"].source,
                [events_token, scenarios["retail"].target.name,
                 events_token])
        assert tokens[0] == events_token
        assert len(tokens) == 2
        assert routed.best.token == events_token

    def test_empty_repository_is_not_found(self, tmp_path, workload):
        store = ArtifactStore(tmp_path / "empty")
        with MatchService(store) as service:
            with pytest.raises(ArtifactNotFoundError):
                service.match_repository(workload.source)

    def test_counters_reach_the_report(self, hub_store):
        store, scenarios = hub_store
        with MatchService(store) as service:
            service.match_repository(scenarios["events"].source)
            service.match_repository(scenarios["clinical"].source)
            report = service.report()
        assert report.repository == {"requests": 2, "pairs": 6}
        back = ServiceReport.from_dict(report.to_dict())
        assert back.repository == report.repository

    def test_matches_direct_repository_routing(self, hub_store, engine):
        """The service answer equals an in-process TargetRepository over
        the same store — scores, order and winning result."""
        from repro import TargetRepository

        store, scenarios = hub_store
        repo = TargetRepository.from_store(store, engine)
        direct = repo.match_one(scenarios["events"].source)
        with MatchService(store) as service:
            served, _ = service.match_repository(
                scenarios["events"].source)
        assert [(h.token, h.score) for h in served.ranking] \
            == [(h.token, h.score) for h in direct.ranking]
        assert _key(served.best.result) == _key(direct.best.result)


class TestReport:
    def test_report_counters_and_shape(self, store, workload):
        with MatchService(store) as service:
            token = service.warm()[0]
            service.match(workload.source, token)
            service.observe("match", 12.5)
            service.observe("match", 20.0, error=True)
            report = service.report()
        assert isinstance(report, ServiceReport)
        assert report.version
        assert report.store_path == str(store.root)
        assert report.requests == 2
        assert report.errors == 1
        assert report.endpoints == {"match": 2}
        assert report.latency_ms["match"]["n"] == 2
        assert report.lru["loads"] == 1
        assert report.lru["capacity"] == 8
        assert report.store["entries"] == len(store)
        assert report.executor["backend"] == "serial"
        assert report.targets[0]["token"] == token

    def test_report_round_trips(self, store, workload):
        from repro.service.report import (service_report_from_dict,
                                          service_report_to_dict)

        with MatchService(store) as service:
            service.warm()
            service.observe("match", 1.0)
            report = service.report()
        back = service_report_from_dict(service_report_to_dict(report))
        assert back == report

    def test_report_surfaces_retrieval_and_token_cache(self, store,
                                                       workload):
        with MatchService(store) as service:
            token = service.warm()[0]
            service.match(workload.source, token)
            report = service.report()
        retrieval = report.retrieval
        # Default top-k covers the events target: queries ran, nothing
        # was prunable, recall reads 1.0.
        assert retrieval["queries"] > 0
        assert retrieval["pairs_considered"] > 0
        assert retrieval["pairs_pruned"] == 0
        assert retrieval["missed"] == 0
        assert retrieval["recall"] == 1.0
        assert set(report.token_cache) >= {"token_cache_hits",
                                           "token_cache_misses"}
        # Round-trips with the new sections intact.
        from repro.service.report import (service_report_from_dict,
                                          service_report_to_dict)
        back = service_report_from_dict(service_report_to_dict(report))
        assert back.retrieval == retrieval
        assert back.token_cache == report.token_cache

    def test_match_many_accumulates_retrieval(self, store, workload):
        with MatchService(store) as service:
            token = service.warm()[0]
            _, _ = service.match_many([workload.source, workload.source],
                                      token)
            single = service.report().retrieval
            service.match(workload.source, token)
            after = service.report().retrieval
        assert single["queries"] > 0
        assert after["queries"] > single["queries"]

    def test_runs_are_counted_per_token(self, store, workload):
        """One run per match, per source of a batch — pooled batches
        included — and per hub of a repository route."""
        with MatchService(store, jobs=2) as service:
            token = service.warm()[0]
            service.match_many([workload.source] * 3, token)
            service.match(workload.source, token)
            service.match_repository(workload.source)
            entries = service.target_entries()
            report = service.report()
        assert [entry["runs"] for entry in entries] == [5]
        assert report.targets == [{"token": token,
                                   "database": workload.target.name,
                                   "runs": 5}]

    def test_target_entries_show_warm_state(self, store, workload):
        with MatchService(store) as service:
            token = service.warm()[0]
            service.match(workload.source, token)
            entries = service.target_entries()
        assert entries == [{
            "token": token, "database": workload.target.name,
            "tables": 2, "size_bytes": store.entries()[0].size_bytes,
            "warm": True, "runs": 1}]


class TestLatencyMath:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 25.0
        assert percentile(values, 100) == 40.0
        assert percentile([7.0], 99) == 7.0
        assert percentile([], 50) == 0.0

    def test_latency_summary_fields(self):
        summary = latency_summary([1.0, 2.0, 3.0])
        assert summary["n"] == 3
        assert summary["p50"] == 2.0
        assert summary["mean"] == 2.0
        assert summary["max"] == 3.0
        assert latency_summary([])["n"] == 0
