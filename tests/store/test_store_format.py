"""Lookups consider only entries this library can load.

An entry written under another store format (format 1 held gram-string
profiles and postings, format 2 pickled BM25 postings, format 3 pickled
the run state that runs wrote into a prepared target, format 4 pickled
the matching system that built it, format 5 recorded a categorical
policy) or another library version is refused by ``load_target`` with
``ArtifactVersionError`` before its blob is unpickled.  ``save``'s
dedup, ``find_target`` — and with it ``prepared_target`` —,
``MatchService.resolve`` by name, ``MatchService.warm``,
``MatchService.match_repository`` and ``TargetRepository.from_store``
skip such entries, so a store holding them re-prepares and serves fresh
ones, and routes over the hubs it can load, instead of handing out a
token that cannot load; ``gc`` keeps them.
"""

from __future__ import annotations

import json

import pytest

from repro import MatchEngine
from repro.datagen import build_scenario, get_scenario, make_retail_workload
from repro.engine.prepared import PreparedTarget
from repro.errors import ArtifactNotFoundError, ArtifactVersionError
from repro.repository import TargetRepository
from repro.service import MatchService
from repro.store import STORE_FORMAT, ArtifactStore


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def workload():
    return make_retail_workload(target="ryan", gamma=2, n_source=60,
                                n_target=60, seed=5)


@pytest.fixture(scope="module")
def target(workload):
    return workload.target


@pytest.fixture(scope="module")
def hub(engine):
    """A second hub, prepared by this library."""
    return engine.prepare(
        build_scenario(get_scenario("events").resized(60)).target)


def _stale(store: ArtifactStore, token: str, **fields) -> None:
    """Rewrite *token*'s manifest with *fields* (another handle's view)."""
    path = store.root / f"{token}.json"
    manifest = json.loads(path.read_text())
    manifest.update(fields)
    path.write_text(json.dumps(manifest))


STALE = [{"format": 1}, {"format": 2}, {"format": 3}, {"format": 4},
         {"format": 5}, {"format": STORE_FORMAT + 1}, {"version": "0.0.0"}]


def test_format_is_six():
    assert STORE_FORMAT == 6


@pytest.mark.parametrize("fields", STALE, ids=["format-1", "format-2",
                                               "format-3", "format-4",
                                               "format-5", "format-next",
                                               "version"])
class TestStaleEntries:
    @pytest.fixture
    def stale(self, tmp_path, engine, target, fields):
        """A store whose one entry, the target's, is stale."""
        writer = ArtifactStore(tmp_path)
        token = writer.save(engine.prepare(target), engine=engine).token
        _stale(writer, token, **fields)
        return tmp_path, token

    def test_load_refuses_before_unpickling(self, stale, monkeypatch):
        root, token = stale
        monkeypatch.setattr("pickle.loads", lambda *_: pytest.fail(
            "a stale blob was unpickled"))
        with pytest.raises(ArtifactVersionError):
            ArtifactStore(root).load_target(token)

    def test_find_and_save_skip_it(self, stale, engine, target):
        root, token = stale
        store = ArtifactStore(root)
        assert store.find_target(target, engine) is None
        entry = store.save(engine.prepare(target), engine=engine)
        assert entry.loadable
        assert store.counters["dedup_hits"] == 0
        assert store.counters["saves"] == 1
        assert store.find_target(target, engine) == entry.token
        assert isinstance(store.load_target(entry.token), PreparedTarget)

    def test_prepared_target_reprepares(self, stale, engine, target):
        root, token = stale
        store = ArtifactStore(root)
        prepared = store.prepared_target(engine, target)
        assert isinstance(prepared, PreparedTarget)
        assert store.counters["saves"] == 1
        fresh = store.find_target(target, engine)
        assert fresh is not None
        assert ArtifactStore(root).prepared_target(engine, target) \
            .table_names == prepared.table_names

    def test_resolve_by_name_skips_it(self, stale, engine, target):
        root, token = stale
        store = ArtifactStore(root)
        with MatchService(store) as service:
            with pytest.raises(ArtifactNotFoundError):
                service.resolve(target.name)
            fresh = store.save(engine.prepare(target), engine=engine).token
            assert service.resolve(target.name) == fresh

    def test_gc_keeps_it(self, stale):
        root, token = stale
        store = ArtifactStore(root)
        assert store.gc() == {}
        assert token in store

    @pytest.fixture
    def beside(self, stale, engine, hub):
        """The stale store plus one loadable hub."""
        root, token = stale
        loadable = ArtifactStore(root).save(hub, engine=engine).token
        return root, loadable

    def test_warm_skips_it(self, beside):
        root, loadable = beside
        with MatchService(ArtifactStore(root)) as service:
            assert service.warm() == [loadable]
            assert service.lru_counters["loads"] == 1

    def test_from_store_skips_it(self, beside, engine):
        root, loadable = beside
        repository = TargetRepository.from_store(ArtifactStore(root), engine)
        assert repository.tokens() == [loadable]

    def test_match_repository_skips_it(self, beside, workload):
        root, loadable = beside
        with MatchService(ArtifactStore(root)) as service:
            routed, tokens = service.match_repository(workload.source)
        assert tokens == [loadable]
        assert [hub.token for hub in routed.ranking] == [loadable]
