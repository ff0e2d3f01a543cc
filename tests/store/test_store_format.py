"""Lookups consider only entries this library can load.

An entry written under another store format (format 1 held gram-string
profiles and postings, format 2 pickled BM25 postings, format 3 pickled
the run state that runs wrote into a prepared target) or another
library version is refused by
``load`` with ``ArtifactVersionError`` before its blob is unpickled.
``save``'s dedup, ``find`` — and with it ``prepared_target`` — and
``MatchService.resolve`` by name skip such entries, so a store holding
them re-prepares and serves fresh ones instead of handing out a token
that cannot load; ``gc`` keeps them.
"""

from __future__ import annotations

import json

import pytest

from repro import MatchEngine
from repro.datagen import make_retail_workload
from repro.engine.prepared import PreparedTarget
from repro.errors import ArtifactNotFoundError, ArtifactVersionError
from repro.service import MatchService
from repro.store import STORE_FORMAT, ArtifactStore


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def target():
    return make_retail_workload(target="ryan", gamma=2, n_source=60,
                                n_target=60, seed=5).target


def _stale(store: ArtifactStore, token: str, **fields) -> None:
    """Rewrite *token*'s manifest with *fields* (another handle's view)."""
    path = store.root / f"{token}.json"
    manifest = json.loads(path.read_text())
    manifest.update(fields)
    path.write_text(json.dumps(manifest))


STALE = [{"format": 1}, {"format": 2}, {"format": 3},
         {"format": STORE_FORMAT + 1}, {"version": "0.0.0"}]


def test_format_is_four():
    assert STORE_FORMAT == 4


@pytest.mark.parametrize("fields", STALE, ids=["format-1", "format-2",
                                               "format-3", "format-next",
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
