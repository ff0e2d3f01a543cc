"""Retrieval indexes in the store: they travel inside prepared targets.

The store holds prepared targets only, so it refuses a bare
:class:`~repro.retrieval.RetrievalIndex`: the index a target needs is
built by ``MatchEngine.prepare`` and pickled inside the
:class:`~repro.engine.prepared.PreparedTarget`.  Prepare builds it only
for a target with more attributes than the engine's ``retrieval_top_k``,
so the engine here runs at k = 4 against the 12-attribute events target.
The contract is the prepared target's: bit-stable round trips (the
loaded index ranks as the built one), content dedup, and the typed
corruption grid — damage surfaces as a
:class:`~repro.errors.StoreError` subclass before pickle runs."""

from __future__ import annotations

import json

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.errors import (ArtifactIntegrityError, ArtifactVersionError,
                          StoreError)
from repro.store import ArtifactStore, database_token


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture(scope="module")
def engine():
    return MatchEngine(ContextMatchConfig(retrieval_top_k=4))


@pytest.fixture(scope="module")
def prepared(engine, workload):
    prepared = engine.prepare(workload.target)
    assert prepared.retrieval is not None
    return prepared


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestSaveLoad:
    def test_manifest_fields(self, store, engine, workload, prepared):
        entry = store.save(prepared, engine=engine)
        assert entry.database == workload.target.name
        assert entry.tables == len(tuple(workload.target))
        assert entry.database_token == database_token(workload.target)
        assert entry.size_bytes > 0
        assert len(entry.token) == 64

    def test_round_trip_ranks_identically(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        loaded = store.load_target(entry.token).retrieval
        retrieval = prepared.retrieval
        profiles = prepared.index.profiles["qgram"]
        k = max(1, retrieval.n_targets // 2)
        for position, sample in enumerate(prepared.index.samples):
            assert loaded.query(sample.attribute, profiles[position], k) \
                == retrieval.query(sample.attribute, profiles[position], k)

    def test_dedup_by_digest(self, store, engine, prepared):
        first = store.save(prepared, engine=engine)
        second = store.save(prepared, engine=engine)
        assert second.token == first.token
        assert store.counters["dedup_hits"] == 1
        assert len(store) == 1

    def test_find_by_database_and_engine(self, store, engine, workload,
                                         prepared):
        entry = store.save(prepared, engine=engine)
        assert store.find_target(workload.target, engine) == entry.token
        assert store.find_target(workload.source, engine) is None

    def test_bare_index_is_refused(self, store, engine, prepared):
        with pytest.raises(StoreError, match="cannot store"):
            store.save(prepared.retrieval, engine=engine)
        assert len(store) == 0


class TestIntegrity:
    def test_bit_rot_same_length(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        blob = bytearray(blob_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="digest"):
            store.load_target(entry.token)

    def test_truncated_blob(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        blob_path.write_bytes(blob_path.read_bytes()[:100])
        with pytest.raises(ArtifactIntegrityError, match="size|digest"):
            store.load_target(entry.token)

    def test_missing_blob(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        (store.root / f"{entry.token}.blob").unlink()
        with pytest.raises(ArtifactIntegrityError, match="blob"):
            store.load_target(entry.token)

    def test_version_mismatch(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["version"] = "0.0.1"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ArtifactVersionError, match="0.0.1"):
            store.load_target(entry.token)

    def test_damage_never_reaches_pickle(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        for damage in (b"", b"garbage", blob_path.read_bytes()[:-1]):
            blob_path.write_bytes(damage)
            with pytest.raises(StoreError):
                store.load_target(entry.token)
