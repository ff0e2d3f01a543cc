"""The ``retrieval_index`` artifact kind: persistence + integrity.

The hybrid :class:`~repro.retrieval.RetrievalIndex` built during
``MatchEngine.prepare`` is store-persistable in its own right (a service
can rebuild a frontier without shipping the whole prepared target).
Prepare builds it only for a target with more attributes than the
engine's ``retrieval_top_k``, so the engine here runs at k = 4 against
the 12-attribute events target.  The
contract mirrors the prepared-artifact kinds: bit-stable round trips,
content dedup, and the same typed corruption grid — damage surfaces as a
:class:`~repro.errors.StoreError` subclass before pickle runs."""

from __future__ import annotations

import json

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.errors import (ArtifactIntegrityError, ArtifactVersionError,
                          StoreError)
from repro.store import KIND_RETRIEVAL, ArtifactStore


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture(scope="module")
def engine():
    return MatchEngine(ContextMatchConfig(retrieval_top_k=4))


@pytest.fixture(scope="module")
def retrieval(engine, workload):
    return engine.prepare(workload.target).retrieval


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestSaveLoad:
    def test_manifest_fields(self, store, engine, workload, retrieval):
        entry = store.save(retrieval, engine=engine)
        assert entry.kind == KIND_RETRIEVAL
        assert entry.database == workload.target.name
        assert entry.tables == len(tuple(workload.target))
        assert entry.database_token == retrieval.database_token
        assert entry.size_bytes > 0
        assert len(entry.token) == 64

    def test_round_trip_ranks_identically(self, store, engine, workload,
                                          retrieval):
        entry = store.save(retrieval, engine=engine)
        loaded = store.load_retrieval_index(entry.token)
        prepared = engine.prepare(workload.target)
        profiles = prepared.index.profiles["qgram"]
        k = max(1, retrieval.n_targets // 2)
        for position, sample in enumerate(prepared.index.samples):
            assert loaded.query(sample.attribute, profiles[position], k) \
                == retrieval.query(sample.attribute, profiles[position], k)

    def test_dedup_by_digest(self, store, engine, retrieval):
        first = store.save(retrieval, engine=engine)
        second = store.save(retrieval, engine=engine)
        assert second.token == first.token
        assert store.counters["dedup_hits"] == 1
        assert len(store) == 1

    def test_find_by_database_and_engine(self, store, engine, workload,
                                         retrieval):
        entry = store.save(retrieval, engine=engine)
        assert store.find_retrieval_index(workload.target, engine) \
            == entry.token
        # The retrieval kind does not collide with the target kind.
        assert store.find_target(workload.target, engine) is None

    def test_load_checks_expected_kind(self, store, engine, workload,
                                       retrieval):
        retrieval_entry = store.save(retrieval, engine=engine)
        target_entry = store.save(engine.prepare(workload.target),
                                  engine=engine)
        with pytest.raises(StoreError, match="expected"):
            store.load_target(retrieval_entry.token)
        with pytest.raises(StoreError, match="expected"):
            store.load_retrieval_index(target_entry.token)


class TestIntegrity:
    def test_bit_rot_same_length(self, store, engine, retrieval):
        entry = store.save(retrieval, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        blob = bytearray(blob_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="digest"):
            store.load_retrieval_index(entry.token)

    def test_truncated_blob(self, store, engine, retrieval):
        entry = store.save(retrieval, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        blob_path.write_bytes(blob_path.read_bytes()[:100])
        with pytest.raises(ArtifactIntegrityError, match="size|digest"):
            store.load_retrieval_index(entry.token)

    def test_missing_blob(self, store, engine, retrieval):
        entry = store.save(retrieval, engine=engine)
        (store.root / f"{entry.token}.blob").unlink()
        with pytest.raises(ArtifactIntegrityError, match="blob"):
            store.load_retrieval_index(entry.token)

    def test_version_mismatch(self, store, engine, retrieval):
        entry = store.save(retrieval, engine=engine)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["version"] = "0.0.1"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ArtifactVersionError, match="0.0.1"):
            store.load_retrieval_index(entry.token)

    def test_damage_never_reaches_pickle(self, store, engine, retrieval):
        entry = store.save(retrieval, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        for damage in (b"", b"garbage", blob_path.read_bytes()[:-1]):
            blob_path.write_bytes(damage)
            with pytest.raises(StoreError):
                store.load_retrieval_index(entry.token)
