"""ArtifactStore: persistence, integrity and maintenance.

The store's contract has three legs:

* **round trip** — a loaded artifact matches bit-identically to the
  in-memory original (the pickle invariant the process executor already
  pins, now made durable);
* **integrity** — damage is always surfaced as a typed
  :class:`~repro.errors.StoreError` subclass *before* any pickle
  deserialization; a corrupt artifact is never silently served;
* **maintenance** — ``list``/``gc`` keep a store inspectable and
  bounded without touching healthy entries.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario, make_retail_workload
from repro.errors import (ArtifactIntegrityError, ArtifactNotFoundError,
                          ArtifactVersionError, StoreError)
from repro.matching import StandardMatchConfig
from repro.store import ArtifactStore, StoreEntry


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def prepared(engine, workload):
    return engine.prepare(workload.target)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def _result_key(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


class TestSaveChecksTheEngine:
    """Regression: ``save`` files an artifact under the lookup key of the
    engine it is handed, so an artifact another configuration built used
    to poison ``find`` and ``prepared_target`` for that engine, whose
    runs then refused it.  ``save`` now refuses the mismatch, naming the
    field."""

    @pytest.fixture(scope="class")
    def retail(self):
        return make_retail_workload(target="ryan", gamma=2, n_source=60,
                                    n_target=60, seed=5)

    def test_mismatched_standard_config_refused(self, store, retail):
        thin = MatchEngine(ContextMatchConfig(
            inference="src", standard=StandardMatchConfig(sample_limit=50)))
        engine = MatchEngine(ContextMatchConfig(inference="src"))
        with pytest.raises(StoreError, match="its standard_config is "
                           r"StandardMatchConfig\(sample_limit=50"):
            store.save(thin.prepare(retail.target), engine=engine)
        assert len(store) == 0
        prepared = engine.prepare(retail.target, store=store)
        assert prepared.standard_config == engine.config.standard
        assert engine.match(retail.source, prepared).matches
        assert store.find_target(retail.target, engine) is not None



class TestSaveLoad:
    def test_round_trip_is_bit_identical(self, store, engine, workload,
                                         prepared):
        entry = store.save(prepared, engine=engine)
        loaded = store.load_target(entry.token)
        expected = engine.match(workload.source, prepared)
        actual = engine.match(workload.source, loaded)
        assert _result_key(actual) == _result_key(expected)

    def test_manifest_fields(self, store, engine, workload, prepared):
        entry = store.save(prepared, engine=engine)
        assert entry.database == workload.target.name
        assert entry.tables == len(tuple(workload.target))
        assert entry.size_bytes > 0
        assert len(entry.fingerprint) == len(entry.lookup_key) == 64
        assert len(entry.token) == 64

    def test_same_object_dedups_by_digest(self, store, engine, prepared):
        first = store.save(prepared, engine=engine)
        second = store.save(prepared, engine=engine)
        assert second.token == first.token
        assert store.counters["dedup_hits"] == 1
        assert len(store) == 1

    def test_equal_content_dedups_by_lookup_key(self, store, engine,
                                                workload, prepared):
        """Pickle bytes are not canonical across builds (hash
        randomization), so idempotence across processes rests on the
        content-derived lookup key."""
        first = store.save(prepared, engine=engine)
        rebuilt = engine.prepare(
            build_scenario(get_scenario("events").resized(60)).target)
        second = store.save(rebuilt, engine=engine)
        assert second.token == first.token
        assert store.counters["dedup_hits"] == 1
        assert len(store) == 1

    def test_prepared_source_refused(self, store, engine, workload):
        with pytest.raises(StoreError, match="cannot store PreparedSource"):
            store.save(engine.prepare_source(workload.source), engine=engine)
        assert len(store) == 0

    def test_non_artifact_rejected(self, store, engine):
        with pytest.raises(StoreError, match="expected a PreparedTarget"):
            store.save({"not": "an artifact"}, engine=engine)
        assert len(store) == 0

    def test_find_by_content_and_engine(self, store, engine, workload,
                                        prepared):
        entry = store.save(prepared, engine=engine)
        assert store.find_target(workload.target, engine) == entry.token
        assert store.counters["find_hits"] == 1
        other = MatchEngine(dataclasses.replace(
            ContextMatchConfig(),
            standard=dataclasses.replace(engine.matcher.config,
                                         sample_limit=77)))
        assert store.find_target(workload.target, other) is None
        assert store.counters["find_misses"] == 1

    def test_prepared_target_get_or_build(self, store, engine, workload):
        first = store.prepared_target(engine, workload.target)
        assert len(store) == 1
        second = store.prepared_target(engine, workload.target)
        assert len(store) == 1
        assert store.counters["loads"] >= 1
        assert first.target.name == second.target.name


class TestIntegrity:
    """Satellite: every damage mode is a distinct typed error, raised
    before pickle ever sees the bytes."""

    def _saved(self, store, engine, prepared):
        return store.save(prepared, engine=engine)

    def test_missing_artifact(self, store):
        with pytest.raises(ArtifactNotFoundError) as excinfo:
            store.load_target("0" * 64)
        assert excinfo.value.token == "0" * 64

    def test_truncated_blob(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        blob_path = store.root / f"{entry.token}.blob"
        blob_path.write_bytes(blob_path.read_bytes()[:100])
        with pytest.raises(ArtifactIntegrityError, match="size|digest"):
            store.load_target(entry.token)

    def test_bit_rot_same_length(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        blob_path = store.root / f"{entry.token}.blob"
        blob = bytearray(blob_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="digest"):
            store.load_target(entry.token)

    def test_missing_blob(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        (store.root / f"{entry.token}.blob").unlink()
        with pytest.raises(ArtifactIntegrityError, match="blob"):
            store.load_target(entry.token)

    def test_unreadable_manifest(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        (store.root / f"{entry.token}.json").write_text("{not json",
                                                        encoding="utf-8")
        with pytest.raises(ArtifactIntegrityError, match="manifest"):
            store.load_target(entry.token)

    def test_misfiled_manifest(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["token"] = "f" * 64
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ArtifactIntegrityError, match="tampered|misfiled"):
            store.load_target(entry.token)

    def test_format_mismatch(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format"] = 999
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ArtifactVersionError, match="format"):
            store.load_target(entry.token)

    def test_version_mismatch(self, store, engine, prepared):
        entry = self._saved(store, engine, prepared)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["version"] = "0.0.1"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ArtifactVersionError, match="0.0.1"):
            store.load_target(entry.token)

    def test_damage_never_reaches_pickle(self, store, engine, prepared):
        """The whole point of the typed hierarchy: corrupt bytes raise
        StoreError subclasses, never pickle's own exceptions."""
        entry = self._saved(store, engine, prepared)
        blob_path = store.root / f"{entry.token}.blob"
        for damage in (b"", b"garbage", blob_path.read_bytes()[:-1]):
            blob_path.write_bytes(damage)
            with pytest.raises(StoreError):
                store.load_target(entry.token)

    def test_errors_share_the_store_base(self):
        for exc_type in (ArtifactNotFoundError, ArtifactIntegrityError,
                         ArtifactVersionError):
            assert issubclass(exc_type, StoreError)


@pytest.fixture(scope="module")
def other(engine):
    """A second, unrelated prepared target."""
    return engine.prepare(
        build_scenario(get_scenario("grades").resized(60)).target)


class TestMaintenance:
    def test_entries_listing(self, store, engine, prepared, other):
        first = store.save(prepared, engine=engine)
        second = store.save(other, engine=engine)
        entries = store.entries()
        assert {e.token for e in entries} == {first.token, second.token}
        assert store.total_bytes() == sum(e.size_bytes for e in entries)

    def test_gc_clean_store_is_noop(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        assert store.gc() == {}
        assert entry.token in store

    def test_gc_sweeps_orphan_blob(self, store):
        (store.root / ("a" * 64 + ".blob")).write_bytes(b"orphan")
        assert store.gc() == {"a" * 64: "orphan-blob"}

    def test_gc_sweeps_corrupt_blob(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        blob_path = store.root / f"{entry.token}.blob"
        blob_path.write_bytes(b"rotten")
        assert store.gc() == {entry.token: "corrupt-blob"}
        assert entry.token not in store

    def test_gc_no_verify_keeps_corrupt_blob(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        (store.root / f"{entry.token}.blob").write_bytes(b"rotten")
        assert store.gc(verify=False) == {}

    def test_gc_evicts_to_budget_oldest_first(self, store, engine, prepared,
                                              other):
        kept = store.save(prepared, engine=engine)
        # An older, unrelated entry: backdate its manifest.
        older = store.save(other, engine=engine)
        path = store.root / f"{older.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["created_at"] = 0.0
        path.write_text(json.dumps(data), encoding="utf-8")
        removed = store.gc(max_entries=1)
        assert removed == {older.token: "evicted"}
        assert kept.token in store

    def test_gc_keeps_version_mismatched_entries(self, store, engine,
                                                 prepared):
        """Old-version entries are valid data for the library that wrote
        them; gc keeps them, load refuses them."""
        entry = store.save(prepared, engine=engine)
        path = store.root / f"{entry.token}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["version"] = "0.0.1"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert store.gc() == {}
        assert entry.token in store
        with pytest.raises(ArtifactVersionError):
            store.load_target(entry.token)

    def test_remove(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        store.remove(entry.token)
        assert entry.token not in store
        with pytest.raises(ArtifactNotFoundError):
            store.remove(entry.token)


class TestStoreEntryCodec:
    def test_round_trip(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        back = StoreEntry.from_dict(entry.to_dict())
        assert back == entry
        assert isinstance(back, StoreEntry)

    def test_json_compatible(self, store, engine, prepared):
        entry = store.save(prepared, engine=engine)
        encoded = json.dumps(entry.to_dict())
        assert StoreEntry.from_dict(json.loads(encoded)) == entry
