"""ArtifactStore parses each manifest once per handle.

A handle keeps every manifest it has parsed or written; ``entries()``
still lists the directory on every call, so saves and removals made
through another handle (standing in for another process) are seen, but
only manifests the handle has not parsed yet are parsed.  ``save``'s
lookup-key dedup, ``find`` and ``MatchService.resolve`` by name all read
the listing."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.relational import Database, Relation
from repro.service import MatchService
from repro.store import ArtifactStore, StoreEntry


def _database(i: int) -> Database:
    """A small two-table database whose content and name depend on *i*."""
    return Database.from_relations(f"hub{i}", [
        Relation.infer_schema("items", {
            "code": [f"c{i}-{j}" for j in range(12)],
            "kind": ["book", "cd", "dvd"] * 4,
            "price": [float(i + j) for j in range(12)]}),
        Relation.infer_schema("labels", {
            "label": [f"label {i} {j % 3}" for j in range(12)],
            "year": [1990 + (i + j) % 30 for j in range(12)]}),
    ])


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def events():
    return build_scenario(get_scenario("events").resized(60))


@pytest.fixture
def parses(monkeypatch):
    """The number of manifests parsed since the fixture was set up."""
    count = [0]
    original = StoreEntry.from_dict.__func__

    def counting(cls, data):
        count[0] += 1
        return original(cls, data)

    monkeypatch.setattr(StoreEntry, "from_dict", classmethod(counting))
    return count


class TestOtherHandles:
    def test_saves_and_removals_are_seen(self, tmp_path, engine, events):
        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        prepared = engine.prepare(events.target)
        assert first.entries() == []
        assert first.find_target(events.target, engine) is None

        entry = second.save(prepared, engine=engine)
        assert first.save(prepared, engine=engine) == entry
        assert first.counters["dedup_hits"] == 1
        assert first.find_target(events.target, engine) == entry.token
        assert first.counters["find_hits"] == 1
        assert [e.token for e in first.entries()] == [entry.token]

        second.remove(entry.token)
        assert first.entries() == []
        assert first.find_target(events.target, engine) is None

    def test_lookup_key_dedup_sees_the_other_handle(self, tmp_path, engine,
                                                    events):
        """Different bytes for the same (database, engine) dedup by lookup
        key, through the listing of a handle that never parsed them.  An
        engine whose ``retrieval_top_k`` prunes the target prepares it
        with a retrieval index, under the same fingerprint."""
        first = ArtifactStore(tmp_path)
        second = ArtifactStore(tmp_path)
        assert first.entries() == []
        entry = second.save(engine.prepare(events.target), engine=engine)
        pruning = MatchEngine(ContextMatchConfig(retrieval_top_k=2))
        indexed = pruning.prepare(events.target)
        assert indexed.retrieval is not None
        assert pickle.dumps(indexed) \
            != pickle.dumps(engine.prepare(events.target))
        assert first.save(indexed, engine=pruning) == entry
        assert first.counters["dedup_hits"] == 1
        assert first.counters["saves"] == 0


class TestParses:
    def test_at_most_one_parse_per_stored_entry(self, tmp_path, engine,
                                                parses):
        store = ArtifactStore(tmp_path)
        for i in range(30):
            store.save(engine.prepare(_database(i)), engine=engine)
        assert len(store.entries()) == len(store) == 30
        assert parses[0] <= 30

    def test_entries_saved_elsewhere_are_parsed_once(self, tmp_path, engine,
                                                     parses):
        store = ArtifactStore(tmp_path)
        other = ArtifactStore(tmp_path)
        for i in range(5):
            other.save(engine.prepare(_database(i)), engine=engine)
        before = parses[0]
        for _ in range(3):
            assert len(store.entries()) == 5
        assert parses[0] - before == 5


def test_concurrent_saves_and_name_resolution(tmp_path, engine):
    """Four threads save through one handle and resolve each saved
    target by name through a MatchService over that handle."""
    per_thread = 4
    prepared = [[engine.prepare(_database(t * per_thread + i))
                 for i in range(per_thread)] for t in range(4)]
    store = ArtifactStore(tmp_path)
    service = MatchService(store)
    barrier = threading.Barrier(4, timeout=30)
    saved: dict[str, str] = {}
    resolved: dict[str, str] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work(artifacts):
        try:
            barrier.wait()
            for artifact in artifacts:
                entry = store.save(artifact, engine=engine)
                name = artifact.target.name
                token = service.resolve(name)
                with lock:
                    saved[name] = entry.token
                    resolved[name] = token
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(artifacts,))
                   for artifacts in prepared]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(saved) == 4 * per_thread
    assert resolved == saved
    assert {e.token for e in store.entries()} == set(saved.values())
    assert {e.token for e in ArtifactStore(tmp_path).entries()} \
        == set(saved.values())
