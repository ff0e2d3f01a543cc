"""A pruning run over an index-less artifact builds its index once.

An artifact prepared at a k that covers its target carries no retrieval
index.  Runs at a smaller k against it build one, kept per artifact in a
weak map keyed by its target index: every later run, serial or from
other threads, reuses it.  Their results equal runs against an artifact
prepared at their own k, and the shared artifact never gains the index.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import struct
import threading

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import make_retail_workload
from repro.engine import prepared as prepared_module
from repro.retrieval import RetrievalIndex

CONFIG = ContextMatchConfig(inference="src")
SMALL_K = dataclasses.replace(CONFIG, retrieval_top_k=4)


def _bits(x: float) -> str:
    return struct.pack("<d", x).hex()


def _digest(result) -> str:
    return hashlib.sha256(repr((
        [(str(m.source), str(m.target), str(m.condition), _bits(m.score),
          _bits(m.confidence)) for m in result.matches],
        [(c.view.name, str(c.rescored.target), _bits(c.rescored.score),
          _bits(c.rescored.confidence)) for c in result.candidates],
        [(s.name, sorted(s.counts.items())) for s in result.report.stages],
    )).encode()).hexdigest()


@pytest.fixture(scope="module")
def workload():
    return make_retail_workload(target="ryan", gamma=2, n_source=150,
                                seed=3)


@pytest.fixture(scope="module")
def expected(workload):
    """The digest of a k = 4 run against its own k = 4 artifact."""
    engine = MatchEngine(SMALL_K)
    prepared = engine.prepare(workload.target)
    assert prepared.retrieval is not None
    return _digest(engine.match(workload.source, prepared))


@pytest.fixture
def builds(monkeypatch):
    """The calls of ``RetrievalIndex.build`` since set-up."""
    calls = []
    original = RetrievalIndex.build.__func__

    def counting(cls, index):
        calls.append(index)
        return original(cls, index)

    monkeypatch.setattr(RetrievalIndex, "build", classmethod(counting))
    return calls


def test_serial_runs_build_once(workload, expected, builds):
    prepared = MatchEngine(CONFIG).prepare(workload.target)
    assert prepared.retrieval is None
    engine = MatchEngine(SMALL_K)
    digests = [_digest(engine.match(workload.source, prepared))
               for _ in range(2)]
    assert digests == [expected, expected]
    assert builds == [prepared.index]
    assert prepared.retrieval is None
    counts = engine.match(workload.source, prepared).report.stage(
        "score-candidates").counts
    assert counts["pairs_pruned"] > 0
    assert len(builds) == 1


def test_concurrent_runs_build_once(workload, expected, builds):
    prepared = MatchEngine(CONFIG).prepare(workload.target)
    engine = MatchEngine(SMALL_K)
    digests, errors = [], []

    def run():
        try:
            digests.append(_digest(engine.match(workload.source, prepared)))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors[0]
    assert digests == [expected] * 4
    assert builds == [prepared.index]
    assert prepared.retrieval is None


def test_the_index_lives_with_its_artifact(workload, builds):
    prepared = MatchEngine(CONFIG).prepare(workload.target)
    MatchEngine(SMALL_K).match(workload.source, prepared)
    assert prepared.index in prepared_module._DERIVED
    before = len(prepared_module._DERIVED)
    del prepared
    builds.clear()
    gc.collect()
    assert len(prepared_module._DERIVED) == before - 1
