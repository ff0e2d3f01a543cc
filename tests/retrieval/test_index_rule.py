"""Prepare builds the retrieval index only where it can prune.

A prepared target carries a :class:`~repro.retrieval.RetrievalIndex` when
the matching system supports target subsets and the target has more
attributes than the preparing engine's ``retrieval_top_k``.  Pinned here:

* the 12-attribute retail target prepared at the default k carries no
  index, pickles smaller than when prepared at k = 4, and matches as it
  did when every prepare built an index (sha256 digests of the matches,
  of every candidate rescoring with its evidence and of every stage
  count, recorded from that code);
* an engine at k = 4 matched against a default-k artifact builds a
  run-local index and returns what it returns against its own k = 4
  artifact, serially and through a 2-worker process pool, and never
  writes that index onto the shared artifact;
* ``TargetRepository.append_rows`` follows the same rule: its grown hub
  equals a fresh prepare of the grown database.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import struct

import pytest

from repro import ContextMatchConfig, MatchEngine, TargetRepository
from repro.datagen import build_scenario, get_scenario
from repro.datagen.inventory import make_retail_workload, pad_workload
from repro.engine.executor import ExecutorConfig, MatchExecutor
from repro.relational.instance import Database

CONFIG = ContextMatchConfig(inference="src")
SMALL_K = dataclasses.replace(CONFIG, retrieval_top_k=4)

#: Digests of the default-k retail run, recorded when prepare built an
#: index for every target.  The counts include score-candidates' q-gram
#: cache deltas (``token_cache_hits`` / ``token_cache_misses``); without
#: those two keys they digest to 028baed79e27ecd5, the recorded counts.
EXPECTED_DEFAULT = {"matches": "8c847e30e4383346",
                    "candidates": "2e190b8368222693",
                    "counts": "8e5484c17e977258"}


def _bits(x: float) -> str:
    return struct.pack("<d", x).hex()


def _scored(match) -> tuple:
    return (str(match.source), str(match.target), _bits(match.score),
            _bits(match.confidence),
            tuple((e.matcher, _bits(e.weight), _bits(e.raw_score),
                   _bits(e.confidence)) for e in match.evidence))


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _digests(result) -> dict[str, str]:
    return {
        "matches": _sha([(str(m.source), str(m.target), str(m.condition),
                          _bits(m.score), _bits(m.confidence))
                         for m in result.matches]),
        "candidates": _sha([(c.view.name, _scored(c.base_match),
                             _scored(c.rescored), c.view_rows)
                            for c in result.candidates]),
        "counts": _sha([(s.name, sorted(s.counts.items()))
                        for s in result.report.stages]),
    }


def _counts(result) -> dict:
    return result.report.stage("score-candidates").counts


def _split_target(target, keep=0.7):
    """Truncate every hub table, returning (base database, delta rows)."""
    base_relations = []
    deltas = {}
    for relation in target:
        cut = max(1, int(len(relation) * keep))
        base_relations.append(relation.take(range(cut)))
        deltas[relation.name] = [relation.row(i)
                                 for i in range(cut, len(relation))]
    return Database(target.schema, base_relations), deltas


@pytest.fixture(scope="module")
def retail():
    return build_scenario(get_scenario("retail"))


class TestDefaultK:
    def test_no_index_and_a_smaller_pickle(self, retail):
        assert sum(len(r.schema) for r in retail.target) == 12
        default = MatchEngine(CONFIG).prepare(retail.target)
        pruning = MatchEngine(SMALL_K).prepare(retail.target)
        assert default.retrieval is None
        assert pruning.retrieval is not None
        assert len(pickle.dumps(default)) < len(pickle.dumps(pruning))

    def test_matches_are_pinned(self, retail):
        engine = MatchEngine(CONFIG)
        result = engine.match(retail.source, engine.prepare(retail.target))
        assert _counts(result)["retrieval_queries"] > 0
        assert _counts(result)["pairs_pruned"] == 0
        assert _digests(result) == EXPECTED_DEFAULT


class TestRunLocalIndex:
    @pytest.fixture(scope="class")
    def sources(self, retail):
        return [retail.source] + [
            make_retail_workload(target="ryan", n_source=200, n_target=1,
                                 gamma=2, seed=seed).source
            for seed in (12, 13)]

    @pytest.fixture(scope="class")
    def expected(self, retail, sources):
        """Digests of the k = 4 engine against its own k = 4 artifact."""
        engine = MatchEngine(SMALL_K)
        own = engine.prepare(retail.target)
        assert own.retrieval is not None
        results = [engine.match(source, own) for source in sources]
        assert all(_counts(r)["pairs_pruned"] > 0 for r in results)
        return [_digests(r) for r in results]

    def test_serial(self, retail, sources, expected):
        shared = MatchEngine(CONFIG).prepare(retail.target)
        engine = MatchEngine(SMALL_K)
        assert [_digests(engine.match(source, shared))
                for source in sources] == expected
        assert shared.retrieval is None

    def test_process_pool(self, retail, sources, expected):
        shared = MatchEngine(CONFIG).prepare(retail.target)
        engine = MatchEngine(SMALL_K)
        with MatchExecutor(ExecutorConfig(backend="process",
                                          max_workers=2)) as executor:
            pooled = engine.match_many(sources, shared, executor=executor)
        assert [_digests(r) for r in pooled] == expected
        assert shared.retrieval is None


class TestAppendRows:
    @staticmethod
    def _grown_and_fresh(engine, target):
        base, deltas = _split_target(target)
        repo = TargetRepository(engine)
        token = repo.add(base)
        prepared = repo.hub(token)
        grown = repo.hub(repo.append_rows(token, deltas))
        return prepared, grown, engine.prepare(grown.target)

    @staticmethod
    def _assert_identical(engine, source, grown, fresh):
        assert grown.index.samples == fresh.index.samples
        assert grown.index.profiles == fresh.index.profiles
        assert grown.categorical == fresh.categorical
        assert pickle.dumps(grown.retrieval) == pickle.dumps(fresh.retrieval)
        assert _digests(engine.match(source, grown)) \
            == _digests(engine.match(source, fresh))

    def test_narrow_hub_stays_index_less(self, retail):
        engine = MatchEngine(CONFIG)
        prepared, grown, fresh = self._grown_and_fresh(engine,
                                                       retail.target)
        assert prepared.retrieval is None
        assert grown.retrieval is None and fresh.retrieval is None
        self._assert_identical(engine, retail.source, grown, fresh)

    def test_wide_hub_rebuilds_its_index(self):
        padded = pad_workload(
            make_retail_workload(target="ryan", n_source=200, n_target=120,
                                 gamma=4, seed=21), 4, seed=23)
        assert sum(len(r.schema) for r in padded.target) == 22
        engine = MatchEngine(CONFIG)
        prepared, grown, fresh = self._grown_and_fresh(engine,
                                                       padded.target)
        assert prepared.retrieval is not None
        assert grown.retrieval is not None
        assert grown.retrieval.n_targets == 22
        assert pickle.dumps(grown.retrieval) \
            != pickle.dumps(prepared.retrieval)
        self._assert_identical(engine, padded.source, grown, fresh)
