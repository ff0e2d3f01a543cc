"""append_rows: the grown hub is a fresh prepare of the grown database.

:meth:`~repro.repository.core.TargetRepository.append_rows` checks the
appended rows, concatenates them onto the hub's tables and prepares the
grown database with the repository's engine.  The contract under test:
the maintained hub equals ``MatchEngine.prepare`` run from scratch on
the grown database — index samples and profiles compare equal and match
results are bit-identical, also when the appended rows push columns past
the sample limit — and it keeps its ranking slot under a new token.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import ContextMatchConfig, MatchEngine, TargetRepository
from repro.datagen import build_scenario, get_scenario
from repro.errors import InstanceError, UnknownTableError


@pytest.fixture(scope="module")
def workload():
    return build_scenario(get_scenario("events").resized(80))


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


def _split_target(target, keep=0.7):
    """Truncate every hub table, returning (base database, delta rows)."""
    from repro.relational.instance import Database

    base_relations = []
    deltas = {}
    for relation in target:
        cut = max(1, int(len(relation) * keep))
        base_relations.append(relation.take(range(cut)))
        deltas[relation.name] = [relation.row(i)
                                 for i in range(cut, len(relation))]
    return Database(target.schema, base_relations), deltas


def _key(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


def _grown(engine, base, deltas):
    """The hub *base* after ``append_rows(deltas)``."""
    repo = TargetRepository(engine)
    token = repo.add(base)
    return repo.hub(repo.append_rows(token, deltas))


def _assert_fresh(engine, source, grown):
    fresh = engine.prepare(grown.target)
    assert grown.index.samples == fresh.index.samples
    assert grown.index.profiles == fresh.index.profiles
    assert grown.categorical == fresh.categorical
    assert _key(engine.match(source, grown)) \
        == _key(engine.match(source, fresh))


class TestBitIdentity:
    def test_compose_path_equals_fresh_prepare(self, engine, workload):
        """Appending the held-out rows rebuilds the full hub: equal to a
        fresh prepare of the original target, whose rows it now holds."""
        base, deltas = _split_target(workload.target)
        grown = _grown(engine, base, deltas)
        assert [len(r) for r in grown.target] \
            == [len(r) for r in workload.target]
        _assert_fresh(engine, workload.source, grown)
        assert _key(engine.match(workload.source, grown)) \
            == _key(engine.match(workload.source,
                                 engine.prepare(workload.target)))

    def test_thinning_fallback_rebuilds_and_stays_identical(self, workload):
        """Columns that cross the sample limit are thinned as a fresh
        prepare thins them."""
        config = ContextMatchConfig()
        config = dataclasses.replace(
            config, standard=dataclasses.replace(config.standard,
                                                 sample_limit=20))
        engine = MatchEngine(config)
        base, deltas = _split_target(workload.target, keep=0.4)
        _assert_fresh(engine, workload.source,
                      _grown(engine, base, deltas))

    def test_unknown_table_raises(self, engine, workload):
        repo = TargetRepository(engine)
        token = repo.add(workload.target)
        with pytest.raises(UnknownTableError):
            repo.append_rows(token, {"nope": [{"x": 1}]})
        relation = workload.target.relations[0]
        with pytest.raises(InstanceError, match="arity"):
            repo.append_rows(token, {relation.name: [("too", "short")]})
        assert repo.tokens() == [token]


class TestRepositoryAppend:
    def test_append_rows_swaps_token_in_place(self, engine, workload):
        other = build_scenario(get_scenario("retail").resized(60))
        repo = TargetRepository(engine)
        first = repo.add(workload.target)
        second = repo.add(other.target)
        base_token = repo.tokens()[0]
        deltas = {workload.target.relations[0].name:
                  [workload.target.relations[0].row(0)]}
        new_token = repo.append_rows(first, deltas)
        assert new_token != first
        # Ranking position is preserved: the grown hub keeps slot 0.
        assert repo.tokens() == [new_token, second]
        assert repo.counters["appends"] == 1
        assert base_token not in repo

    def test_store_backed_append_persists(self, tmp_path, engine,
                                          workload):
        from repro import ArtifactStore
        store = ArtifactStore(tmp_path / "store")
        repo = TargetRepository(engine, store=store)
        token = repo.add(workload.target)
        deltas = {workload.target.relations[0].name:
                  [workload.target.relations[0].row(0)]}
        new_token = repo.append_rows(token, deltas)
        assert store.entry(new_token).loadable
        # The maintained artifact round-trips and keeps serving.
        loaded = store.load_target(new_token)
        assert loaded.target.name == workload.target.name
        assert store.find_target(loaded.target, engine) == new_token
