"""Repository routing at golden scale (``pytest -m golden``).

The acceptance pin of the repository layer: the full
:func:`~repro.datagen.make_routing_fleet` grid — M=8 perturbed sources,
K=4 prepared hubs across four scenario families — routes every source to
its ground-truth hub, serially and through the executor batch path, and
``append_rows`` maintenance on a full-size hub equals a fresh prepare.
The registered ``routing*`` scenario specs themselves run under the
ordinary golden grid in ``tests/test_golden_scenarios.py``.
"""

from __future__ import annotations

import pytest

from repro import MatchEngine, TargetRepository
from repro.datagen import ROUTING_HUB_FAMILIES, make_routing_fleet

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def fleet():
    return make_routing_fleet()


@pytest.fixture(scope="module")
def engine():
    return MatchEngine()


@pytest.fixture(scope="module")
def repo(engine, fleet):
    repo = TargetRepository(engine)
    for hub in fleet.hubs.values():
        repo.add(hub)
    return repo


@pytest.fixture(scope="module")
def token_to_family(repo, fleet):
    return dict(zip(repo.tokens(), fleet.hubs))


@pytest.fixture(scope="module")
def batch(repo, fleet):
    return repo.route_many([case.source for case in fleet.sources])


def _key(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


def test_fleet_shape(fleet):
    assert tuple(fleet.hubs) == ROUTING_HUB_FAMILIES
    assert len(fleet.hubs) == 4
    assert len(fleet.sources) == 8
    assert sum(case.perturbed for case in fleet.sources) == 4


def test_every_source_routes_to_its_hub(fleet, batch, token_to_family):
    """The headline number: 8/8 correct-hub assignments."""
    assignments = {
        case.name: token_to_family[routed.best.token]
        for case, routed in zip(fleet.sources, batch)}
    wrong = {name: got for name, got in assignments.items()
             if got != name.split("-")[2]}
    assert not wrong, f"mis-routed sources: {wrong}"


def test_rankings_are_strict_and_complete(batch):
    for routed in batch:
        assert len(routed.ranking) == 4
        scores = [hub.score for hub in routed.ranking]
        assert scores == sorted(scores, reverse=True)
        # The winner is strictly separated, not a tie-break accident.
        assert scores[0] > scores[1]


def test_batch_equals_serial(repo, fleet, batch):
    """route_many's executor fan-out returns exactly match_one's answer."""
    case, routed = next(
        (case, routed) for case, routed in zip(fleet.sources, batch)
        if case.perturbed)
    single = repo.match_one(case.source)
    assert [(h.token, h.score) for h in single.ranking] \
        == [(h.token, h.score) for h in routed.ranking]
    assert _key(single.best.result) == _key(routed.best.result)


def test_append_rows_bit_identical_at_scale(engine, fleet):
    """Full-size hub maintenance: truncate the events hub, append the
    held-out rows back through ``TargetRepository.append_rows``, and
    require exact agreement with a fresh prepare of the grown database —
    samples, profiles and served matches."""
    target = fleet.hubs["events"]
    from repro.relational.instance import Database
    base_relations, deltas = [], {}
    for relation in target:
        cut = int(len(relation) * 0.8)
        base_relations.append(relation.take(range(cut)))
        deltas[relation.name] = [relation.row(i)
                                 for i in range(cut, len(relation))]
    base = Database(target.schema, base_relations)
    source = next(case.source for case in fleet.sources
                  if case.hub_family == "events")
    repo = TargetRepository(engine)
    token = repo.add(base)
    engine.match(source, repo.hub(token))
    grown = repo.hub(repo.append_rows(token, deltas))
    fresh = engine.prepare(grown.target)
    assert grown.index.samples == fresh.index.samples
    assert grown.index.profiles == fresh.index.profiles
    assert grown.categorical == fresh.categorical
    assert _key(engine.match(source, grown)) \
        == _key(engine.match(source, fresh))
