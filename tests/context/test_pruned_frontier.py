"""Pin what a pruned candidate rescoring returns.

No registered scenario has more target attributes than
``retrieval_top_k``, so none prunes.  This workload has batch-wide's
shape: the retail target at gamma 4 padded by four noise attributes per
table (22 target attributes against k = 16) and two 260-row sources.  The
matches, every candidate rescoring (view, base match, score and
confidence bits and each evidence field) and the score-candidates stage
counts are compared, as sha256 digests, with the digests of the
all-targets evidence loop that built every frontier target's match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.datagen.inventory import make_retail_workload, pad_workload

GAMMA = 4
PAD = 4
ROWS = 260

#: Digests of the all-targets evidence loop, per source seed.  The counts
#: include the stage's q-gram cache deltas (``token_cache_hits`` /
#: ``token_cache_misses``); without those two keys they digest to
#: 1bf4a88921f837b0 and 851c77d9ba29eb8e, the loop's own counts.
EXPECTED = {
    12: {"matches": "57f0564d25f7d32a", "candidates": "5e892abc67f743dd",
         "counts": "d37db390a9aad523"},
    13: {"matches": "456492b2d5439307", "candidates": "8ee67090632c2af9",
         "counts": "6e718aef353c3958"},
}


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
    stage = next(s for s in result.report.stages
                 if s.name == "score-candidates")
    return {
        "matches": _sha([(str(m.source), str(m.target), str(m.condition),
                          _bits(m.score), _bits(m.confidence))
                         for m in result.matches]),
        "candidates": _sha([(c.view.name, _scored(c.base_match),
                             _scored(c.rescored), c.view_rows)
                            for c in result.candidates]),
        "counts": _sha(sorted(stage.counts.items())),
    }


@pytest.fixture(scope="module")
def pruned_runs():
    spec = dataclasses.replace(get_scenario("retail"), gamma=GAMMA,
                               knobs=(("pad", PAD),))
    target = build_scenario(spec).target
    engine = MatchEngine(ContextMatchConfig(inference="src"))
    prepared = engine.prepare(target)
    runs = {}
    for seed in (spec.seed + 1, spec.seed + 2):
        source = pad_workload(
            make_retail_workload(target="ryan", n_source=ROWS, n_target=1,
                                 gamma=GAMMA, seed=seed),
            PAD, seed=seed + 2).source
        runs[seed] = (target, engine.match(source, prepared))
    return runs


def test_the_frontier_prunes(pruned_runs):
    for target, result in pruned_runs.values():
        assert sum(len(r.schema) for r in target) == 22
        stage = next(s for s in result.report.stages
                     if s.name == "score-candidates")
        assert stage.counts["pairs_pruned"] > 0
        assert result.candidates


def test_pruned_rescoring_is_pinned(pruned_runs):
    assert {seed: _digests(result)
            for seed, (_, result) in pruned_runs.items()} == EXPECTED
