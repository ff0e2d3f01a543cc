"""Degenerate artifacts: empty, single-row, all-null and single-value
relations on either side of a match, under both inference sides, run
through :meth:`MatchEngine.match` and a 2-worker process ``match_many``
without raising, and the pool reproduces the serial result exactly.

Match counts are deliberately not pinned: what an empty or constant
relation *should* match is a semantic question of its own.
"""

from __future__ import annotations

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.context.serialize import result_to_dict
from repro.datagen import make_retail_workload
from repro.engine import ExecutorConfig, MatchExecutor
from repro.relational.instance import Database, Relation

KINDS = ("empty", "one-row", "all-null", "single-value")


def _degenerate(database: Database, kind: str) -> Database:
    """*database* with every relation replaced by its *kind* variant."""
    relations = []
    for relation in database:
        n = len(relation)
        if kind == "empty":
            relation = relation.take([])
        elif kind == "one-row":
            relation = relation.take([0])
        elif kind == "single-value":
            relation = relation.take([0] * n)
        else:
            relation = Relation(relation.schema,
                                {a: [None] * n
                                 for a in relation.schema.attribute_names})
        relations.append(relation)
    return Database(database.schema, relations)


def _comparable(result):
    """Matches, scores and deterministic stage counts (timings and the
    process-global token-cache telemetry vary run to run)."""
    payload = result_to_dict(result)
    payload.pop("elapsed_seconds")
    report = payload["report"]
    report.pop("elapsed_seconds")
    for stage in report["stages"]:
        stage.pop("elapsed_seconds")
        for key in ("token_cache_hits", "token_cache_misses"):
            stage["counts"].pop(key, None)
    return payload


@pytest.fixture(scope="module")
def workload():
    return make_retail_workload(target="ryan", gamma=2, n_source=60,
                                n_target=40, seed=31)


@pytest.fixture(scope="module")
def pool():
    with MatchExecutor(ExecutorConfig(backend="process",
                                      max_workers=2)) as executor:
        yield executor


@pytest.mark.parametrize("inference", ["src", "tgt"])
@pytest.mark.parametrize("side", ["source", "target"])
@pytest.mark.parametrize("kind", KINDS)
def test_degenerate_side_matches_serially_and_in_pool(workload, pool, kind,
                                                      side, inference):
    source, target = workload.source, workload.target
    if side == "source":
        source = _degenerate(source, kind)
    else:
        target = _degenerate(target, kind)
    engine = MatchEngine(ContextMatchConfig(inference=inference, seed=5))
    prepared = engine.prepare(target)
    # The first match trains the target classifiers into the shared
    # artifact, and on a degenerate target that run's infer-views counts
    # differ from later runs'; compare runs on the trained artifact.
    engine.match(source, prepared)
    serial = _comparable(engine.match(source, prepared))
    batch = pool.match_many(engine, [source, source], prepared)
    assert batch.throughput.backend == "process"
    assert [_comparable(r) for r in batch] == [serial, serial]
