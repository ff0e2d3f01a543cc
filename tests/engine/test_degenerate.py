"""Degenerate artifacts: empty, single-row, all-null and single-value
relations on either side of a match, under both inference sides, run
through :meth:`MatchEngine.match` and a 2-worker process ``match_many``
without raising; the first run, a second run on the same artifact and
the pooled runs agree exactly, counts included.
A source column with 10⁴ distinct values runs through the engine at the
categorical test's fixed thresholds.
Source columns holding unhashable values (JSON lists) match under every
inference kind: the values fall in no view, as partitions skip them.

Match counts are deliberately not pinned: what an empty or constant
relation *should* match is a semantic question of its own.
"""

from __future__ import annotations

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.context.categorical import categorical_attributes
from repro.context.serialize import result_to_dict
from repro.datagen import make_retail_workload
from repro.engine import ExecutorConfig, MatchExecutor
from repro.relational.instance import Database, Relation
from repro.relational.jsonio import database_from_dict, database_to_dict
from repro.relational.schema import Attribute, TableSchema
from repro.relational.types import DataType

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
    """Matches, scores and stage counts, without timings and without the
    q-gram cache counts: the first ``tgt`` run against an artifact in a
    process also trains its target classifiers, and that tokenizing is
    credited to it."""
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
    first = _comparable(engine.match(source, prepared))
    assert _comparable(engine.match(source, prepared)) == first
    batch = pool.match_many(engine, [source, source], prepared)
    assert batch.throughput.backend == "process"
    assert [_comparable(r) for r in batch] == [first, first]


def test_ten_thousand_distinct_values():
    base = make_retail_workload(target="ryan", gamma=2, n_source=10_000,
                                n_target=200, seed=3)
    items = base.source.relation(base.source_table)
    serials = [f"S{i:05d}" for i in range(len(items))]
    schema = TableSchema(items.name, list(items.schema)
                         + [Attribute("Serial", DataType.STRING)])
    columns = {a: items.column_store(a)
               for a in items.schema.attribute_names}
    relation = Relation(schema, {**columns, "Serial": serials})
    source = Database.from_relations(base.source.name, [relation])
    assert len(relation.distinct("Serial")) == 10_000
    assert "Serial" not in categorical_attributes(relation)
    engine = MatchEngine(ContextMatchConfig(inference="src"))
    result = engine.match(source, engine.prepare(base.target))
    assert result.matches
    assert result.report.stage("infer-views").counts["values_classified"]


def _with_list_values(database: Database, attribute: str,
                      every: int) -> Database:
    """*database* decoded from JSON with every *every*-th value of
    *attribute* replaced by a one-element list."""
    payload = database_to_dict(database)
    for table in payload["tables"]:
        column = table["columns"].get(attribute)
        if column is not None:
            table["columns"][attribute] = [
                [value] if i % every == 0 else value
                for i, value in enumerate(column)]
    return database_from_dict(payload)


@pytest.mark.parametrize("inference", ["src", "tgt", "naive"])
@pytest.mark.parametrize("attribute,every", [("Code", 1), ("ItemType", 7)],
                         ids=["all-lists", "some-lists"])
def test_unhashable_source_values(workload, inference, attribute, every):
    source = _with_list_values(workload.source, attribute, every)
    relation = source.relation(workload.source_table)
    assert type(relation.column_store(attribute)).__name__ == "ObjectColumn"
    assert all(not isinstance(value, list)
               for value in relation.distinct(attribute))
    engine = MatchEngine(ContextMatchConfig(inference=inference, seed=5))
    prepared = engine.prepare(workload.target)
    result = engine.match(source, prepared)
    assert result.matches
    assert _comparable(engine.match(source, prepared)) == _comparable(result)
