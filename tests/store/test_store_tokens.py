"""Content tokens: the store's stable keys.

A database token must depend on content alone — never on object
identity, never on process-specific state — and an engine fingerprint
token must exist exactly for engines whose prepared fingerprint is
stable across processes (the default matcher zoo), because those are the
only artifacts the store can safely serve back.
"""

from __future__ import annotations

import pytest

from repro import MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.store import blob_token, database_token, fingerprint_token


@pytest.fixture(scope="module")
def spec():
    return get_scenario("events").resized(60)


class TestDatabaseToken:
    def test_equal_content_equal_token(self, spec):
        """Two independently built copies of the same seeded workload are
        distinct objects with one token — the property that replaced the
        runner's id() keys."""
        first = build_scenario(spec)
        second = build_scenario(spec)
        assert first.target is not second.target
        assert database_token(first.target) == database_token(second.target)
        assert database_token(first.source) == database_token(second.source)

    def test_source_and_target_differ(self, spec):
        workload = build_scenario(spec)
        assert database_token(workload.source) \
            != database_token(workload.target)

    def test_value_change_changes_token(self, spec):
        from repro.relational import Database, Relation

        workload = build_scenario(spec)
        original = database_token(workload.target)
        relations = []
        for index, relation in enumerate(workload.target):
            columns = {a: list(relation.column(a))
                       for a in relation.schema.attribute_names}
            if index == 0:
                # Perturb a single cell of the first table's first column.
                columns[relation.schema.attribute_names[0]][0] = "PERTURBED"
            relations.append(Relation(relation.schema, columns))
        mutated = Database.from_relations(workload.target.name, relations)
        assert database_token(mutated) != original

    def test_seed_changes_token(self):
        import dataclasses

        spec = get_scenario("events").resized(60)
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        assert database_token(build_scenario(spec).source) \
            != database_token(build_scenario(other).source)

    def test_token_shape(self, spec):
        token = database_token(build_scenario(spec).target)
        assert len(token) == 64
        assert set(token) <= set("0123456789abcdef")


class TestFingerprintToken:
    def test_default_engine_is_stable(self):
        assert fingerprint_token(MatchEngine()) \
            == fingerprint_token(MatchEngine())

    def test_config_changes_token(self):
        """Artifacts derive from the standard-matcher configuration, so
        that is what the fingerprint token tracks."""
        import dataclasses

        from repro import ContextMatchConfig
        from repro.matching import StandardMatchConfig

        tweaked = ContextMatchConfig(
            standard=StandardMatchConfig(sample_limit=123))
        assert fingerprint_token(MatchEngine(tweaked)) \
            != fingerprint_token(MatchEngine())
        # Purely contextual knobs do not invalidate prepared artifacts.
        contextual = dataclasses.replace(ContextMatchConfig(), tau=0.9)
        assert fingerprint_token(MatchEngine(contextual)) \
            == fingerprint_token(MatchEngine())


class TestBlobToken:
    def test_is_sha256_of_bytes(self):
        import hashlib

        payload = b"prepared-bytes"
        assert blob_token(payload) == hashlib.sha256(payload).hexdigest()
