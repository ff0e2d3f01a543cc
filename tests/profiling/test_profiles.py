"""ColumnProfile construction, merge composition, and the ProfileStore."""

import pytest

from repro.matching.matchers import (AttributeSample, NameMatcher,
                                     QGramMatcher, TypeMatcher,
                                     ValueOverlapMatcher, default_matchers)
from repro.profiling import (ColumnProfile, ProfileStore, SampleDigest,
                             build_column_profile, merge_column_profiles)
from repro.relational import Eq, Relation, View, ViewFamily


@pytest.fixture()
def relation() -> Relation:
    values = [f"item {i:03d}" for i in range(30)]
    kinds = ["book" if i % 3 else "music" for i in range(30)]
    return Relation.infer_schema("items", {"name": values, "kind": kinds})


class TestBuildColumnProfile:
    def test_profiles_every_matcher(self, relation):
        matchers = default_matchers()
        profile = build_column_profile(
            "items", relation.schema.attribute("name"),
            relation.column("name"), matchers, limit=400)
        assert set(profile.profiles) == {m.name for m in matchers}
        assert profile.n_values == 30
        assert not profile.thinned
        assert profile.sample is not None

    def test_matches_score_attribute_sampling(self, relation):
        """Profiles equal what score_attribute builds ad hoc (bit-identical
        sampling incl. missing removal and deterministic thinning)."""
        matchers = default_matchers()
        values = list(relation.column("name")) + [None] * 5
        attribute = relation.schema.attribute("name")
        profile = build_column_profile("items", attribute, values,
                                       matchers, limit=8)
        expected = AttributeSample.from_column("items", attribute, values,
                                               limit=8)
        assert profile.sample == expected
        assert profile.thinned
        assert profile.n_values == 8
        for m in matchers:
            assert profile.profiles[m.name] == m.profile(expected)

    def test_digest_ducks_attribute_sample(self, relation):
        attribute = relation.schema.attribute("name")
        digest = SampleDigest("items", attribute, 7)
        assert digest.name == "name"
        assert len(digest) == 7
        profile = ColumnProfile(table="items", attribute=attribute,
                                n_values=7, thinned=False, profiles={})
        assert isinstance(profile.sample_view(), SampleDigest)


class TestMergeColumnProfiles:
    def _cells(self, relation, matchers, limit):
        attribute = relation.schema.attribute("name")
        cells = {}
        for kind in ("book", "music"):
            values = [n for n, k in zip(relation.column("name"),
                                        relation.column("kind")) if k == kind]
            cells[kind] = (values, build_column_profile(
                f"items[kind={kind}]", attribute, values, matchers, limit))
        return attribute, cells

    def test_composition_bit_identical_to_direct_build(self, relation):
        matchers = default_matchers()
        attribute, cells = self._cells(relation, matchers, limit=400)
        union = cells["book"][0] + cells["music"][0]
        merged, n_composed = merge_column_profiles(
            "items[merged]", attribute,
            [cells["book"][1], cells["music"][1]], matchers, 400,
            lambda: union)
        direct = build_column_profile("items[merged]", attribute, union,
                                      matchers, 400)
        # Additive profiles (qgram counts, overlap sets, name, type) compose;
        # numeric is rebuilt from the gathered union.
        assert n_composed == 4
        for m in matchers:
            assert merged.profiles[m.name] == direct.profiles[m.name]
        assert merged.n_values == direct.n_values

    def test_all_mergeable_zoo_skips_value_gathering(self, relation):
        matchers = [NameMatcher(), QGramMatcher(), ValueOverlapMatcher(),
                    TypeMatcher()]
        attribute, cells = self._cells(relation, matchers, limit=400)

        def explode():  # pragma: no cover - must not be called
            raise AssertionError("gather_values called on pure composition")

        merged, n_composed = merge_column_profiles(
            "items[merged]", attribute,
            [cells["book"][1], cells["music"][1]], matchers, 400, explode)
        assert n_composed == len(matchers)
        assert merged.sample is None
        union = cells["book"][0] + cells["music"][0]
        direct = build_column_profile("items[merged]", attribute, union,
                                      matchers, 400)
        for m in matchers:
            assert merged.profiles[m.name] == direct.profiles[m.name]

    def test_thinning_forces_rebuild(self, relation):
        matchers = default_matchers()
        attribute, cells = self._cells(relation, matchers, limit=400)
        union = cells["book"][0] + cells["music"][0]
        limit = len(union) - 3  # union must be thinned
        parts = [build_column_profile("c1", attribute, cells["book"][0],
                                      matchers, limit),
                 build_column_profile("c2", attribute, cells["music"][0],
                                      matchers, limit)]
        merged, n_composed = merge_column_profiles(
            "items[merged]", attribute, parts, matchers, limit,
            lambda: union)
        direct = build_column_profile("items[merged]", attribute, union,
                                      matchers, limit)
        assert n_composed == 0
        assert merged.thinned
        for m in matchers:
            assert merged.profiles[m.name] == direct.profiles[m.name]


class TestProfileStore:
    def test_base_profile_cached(self, relation):
        store = ProfileStore(default_matchers(), 400)
        first = store.base_profile(relation, "name")
        again = store.base_profile(relation, "name")
        assert again is first
        assert store.profile_hits == 1
        assert store.profile_misses == 1

    def test_partition_cached(self, relation):
        store = ProfileStore(default_matchers(), 400)
        first = store.partition(relation, "kind")
        assert store.partition(relation, "kind") is first
        assert store.partitions_built == 1
        assert store.partition_hits == 1

    def test_view_profile_matches_materialized_view(self, relation):
        """The store's view profiles equal profiling the evaluated view —
        table name, sample and every matcher profile."""
        matchers = default_matchers()
        store = ProfileStore(matchers, 400)
        family = ViewFamily.simple("items", "kind", ["book", "music"])
        for group, view in zip(family.groups, family.views()):
            profile = store.view_profile(relation, "kind", group, "name")
            restricted = view.evaluate(relation)
            direct = build_column_profile(
                view.name, restricted.schema.attribute("name"),
                restricted.column("name"), matchers, 400)
            assert profile.table == view.name
            assert profile.sample == direct.sample
            assert profile.profiles == direct.profiles

    def test_merged_view_profile_composes_from_cells(self, relation):
        store = ProfileStore(default_matchers(), 400)
        family = ViewFamily.simple("items", "kind",
                                   ["book", "music"]).merge("book", "music")
        (group,) = family.groups
        # Prime the singleton cells, then compose.
        for value in ("book", "music"):
            store.view_profile(relation, "kind", frozenset({value}), "name")
        merged = store.view_profile(relation, "kind", group, "name")
        assert store.profiles_merged > 0
        view = family.views()[0]
        restricted = view.evaluate(relation)
        direct = build_column_profile(
            view.name, restricted.schema.attribute("name"),
            restricted.column("name"), default_matchers(), 400)
        assert merged.table == view.name
        assert merged.profiles == direct.profiles

    def test_counters_since(self, relation):
        store = ProfileStore(default_matchers(), 400)
        before = store.counters()
        store.base_profile(relation, "name")
        store.base_profile(relation, "name")
        delta = store.counters_since(before)
        assert delta["profile_misses"] == 1
        assert delta["profile_hits"] == 1
        assert delta["partitions_built"] == 0
