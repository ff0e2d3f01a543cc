"""Unit and integration tests for the standard matching system."""

import math

import pytest

from repro.datagen.inventory import make_retail_workload
from repro.errors import MatchingError
from repro.matching import StandardMatch, StandardMatchConfig
from repro.relational import Database, Relation


class TestTargetIndex:
    def test_index_covers_all_attributes(self, figure1_target):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        assert len(index.samples) == 5 + 6
        assert set(index.profiles) == {m.name for m in matcher.matchers}

    def test_empty_target_rejected(self):
        matcher = StandardMatch()
        with pytest.raises(MatchingError):
            matcher.build_target_index(Database.from_relations("RT", []))


class TestScoreAttribute:
    def test_scores_every_target(self, figure1_source, figure1_target):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        inv = figure1_source.relation("inv")
        matches = matcher.score_attribute(
            "inv", inv.column("name"), inv.schema.attribute("name"), index)
        assert len(matches) == 11
        for match in matches:
            assert 0.0 <= match.confidence <= 1.0
            assert match.source.table == "inv"

    def test_view_name_carried(self, figure1_source, figure1_target):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        inv = figure1_source.relation("inv")
        matches = matcher.score_attribute(
            "inv[type=1]", inv.column("name"),
            inv.schema.attribute("name"), index)
        assert all(m.source.table == "inv[type=1]" for m in matches)


class TestMatch:
    def test_figure1_matches_sensible(self, figure1_source, figure1_target):
        matcher = StandardMatch()
        accepted = matcher.match(figure1_source, figure1_target, tau=0.5)
        found = {(m.source.attribute, m.target.table, m.target.attribute)
                 for m in accepted}
        # The headline pairings of Figure 2 must be present (the 5-row
        # running example is too small for stable numeric-price evidence,
        # so the price pairing is not asserted here).
        assert ("name", "book", "title") in found
        assert ("name", "music", "title") in found
        assert ("descr", "book", "format") in found

    def test_tau_monotone(self, figure1_source, figure1_target):
        matcher = StandardMatch()
        low = matcher.match(figure1_source, figure1_target, tau=0.2)
        high = matcher.match(figure1_source, figure1_target, tau=0.8)
        assert len(high) <= len(low)
        high_keys = {m.key() for m in high}
        assert high_keys <= {m.key() for m in low}

    def test_invalid_tau(self, figure1_source, figure1_target):
        with pytest.raises(MatchingError):
            StandardMatch().match(figure1_source, figure1_target, tau=1.5)

    def test_score_floor_blocks_weak_pairs(self, figure1_source,
                                           figure1_target):
        strict = StandardMatch(StandardMatchConfig(score_floor=0.99))
        assert strict.match(figure1_source, figure1_target, tau=0.0) == []

    def test_accept_uses_floor_and_tau(self, figure1_source, figure1_target):
        matcher = StandardMatch()
        scored = matcher.score_all(figure1_source, figure1_target)
        for match in scored:
            expected = (match.confidence >= 0.6
                        and match.score >= matcher.config.score_floor)
            assert matcher.accept(match, 0.6) == expected


class TestBidirectionalConfidence:
    def test_extreme_sibling_columns_rescued(self, rng):
        """A target column whose best source attribute ranks low among
        sibling targets still gets a confident match (grade1 hazard)."""
        narrow = Relation.infer_schema("narrow", {
            "grade": [round(float(v), 1)
                      for v in rng.normal(40, 5, 200)] +
                     [round(float(v), 1) for v in rng.normal(80, 5, 200)],
            "other": ["x"] * 400,
        })
        wide = Relation.infer_schema("wide", {
            "g_low": [round(float(v), 1) for v in rng.normal(40, 5, 200)],
            "g_mid": [round(float(v), 1) for v in rng.normal(60, 5, 200)],
            "g_high": [round(float(v), 1) for v in rng.normal(80, 5, 200)],
        })
        matcher = StandardMatch(StandardMatchConfig(use_name_evidence=False))
        source = Database.from_relations("S", [narrow])
        target = Database.from_relations("T", [wide])
        index = matcher.build_target_index(target)
        matches = matcher.score_relation(narrow, index)
        by_pair = {(m.source.attribute, m.target.attribute): m
                   for m in matches}
        # grade is the best source explanation of every grade column, so
        # target-side normalization keeps all three confident.
        assert by_pair[("grade", "g_low")].confidence > 0.6
        assert by_pair[("grade", "g_high")].confidence > 0.6


class TestNoNameEvidence:
    def test_name_matcher_removed(self):
        matcher = StandardMatch(StandardMatchConfig(use_name_evidence=False))
        assert "name" not in {m.name for m in matcher.matchers}

    def test_needs_at_least_one_matcher(self):
        with pytest.raises(MatchingError):
            StandardMatch(matchers=[])


def test_an_infinite_price_keeps_the_price_matches():
    """One ``inf`` in a FLOAT column (a CSV ``inf`` field) must not turn
    the numeric matcher's scores NaN and erase the column's matches."""
    workload = make_retail_workload(target="ryan", seed=7)
    items = workload.source.relation("items")
    columns = {a.name: items.column(a.name) for a in items.schema}
    columns["ListPrice"][0] = float("inf")
    source = Database.from_relations(
        workload.source.name, [Relation(items.schema, columns)])
    matcher = StandardMatch()
    for match in matcher.score_all(source, workload.target):
        assert not math.isnan(match.score)
        assert not math.isnan(match.confidence)
        assert all(not math.isnan(e.raw_score)
                   and not math.isnan(e.confidence)
                   for e in match.evidence)
    assert {str(m.target) for m in matcher.match(source, workload.target)
            if m.source.attribute == "ListPrice"} \
        >= {"books.price", "cds.price"}


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=15, deadline=None)
@given(st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8),
                min_size=2, max_size=20),
       st.lists(st.floats(min_value=1.0, max_value=100.0,
                          allow_nan=False),
                min_size=2, max_size=20))
def test_property_scores_and_confidences_bounded(texts, numbers):
    """Pipeline invariant: every scored pair has score and confidence in
    [0, 1], whatever the data."""
    source = Database.from_relations("S", [Relation.infer_schema(
        "s", {"t": texts, "n": [round(v, 2) for v in numbers[:len(texts)]]
              or [1.0] * len(texts)})]) \
        if len(numbers) >= len(texts) else Database.from_relations(
        "S", [Relation.infer_schema("s", {"t": texts})])
    target = Database.from_relations("T", [Relation.infer_schema(
        "u", {"x": texts[::-1], "y": [float(i) for i in range(len(texts))]})])
    matcher = StandardMatch()
    for match in matcher.score_all(source, target):
        assert 0.0 <= match.score <= 1.0 + 1e-9
        assert 0.0 <= match.confidence <= 1.0 + 1e-9
