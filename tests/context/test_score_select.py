"""Unit tests for ScoreMatch and SelectContextualMatches."""

import pytest

from repro.context.model import CandidateScore
from repro.context.score import score_relation_candidates
from repro.context.select import (multi_table, qual_table, select_matches,
                                  view_improvement)
from repro.matching import StandardMatch
from repro.matching.standard import AttributeMatch
from repro.profiling import ProfileStore
from repro.relational import Eq, Relation, View, ViewFamily
from repro.relational.schema import AttributeRef


def match(src_attr, tgt_table, tgt_attr, score, conf, src_table="inv"):
    return AttributeMatch(source=AttributeRef(src_table, src_attr),
                          target=AttributeRef(tgt_table, tgt_attr),
                          score=score, confidence=conf)


def candidate(view, base_match, rescored_score, rescored_conf, rows=50):
    rescored = AttributeMatch(
        source=AttributeRef(view.name, base_match.source.attribute),
        target=base_match.target, score=rescored_score,
        confidence=rescored_conf)
    family = ViewFamily.simple(view.base, "type", [1, 2])
    return CandidateScore(view=view, family=family, base_match=base_match,
                          rescored=rescored, view_rows=rows)


def _score(families, base, accepted, matcher, index, **kwargs):
    store = ProfileStore(matcher.matchers, matcher.config.sample_limit)
    return score_relation_candidates(families, base, accepted, matcher,
                                     index, store=store, **kwargs)


class TestScoreViewCandidates:
    def test_rescoring_produces_candidates(self, figure1_source,
                                           figure1_target, inv_relation):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        accepted = [m for m in matcher.score_relation(inv_relation, index)
                    if m.confidence >= 0.5]
        view = View("inv", Eq("type", 1))
        family = ViewFamily.simple("inv", "type", [1, 2])
        candidates = _score([family], inv_relation, accepted, matcher,
                            index)
        assert {c.view.name for c in candidates} \
            == {view.name, "inv[type=2]"}
        scored = [c for c in candidates if c.view == view]
        assert scored
        assert all(c.rescored.source.table == view.name for c in scored)
        assert all(c.view_rows == 3 for c in scored)

    def test_small_views_skipped(self, figure1_target, inv_relation):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        accepted = [match("name", "book", "title", 0.8, 0.9)]
        family = ViewFamily.simple("inv", "id", [0])  # selects a single row
        scored = _score([family], inv_relation, accepted, matcher, index,
                        min_view_rows=2)
        assert scored == []

    def test_family_dedup(self, figure1_target, inv_relation):
        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        accepted = [m for m in matcher.score_relation(inv_relation, index)
                    if m.confidence >= 0.5]
        f1 = ViewFamily.simple("inv", "type", [1, 2])
        f2 = ViewFamily("inv", "type", [[1, 2]])  # merged family
        seen: set = set()
        first = _score([f1], inv_relation, accepted, matcher, index,
                       seen_views=seen)
        again = _score([f1], inv_relation, accepted, matcher, index,
                       seen_views=seen)
        assert first and not again  # second scoring is fully deduped
        merged = _score([f2], inv_relation, accepted, matcher, index,
                        seen_views=seen)
        assert merged  # the merged view is new


class TestViewImprovement:
    def test_positive_deltas_sum(self):
        view = View("inv", Eq("type", 1))
        base = match("a", "t", "x", 0.5, 0.9)
        scores = [candidate(view, base, 0.75, 0.9)]
        assert view_improvement(scores) == pytest.approx(50.0)

    def test_negative_deltas_ignored(self):
        view = View("inv", Eq("type", 1))
        up = candidate(view, match("a", "t", "x", 0.5, 0.9), 0.6, 0.9)
        down = candidate(view, match("b", "t", "y", 0.5, 0.9), 0.2, 0.9)
        assert view_improvement([up, down]) == pytest.approx(20.0)

    def test_delta_cap(self):
        view = View("inv", Eq("type", 1))
        base = match("a", "t", "x", 0.05, 0.9)
        scores = [candidate(view, base, 1.0, 0.9)]
        assert view_improvement(scores) == pytest.approx(100.0)


class TestMultiTable:
    def test_picks_best_score_per_target_attribute(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        view = View("inv", Eq("type", 1))
        cands = [candidate(view, std[0], 0.8, 0.7)]
        selected = multi_table(std, cands)
        assert len(selected) == 1
        assert selected[0].is_contextual  # higher score wins

    def test_standard_kept_when_views_worse(self):
        std = [match("a", "t", "x", 0.9, 0.9)]
        view = View("inv", Eq("type", 1))
        cands = [candidate(view, std[0], 0.3, 0.99)]
        selected = multi_table(std, cands)
        assert not selected[0].is_contextual

    def test_one_winner_per_target_attribute(self):
        std = [match("a", "t", "x", 0.5, 0.9),
               match("b", "t", "x", 0.6, 0.8)]
        selected = multi_table(std, [])
        assert len(selected) == 1
        assert selected[0].source.attribute == "b"


class TestQualTable:
    def test_view_replaces_table_when_improving(self):
        std = [match("a", "t", "x", 0.5, 0.9),
               match("b", "t", "y", 0.5, 0.9)]
        view = View("inv", Eq("type", 1))
        cands = [candidate(view, std[0], 0.8, 0.9),
                 candidate(view, std[1], 0.8, 0.9)]
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=True)
        contextual = [m for m in selected if m.is_contextual]
        assert len(contextual) == 2
        assert all(m.condition == Eq("type", 1) for m in contextual)

    def test_omega_blocks_weak_views(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        view = View("inv", Eq("type", 1))
        cands = [candidate(view, std[0], 0.505, 0.9)]  # +1% only
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=True)
        assert all(not m.is_contextual for m in selected)

    def test_early_selects_single_best_view(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        good = View("inv", Eq("type", 1))
        better = View("inv", Eq("type", 2))
        cands = [candidate(good, std[0], 0.7, 0.9),
                 candidate(better, std[0], 0.9, 0.9)]
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=True)
        contextual = [m for m in selected if m.is_contextual]
        assert len(contextual) == 1
        assert contextual[0].condition == Eq("type", 2)

    def test_late_selects_all_improving_views(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        v1 = View("inv", Eq("type", 1))
        v2 = View("inv", Eq("type", 2))
        cands = [candidate(v1, std[0], 0.7, 0.9),
                 candidate(v2, std[0], 0.9, 0.9)]
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=False)
        assert len([m for m in selected if m.is_contextual]) == 2

    def test_tie_resolved_toward_larger_view(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        small = View("inv", Eq("type", 1))
        large = View("inv", Eq("type", 2))
        cands = [candidate(small, std[0], 0.81, 0.9, rows=100),
                 candidate(large, std[0], 0.80, 0.9, rows=500)]
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=True)
        contextual = [m for m in selected if m.is_contextual]
        assert contextual[0].condition == Eq("type", 2)

    def test_best_source_table_wins(self):
        std = [match("a", "t", "x", 0.5, 0.4, src_table="weak"),
               match("a", "t", "x", 0.5, 0.9, src_table="strong"),
               match("b", "t", "y", 0.5, 0.9, src_table="strong")]
        selected = qual_table(std, [], omega=5.0, early_disjuncts=True)
        assert all(m.source.table == "strong" for m in selected)

    def test_unimproved_pairs_are_dropped(self):
        """Only the matches the chosen view improves are returned (the
        strawman's δ > 0 rule)."""
        std = [match("a", "t", "x", 0.5, 0.9),
               match("b", "t", "y", 0.5, 0.9)]
        view = View("inv", Eq("type", 1))
        cands = [candidate(view, std[0], 0.9, 0.9),
                 candidate(view, std[1], 0.4, 0.9)]  # pair b degrades
        selected = qual_table(std, cands, omega=5.0, early_disjuncts=True)
        by_attr = {m.source.attribute: m for m in selected}
        assert by_attr["a"].is_contextual
        assert "b" not in by_attr


class TestDispatch:
    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            select_matches([], [], selection="bogus", omega=5,
                           early_disjuncts=True)

    def test_dispatches(self):
        std = [match("a", "t", "x", 0.5, 0.9)]
        assert select_matches(std, [], selection="multitable", omega=5,
                              early_disjuncts=True)
        assert select_matches(std, [], selection="qualtable", omega=5,
                              early_disjuncts=True)
