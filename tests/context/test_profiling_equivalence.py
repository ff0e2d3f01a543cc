"""Acceptance: the profiling path is bit-identical to per-view scoring on
the paper's workloads.

A matching system without the profiling interface is a black box to the
engine (§2.3): every candidate view is materialized and its columns are
scored through ``score_attribute``.  :class:`BlackBoxMatch` puts
``StandardMatch`` behind exactly that protocol, so an engine over it is
the per-view reference for the default engine.  Matches, scores,
confidences and the full candidate-rescoring diagnostics must agree bit
for bit: on retail and grades in tier 1, and on every registered
scenario in the golden tier.
"""

import struct

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.context.score import score_family_candidates
from repro.datagen import build_scenario, get_scenario, scenario_names
from repro.evaluation.scenarios import scenario_config
from repro.matching import StandardMatch
from repro.profiling import ProfileStore
from repro.relational import View, ViewFamily


class BlackBoxMatch:
    """``StandardMatch`` exposing only the ``MatchingSystem`` protocol —
    no profiling interface, no target subsets."""

    def __init__(self, inner: StandardMatch):
        self._inner = inner

    def match(self, source, target, tau):
        return self._inner.match(source, target, tau)

    def accept(self, match, tau):
        return self._inner.accept(match, tau)

    def score_relation(self, relation, index):
        return self._inner.score_relation(relation, index)

    def build_target_index(self, target):
        return self._inner.build_target_index(target)

    def score_attribute(self, table, sample_values, attribute, index):
        return self._inner.score_attribute(table, sample_values, attribute,
                                           index)


def _bits(x):
    return struct.pack("<d", x)


def _match_key(m):
    return (m.source, m.target, str(m.condition), m.condition_on,
            _bits(m.score), _bits(m.confidence))


def _standard_key(m):
    return (m.source, m.target, _bits(m.score), _bits(m.confidence))


def _candidate_key(c):
    return (c.view.name, c.family.attribute, c.base_match.key(),
            _bits(c.rescored.score), _bits(c.rescored.confidence),
            c.view_rows)


def _run_config(workload, config, black_box):
    matcher = (BlackBoxMatch(StandardMatch(config.standard)) if black_box
               else None)
    engine = MatchEngine(config, matcher=matcher)
    return engine.match(workload.source, engine.prepare(workload.target))


def _run(workload, black_box, **cfg):
    return _run_config(workload, ContextMatchConfig(**cfg), black_box)


@pytest.mark.parametrize("inference", ["src", "tgt"])
def test_retail_equivalence(retail_workload, inference):
    fast = _run(retail_workload, False, inference=inference, seed=5)
    per_view = _run(retail_workload, True, inference=inference, seed=5)
    assert [_match_key(m) for m in fast.matches] \
        == [_match_key(m) for m in per_view.matches]
    assert [_standard_key(m) for m in fast.standard_matches] \
        == [_standard_key(m) for m in per_view.standard_matches]
    assert [_candidate_key(c) for c in fast.candidates] \
        == [_candidate_key(c) for c in per_view.candidates]


def test_grades_equivalence(grades_workload):
    fast = _run(grades_workload, False, inference="tgt", seed=7)
    per_view = _run(grades_workload, True, inference="tgt", seed=7)
    assert fast.matches, "grades workload should produce matches"
    assert [_match_key(m) for m in fast.matches] \
        == [_match_key(m) for m in per_view.matches]
    assert [_candidate_key(c) for c in fast.candidates] \
        == [_candidate_key(c) for c in per_view.candidates]


def test_conjunctive_refinement_equivalence(retail_workload):
    fast = _run(retail_workload, False, inference="src", seed=5,
                conjunctive_stages=2)
    per_view = _run(retail_workload, True, inference="src", seed=5,
                    conjunctive_stages=2)
    assert [_match_key(m) for m in fast.matches] \
        == [_match_key(m) for m in per_view.matches]
    counts = fast.report.stage("conjunctive-refine").counts
    assert counts["iterations"] == 1
    # The refinement stage reports its own stage-scoped cache counters.
    assert "profile_misses" in counts


def test_profiling_run_reports_cache_counters(retail_workload):
    result = _run(retail_workload, False, inference="src", seed=5)
    counts = result.report.stage("score-candidates").counts
    assert counts["profile_misses"] > 0
    assert counts["partitions_built"] > 0
    per_view = _run(retail_workload, True, inference="src", seed=5)
    for stage in per_view.report.stages:
        assert "profile_misses" not in stage.counts, stage.name
        assert "partitions_built" not in stage.counts, stage.name


@pytest.mark.golden
@pytest.mark.parametrize("name", scenario_names())
def test_black_box_equivalence_grid(name):
    spec = get_scenario(name)
    workload = build_scenario(spec)
    fast, per_view = (
        _run_config(workload, scenario_config(spec), black_box)
        for black_box in (False, True))
    assert [_match_key(m) for m in fast.matches] \
        == [_match_key(m) for m in per_view.matches]
    assert [_standard_key(m) for m in fast.standard_matches] \
        == [_standard_key(m) for m in per_view.standard_matches]
    assert [_candidate_key(c) for c in fast.candidates] \
        == [_candidate_key(c) for c in per_view.candidates]


class TestDuplicateViewsAcrossMergedFamilies:
    """Regression: member views shared between a family and its merged
    variants are scored exactly once per relation (``seen_views``)."""

    def _setup(self, figure1_target):
        from repro.matching.standard import AttributeMatch
        from repro.relational import Relation
        from repro.relational.schema import AttributeRef

        matcher = StandardMatch()
        index = matcher.build_target_index(figure1_target)
        relation = Relation.infer_schema("inv2", {
            "name": [f"title {i}" for i in range(12)],
            "cat": ["a", "a", "a", "a", "b", "b", "b", "b",
                    "c", "c", "c", "c"],
        })
        accepted = [AttributeMatch(
            source=AttributeRef("inv2", "name"),
            target=AttributeRef("book", "title"),
            score=0.8, confidence=0.9)]
        return matcher, index, relation, accepted

    @pytest.mark.parametrize("use_store", [False, True])
    def test_shared_singletons_scored_once(self, figure1_target, use_store):
        matcher, index, relation, accepted = self._setup(figure1_target)
        base = ViewFamily.simple("inv2", "cat", ["a", "b", "c"])
        merged = base.merge("a", "b")
        store = (ProfileStore.for_matcher(matcher) if use_store else None)
        seen: set[View] = set()
        first = score_family_candidates(base, relation, accepted, matcher,
                                        index, seen_views=seen, store=store)
        second = score_family_candidates(merged, relation, accepted, matcher,
                                         index, seen_views=seen, store=store)
        # The merged family shares the untouched 'c' singleton with the
        # base family: only its new merged view is scored.
        first_views = {c.view.name for c in first}
        second_views = {c.view.name for c in second}
        assert first_views == {"inv2[cat=a]", "inv2[cat=b]", "inv2[cat=c]"}
        assert second_views == {"inv2[catin(a,b)]"}
        assert second_views.isdisjoint(first_views)
        all_names = [c.view.name for c in first + second]
        assert all(all_names.count(name) == 1 for name in set(all_names))

    def test_duplicate_family_entirely_skipped(self, figure1_target):
        matcher, index, relation, accepted = self._setup(figure1_target)
        family = ViewFamily.simple("inv2", "cat", ["a", "b"])
        seen: set[View] = set()
        first = score_family_candidates(family, relation, accepted, matcher,
                                        index, seen_views=seen)
        again = score_family_candidates(family, relation, accepted, matcher,
                                        index, seen_views=seen)
        assert first
        assert again == []
