"""Block scoring kernels against the per-target reference loop.

``Matcher.score_block`` scores one source profile against a subset of a
target block in one call; the q-gram and overlap matchers do it with CSR
integer arithmetic, the name matcher through a memo.  The contract is
exact: the floats equal ``[score_profiles(source, profiles[i]) for i in
positions]`` compared with ``==``, so matches, golden baselines and
artifact pickles do not move.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgram_reference import reference_profile
from repro import ContextMatchConfig, MatchEngine, TargetRepository
from repro.datagen import build_scenario, get_scenario
from repro.datagen.inventory import make_retail_workload, pad_workload
from repro.matching import (AttributeSample, Matcher, NameMatcher,
                            QGramMatcher, ValueOverlapMatcher, cosine_counts,
                            default_matchers, grams, jaccard)
from repro.matching.similarity import TermRows, cosine_rows, jaccard_rows
from repro.relational import Attribute, DataType

KERNEL_MATCHERS = (QGramMatcher, ValueOverlapMatcher, NameMatcher)


def _qgram_profile(values, q=3):
    return QGramMatcher(q=q).profile(
        AttributeSample("t", Attribute("a", DataType.TEXT), tuple(values)))


#: Target values come from "abc"; source values may also draw "xy", so
#: some sources share no gram with any target (out of vocabulary only).
target_values = st.lists(st.text(alphabet="abc", min_size=1, max_size=4),
                         max_size=8)
source_values = st.lists(st.text(alphabet="abcxy", min_size=1, max_size=4),
                         max_size=8)
target_counters = target_values.map(_qgram_profile)
source_counters = source_values.map(_qgram_profile)
target_sets = st.frozensets(st.text(alphabet="abc", max_size=3), max_size=8)
source_sets = st.frozensets(st.text(alphabet="abcxy", max_size=3),
                            max_size=8)
names = st.text(alphabet="abcAB_ 1", min_size=1, max_size=10)


def _name_profile(name: str):
    return NameMatcher().profile(
        AttributeSample("t", Attribute(name, DataType.TEXT), ()))


def _reference(matcher, source, profiles, positions):
    return [matcher.score_profiles(source, profiles[i]) for i in positions]


def _block(matcher, source, profiles, positions):
    return matcher.score_block(source, matcher.target_block(profiles),
                               positions)


def _positions(data, n):
    """Arbitrary target positions: any order, repeats allowed."""
    return data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))


class TestBlockEqualsLoop:
    @settings(max_examples=150, deadline=None)
    @given(source_counters, st.lists(target_counters, min_size=1,
                                     max_size=6), st.data())
    def test_qgram(self, source, targets, data):
        matcher = QGramMatcher()
        positions = _positions(data, len(targets))
        assert _block(matcher, source, targets, positions) \
            == _reference(matcher, source, targets, positions)

    @settings(max_examples=150, deadline=None)
    @given(source_sets, st.lists(target_sets, min_size=1, max_size=6),
           st.data())
    def test_overlap(self, source, targets, data):
        matcher = ValueOverlapMatcher()
        positions = _positions(data, len(targets))
        assert _block(matcher, source, targets, positions) \
            == _reference(matcher, source, targets, positions)

    @settings(max_examples=100, deadline=None)
    @given(names, st.lists(names, min_size=1, max_size=6), st.data())
    def test_name(self, source, targets, data):
        matcher = NameMatcher()
        profiles = [_name_profile(t) for t in targets]
        positions = _positions(data, len(targets))
        assert _block(matcher, _name_profile(source), profiles, positions) \
            == _reference(matcher, _name_profile(source), profiles,
                          positions)

    @pytest.mark.parametrize("q, source, targets", [
        (3, [], [["abc", "abc"], []]),
        (3, ["abc"], [[], []]),
        (3, ["zzz", "zzz", "yyy"], [["abc", "abc"], ["bcd", "abc"]]),
        (1, ["aaaaaaa"], [["a"], ["b"], ["aaa"]]),
    ], ids=["empty-source", "empty-targets", "oov-only", "single-gram"])
    def test_qgram_edges(self, q, source, targets):
        matcher = QGramMatcher(q=q)
        source = _qgram_profile(source, q)
        targets = [_qgram_profile(values, q) for values in targets]
        positions = list(range(len(targets)))
        assert _block(matcher, source, targets, positions) \
            == _reference(matcher, source, targets, positions)
        assert _block(matcher, source, targets, []) == []

    @pytest.mark.parametrize("source, targets", [
        (frozenset(), [frozenset({"a"}), frozenset()]),
        (frozenset({"a"}), [frozenset(), frozenset()]),
        (frozenset({"zz"}), [frozenset({"a", "b"}), frozenset({"b"})]),
        (frozenset({"a"}), [frozenset({"a"}), frozenset({"b"})]),
    ], ids=["empty-source", "empty-targets", "oov-only", "single-value"])
    def test_overlap_edges(self, source, targets):
        matcher = ValueOverlapMatcher()
        positions = list(range(len(targets)))
        assert _block(matcher, source, targets, positions) \
            == _reference(matcher, source, targets, positions)

    def test_default_hook_is_the_profile_loop(self):
        class Length(Matcher):
            name = "length"

            def profile(self, sample):
                return len(sample)

            def score_profiles(self, source, target):
                return 1.0 / (1 + abs(source - target))

        matcher = Length()
        profiles = [0, 3, 5]
        assert matcher.target_block(profiles) is profiles
        assert _block(matcher, 4, profiles, [2, 0]) == [0.5, 0.2]


class TestRowKernels:
    """The similarity-level kernels keep the scalar functions' own
    semantics, empty inputs included."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just([]), source_values),
           st.lists(st.one_of(st.just([]), target_values), max_size=6))
    def test_cosine_rows(self, source, rows):
        bag = _qgram_profile(source)
        block = grams.bag_rows([_qgram_profile(row) for row in rows])
        assert cosine_rows(bag.codes, bag.counts, block).tolist() \
            == [cosine_counts(reference_profile(source),
                              reference_profile(row)) for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(source_sets, st.lists(target_sets, max_size=6))
    def test_jaccard_rows(self, source, rows):
        assert jaccard_rows(source, TermRows.from_sets(rows)).tolist() \
            == [jaccard(source, row) for row in rows]


@pytest.fixture(scope="module")
def events():
    return build_scenario(get_scenario("events").resized(80))


def _source_profiles(database):
    """Per-matcher profiles of every source column."""
    matchers = default_matchers()
    samples = [AttributeSample.from_relation(relation, attribute)
               for relation in database for attribute in relation.schema]
    return [{m.name: m.profile(s) for m in matchers} for s in samples]


def _all_block_scores(index, source_profiles):
    positions = list(range(len(index.samples)))
    return [[m.score_block(profiles[m.name], index.blocks[m.name], positions)
             for m in index.matchers] for profiles in source_profiles]


class TestTargetIndexBlocks:
    def test_pickle_drops_and_rebuilds_blocks(self, events):
        index = MatchEngine().prepare(events.target).index
        assert "blocks" not in index.__getstate__()
        assert set(index.blocks) == set(index.profiles)
        restored = pickle.loads(pickle.dumps(index))
        assert set(restored.blocks) == set(index.blocks)
        profiles = _source_profiles(events.source)
        assert _all_block_scores(restored, profiles) \
            == _all_block_scores(index, profiles)

    def test_grown_index_scores_like_a_fresh_one(self, events):
        from repro.relational.instance import Database

        engine = MatchEngine()
        base = Database(events.target.schema,
                        [r.take(range(len(r) // 2)) for r in events.target])
        deltas = {r.name: [r.row(i) for i in range(len(r) // 2, len(r))]
                  for r in events.target}
        repo = TargetRepository(engine)
        grown = repo.hub(repo.append_rows(repo.add(base), deltas))
        fresh = engine.prepare(grown.target)
        profiles = _source_profiles(events.source)
        assert _all_block_scores(grown.index, profiles) \
            == _all_block_scores(fresh.index, profiles)


def _match_keys(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


class TestPrunedWideTarget:
    """Every registered scenario's target is narrower than
    ``retrieval_top_k``, so its frontier is always the identity; a
    52-attribute padded target makes retrieval hand the kernels real
    position subsets.  The reference run swaps the kernels — the view
    block entry point included — for the base class's per-target
    ``score_profiles`` loop."""

    def test_pruned_run_matches_the_profile_loop(self, monkeypatch):
        base = make_retail_workload(target="ryan", n_source=100,
                                    n_target=60, gamma=2, seed=4)
        target = pad_workload(base, 16, seed=6).target
        assert sum(len(r.schema) for r in target) >= 48
        config = ContextMatchConfig(inference="src", seed=2)
        kernel = MatchEngine(config).match(base.source, target)
        counts = kernel.report.stage("score-candidates").counts
        assert counts["pairs_pruned"] > 0
        for cls in KERNEL_MATCHERS:
            monkeypatch.setattr(cls, "target_block", Matcher.target_block)
            monkeypatch.setattr(cls, "score_block", Matcher.score_block)
            monkeypatch.setattr(cls, "score_views", Matcher.score_views)
        loop = MatchEngine(config).match(base.source, target)
        assert kernel.matches
        assert _match_keys(kernel) == _match_keys(loop)
        assert loop.report.stage("score-candidates").counts == counts
