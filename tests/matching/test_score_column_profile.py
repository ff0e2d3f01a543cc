"""``score_column_profile(..., keep=...)`` against the all-targets loop.

Only the prototype targets' rescorings enter RL, so the partition-once
path names them (``keep``) and the standard matcher builds confidences,
evidence and matches for those positions alone, while every frontier
target's raw score still enters each matcher's Φ fit.
:func:`all_targets_reference` is the loop this replaced (per-target
``applicable``, ``confidences_from_scores`` over the frontier and
``combine_evidence`` for every target) and stays here as the reference:
at the kept positions the two must be equal with ``==``, evidence
included.
"""

from __future__ import annotations

import dataclasses
import pickle
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ContextMatchConfig, MatchEngine
from repro.datagen import build_scenario, get_scenario
from repro.matching import (AttributeMatch, MatcherEvidence, NameMatcher,
                            NumericMatcher, QGramMatcher, StandardMatch,
                            TargetIndex, TypeMatcher, ValueOverlapMatcher,
                            combine_evidence, confidences_from_scores,
                            default_matchers)
from repro.matching.matchers import NumericSummary
from repro.profiling import build_column_profile, merge_column_profiles
from repro.relational import Database, Relation
from repro.relational.schema import AttributeRef

LIMIT = 400


def all_targets_reference(scorer, profile, index, positions):
    """Every frontier target's match, built the way ``_score_profiled``
    built them before it learned ``keep``."""
    sample, profiles = profile.sample_view(), profile.profiles
    target_ids = (list(range(len(index.samples))) if positions is None
                  else list(positions))
    target_samples = [index.samples[i] for i in target_ids]
    evidence = [[] for _ in target_ids]
    for matcher in scorer.matchers:
        applicable = [matcher.applicable(sample, t) for t in target_samples]
        scores = iter(matcher.score_block(
            profiles[matcher.name], index.blocks[matcher.name],
            [i for i, ok in zip(target_ids, applicable) if ok]))
        raw = [next(scores) if ok else None for ok in applicable]
        for slot, (raw_score, conf) in enumerate(
                zip(raw, confidences_from_scores(raw))):
            if raw_score is None or conf is None:
                continue
            evidence[slot].append(MatcherEvidence(
                matcher=matcher.name, weight=matcher.weight,
                raw_score=raw_score, confidence=conf))
    matches = []
    source_ref = AttributeRef(profile.table, profile.attribute.name)
    for slot, target_sample in enumerate(target_samples):
        combined = combine_evidence(evidence[slot])
        if combined is None:
            continue
        matches.append(AttributeMatch(
            source=source_ref,
            target=AttributeRef(target_sample.table, target_sample.name),
            score=combined.score, confidence=combined.confidence,
            evidence=combined.evidence))
    return matches


def _position(index, match):
    return index.positions[(match.target.table, match.target.attribute)]


#: Matcher zoos: the default one; instance evidence only (an all-missing
#: column abstains everywhere); q-gram and numeric only (a text column
#: abstains on every numeric target); every matcher additive (a merged
#: profile is composed without a sample).
ZOOS = {
    "default": default_matchers,
    "instance": lambda: [QGramMatcher(weight=1.5), ValueOverlapMatcher(),
                         NumericMatcher(weight=1.25)],
    "qgram-numeric": lambda: [QGramMatcher(), NumericMatcher()],
    "additive": lambda: [NameMatcher(), QGramMatcher(),
                         ValueOverlapMatcher(), TypeMatcher()],
}

TARGET_WORDS = ["red", "blue", "green", "alpha", "beta", "gamma", "x1"]
#: Source words outside the targets' vocabulary (q-grams included).
OOV_WORDS = ["qqq", "vvvv", "zzk"]


def column_values(words, n):
    """A column of *n* values of one kind (text, int, float or missing),
    with some cells missing."""
    kinds = {"text": st.sampled_from(words), "int": st.integers(-50, 50),
             "float": st.floats(-1e3, 1e3, allow_nan=False),
             "missing": st.none()}
    return st.sampled_from(sorted(kinds)).flatmap(
        lambda kind: st.lists(st.one_of(kinds[kind], st.none()),
                              min_size=n, max_size=n))


@st.composite
def target_databases(draw):
    relations = []
    for t in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        columns = {f"a{t}{c}": draw(column_values(TARGET_WORDS, n))
                   for c in range(draw(st.integers(1, 4)))}
        relations.append(Relation.infer_schema(f"t{t}", columns))
    return Database.from_relations("target", relations)


@st.composite
def source_profiles(draw, matchers):
    """A profile of one source column, built directly or composed from
    two disjoint cells as a merged view's is."""
    words = draw(st.sampled_from([TARGET_WORDS, OOV_WORDS]))
    n = draw(st.integers(1, 8))
    name = draw(st.sampled_from(["a00", "colour", "price", "x"]))
    relation = Relation.infer_schema(
        "src", {name: draw(column_values(words, n))})
    attribute = relation.schema.attribute(name)
    clean = relation.non_missing(name)
    if not draw(st.booleans()) or len(clean) < 2:
        return build_column_profile("src", attribute, clean, matchers,
                                    LIMIT, values_clean=True)
    cut = draw(st.integers(1, len(clean) - 1))
    cells = [build_column_profile("src", attribute, part, matchers, LIMIT,
                                  values_clean=True)
             for part in (clean[:cut], clean[cut:])]
    return merge_column_profiles("src", attribute, cells, matchers, LIMIT,
                                 lambda: clean)[0]


@settings(max_examples=250, deadline=None)
@given(zoo=st.sampled_from(sorted(ZOOS)), target=target_databases(),
       data=st.data())
def test_kept_matches_equal_the_all_targets_loop(zoo, target, data):
    scorer = StandardMatch(matchers=ZOOS[zoo]())
    index = scorer.build_target_index(target)
    profile = data.draw(source_profiles(scorer.matchers))
    n = len(index.samples)
    positions = data.draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n - 1), min_size=1, unique=True).map(sorted)))
    reference = all_targets_reference(scorer, profile, index, positions)
    frontier = list(range(n)) if positions is None else positions
    matched = {_position(index, m) for m in reference}
    keep = data.draw(st.one_of(
        st.just([]),
        st.just(list(range(n))),
        st.just([i for i in frontier if i not in matched]),  # all abstain
        st.lists(st.integers(0, n - 1))))
    kept = set(keep)
    assert scorer.score_column_profile(
        profile, index, positions=positions, keep=keep) \
        == [m for m in reference if _position(index, m) in kept]
    assert scorer.score_column_profile(profile, index, positions=positions) \
        == reference


def test_abstaining_positions_yield_no_match():
    target = Database.from_relations("target", [Relation.infer_schema(
        "t", {"title": ["red", "blue"], "price": [1.5, 2.5]})])
    scorer = StandardMatch(matchers=ZOOS["qgram-numeric"]())
    index = scorer.build_target_index(target)
    relation = Relation.infer_schema("src", {"name": ["red", "green"]})
    profile = build_column_profile(
        "src", relation.schema.attribute("name"), relation.column("name"),
        scorer.matchers, LIMIT)
    price = index.positions[("t", "price")]
    assert scorer.score_column_profile(profile, index, keep=[price]) == []
    assert [m.target.attribute for m in scorer.score_column_profile(
        profile, index, keep=range(len(index.samples)))] == ["title"]


class TestTargetIndexPositions:
    def test_positions_name_every_sample(self):
        target = build_scenario(get_scenario("events").resized(40)).target
        index = StandardMatch().build_target_index(target)
        assert [index.positions[(s.table, s.name)]
                for s in index.samples] == list(range(len(index.samples)))

    def test_pickle_drops_and_rebuilds_positions(self):
        target = build_scenario(get_scenario("events").resized(40)).target
        index = StandardMatch().build_target_index(target)
        assert "positions" not in index.__getstate__()
        assert pickle.loads(pickle.dumps(index)).positions == index.positions


def _bits(x):
    return struct.pack("<d", x)


def _scored(match):
    return (match.source, match.target, _bits(match.score),
            _bits(match.confidence), match.evidence)


def _outputs(result):
    return ([(m.source, m.target, str(m.condition), _bits(m.score),
              _bits(m.confidence)) for m in result.matches],
            [(c.view.name, _scored(c.base_match), _scored(c.rescored),
              c.view_rows) for c in result.candidates],
            [(s.name, s.counts) for s in result.report.stages])


def test_text_columns_with_numeric_summaries_match_identically():
    """A prepared target pickled before text columns lost their numeric
    summaries (a store blob) still matches bit for bit: no matcher reads
    a text column's summary."""
    workload = build_scenario(get_scenario("retail").resized(150))
    for inference in ("src", "tgt"):
        engine = MatchEngine(ContextMatchConfig(inference=inference))
        prepared = engine.prepare(workload.target)
        index = prepared.index
        profiles = dict(index.profiles)
        profiles["numeric"] = [
            NumericSummary.from_values(s.values)
            if not s.attribute.dtype.is_numeric else p
            for s, p in zip(index.samples, profiles["numeric"])]
        # ISBN and ASIN codes are STRING columns of mostly digit texts.
        assert any(p is not None and not s.attribute.dtype.is_numeric
                   for s, p in zip(index.samples, profiles["numeric"]))
        # What such a blob unpickles as: the old profiles under today's
        # derived blocks.
        state = index.__getstate__()
        state["profiles"] = profiles
        old_index = TargetIndex.__new__(TargetIndex)
        old_index.__setstate__(state)
        old = pickle.loads(pickle.dumps(dataclasses.replace(
            prepared, index=old_index)))
        assert _outputs(engine.match(workload.source, old)) \
            == _outputs(engine.match(workload.source, prepared))
