"""View blocks against the per-view reference (``score_reference``).

``score_relation_candidates`` profiles the unseen member views of a
relation's families per (partition attribute, source attribute) block
and scores each block against the attribute's frontier in one call per
matcher.  Hypothesis draws relations with text, numeric, missing,
``None``, bool and NaN values, partition attributes with singleton and
merged groups (some above the sample limit, so thinned and never
composed; some below ``min_view_rows``), random frontiers and prototype
matches, and matcher zoos with and without block kernels.  The block path
must equal the view-by-view reference exactly: the candidates with every
evidence float bit, every cached profile, the five store counters and the
frontier's pair tallies.
"""

from __future__ import annotations

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context.score import score_relation_candidates
from repro.matching import (AttributeMatch, Matcher, NameMatcher,
                            NumericMatcher, QGramMatcher, StandardMatch,
                            StandardMatchConfig, TypeMatcher,
                            ValueOverlapMatcher, default_matchers)
from repro.profiling import ProfileStore
from repro.relational import Database, Relation, ViewFamily
from repro.relational.schema import AttributeRef
from repro.retrieval import ScoringFrontier
from score_reference import ReferenceStore, score_families


class SizeMatcher(Matcher):
    """A matcher without block kernels whose applicability depends on
    the sample size: it abstains below three source values."""

    name = "size"
    weight = 0.75

    def applicable(self, source, target):
        return len(source) >= 3 and len(target) > 0

    def profile(self, sample):
        return len(sample)

    def score_profiles(self, source, target):
        return 1.0 / (1.0 + abs(source - target))


class ShapeMatcher(Matcher):
    """An additive matcher without block kernels: the set of value
    classes in the sample."""

    name = "shape"
    mergeable = True

    def profile(self, sample):
        return frozenset(type(v).__name__ for v in sample.values)

    def merge_profiles(self, profiles):
        return frozenset().union(*profiles)

    def score_profiles(self, source, target):
        union = source | target
        return len(source & target) / len(union) if union else 0.0


#: Matcher zoos: the default one; the default one without names; custom
#: matchers beside kernel matchers; every matcher additive (merged
#: profiles compose without a sample); custom matchers only.
ZOOS = {
    "default": default_matchers,
    "nameless": lambda: [m for m in default_matchers() if m.name != "name"],
    "custom": lambda: [SizeMatcher(), QGramMatcher(weight=1.5),
                       ShapeMatcher(), NumericMatcher()],
    "additive": lambda: [NameMatcher(), QGramMatcher(),
                         ValueOverlapMatcher(), TypeMatcher()],
    "no-kernels": lambda: [SizeMatcher(), ShapeMatcher()],
}

WORDS = ["red", "blue", "green", "alpha", "beta", "x1", "Red", "  ", "n/a"]
PARTS = ["a", "b", "c", "d", "e", 1, 2]


def _values(kind: str, n: int):
    kinds = {
        "text": st.sampled_from(WORDS),
        "int": st.integers(-30, 30),
        "float": st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                           st.just(math.nan)),
        "bool": st.booleans(),
        "mixed": st.one_of(st.sampled_from(WORDS), st.integers(-3, 3),
                           st.booleans(), st.floats(allow_nan=True,
                                                    allow_infinity=True)),
        "missing": st.none(),
    }
    return st.lists(st.one_of(kinds[kind], st.none()), min_size=n,
                    max_size=n)


@st.composite
def relations(draw):
    n = draw(st.integers(1, 30))
    columns = {
        "part": draw(st.lists(st.one_of(st.sampled_from(PARTS[:5]),
                                        st.none()),
                              min_size=n, max_size=n)),
        "kind": draw(st.lists(st.sampled_from(PARTS[5:]), min_size=n,
                              max_size=n)),
    }
    for c in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["text", "int", "float", "bool",
                                     "mixed", "missing"]))
        columns[f"c{c}"] = draw(_values(kind, n))
    return Relation.infer_schema("src", columns)


@st.composite
def targets(draw):
    relations_ = []
    for t in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 6))
        columns = {f"t{t}{c}": draw(_values(kind, n)) for c, kind in
                   enumerate(draw(st.lists(st.sampled_from(
                       ["text", "int", "float", "missing"]),
                       min_size=1, max_size=4)))}
        relations_.append(Relation.infer_schema(f"t{t}", columns))
    return Database.from_relations("target", relations_)


@st.composite
def families(draw, attribute: str, values):
    """A plain family over *values* (possibly naming absent values) and
    some merged variants of it, which share its untouched singletons."""
    values = draw(st.lists(st.sampled_from(values), min_size=1,
                           unique=True))
    family = ViewFamily.simple("src", attribute, values)
    out = [family]
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        family = family.merge(a, b)
        out.append(family)
    return draw(st.permutations(out))


@st.composite
def cases(draw):
    relation = draw(relations())
    target = draw(targets())
    zoo = draw(st.sampled_from(sorted(ZOOS)))
    limit = draw(st.sampled_from([2, 3, 5, 400]))
    scorer = StandardMatch(StandardMatchConfig(sample_limit=limit),
                           matchers=ZOOS[zoo]())
    index = scorer.build_target_index(target)
    refs = index.refs()
    attrs = [a.name for a in relation.schema]
    accepted = [AttributeMatch(source=AttributeRef("src", draw(
                    st.sampled_from(attrs))),
                    target=draw(st.sampled_from(refs)), score=0.5,
                    confidence=draw(st.floats(0, 1)))
                for _ in range(draw(st.integers(0, 6)))]
    fams = draw(families("part", PARTS[:5]))
    if draw(st.booleans()):
        fams = fams + draw(families("kind", PARTS[5:]))
    n = len(refs)
    frontier = draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(attrs),
        st.lists(st.integers(0, n - 1), min_size=1, unique=True)
        .map(sorted))))
    return (relation, index, scorer, accepted, fams, frontier,
            draw(st.integers(1, 4)))


def _bits(x):
    return struct.pack("<d", x)


def _scored(match):
    return (match.source, match.target, _bits(match.score),
            _bits(match.confidence),
            tuple((e.matcher, _bits(e.weight), _bits(e.raw_score),
                   _bits(e.confidence)) for e in match.evidence))


def _key(candidate):
    return (candidate.view.name, candidate.family.attribute,
            _scored(candidate.base_match), _scored(candidate.rescored),
            candidate.view_rows)


def _frontier(n, positions):
    return None if positions is None else ScoringFrontier(n, positions)


@settings(max_examples=300, deadline=None)
@given(cases(), st.data())
def test_blocks_equal_the_per_view_reference(case, data):
    relation, index, scorer, accepted, fams, positions, min_rows = case
    n = len(index.samples)
    store = ProfileStore(scorer.matchers, scorer.config.sample_limit)
    reference = ReferenceStore(scorer.matchers, scorer.config.sample_limit)
    # Two rounds over one store: the second finds every profile cached.
    for _ in range(2):
        frontier = _frontier(n, positions)
        expected_frontier = _frontier(n, positions)
        split = data.draw(st.integers(0, len(fams)))
        seen: set = set()
        got = []
        for part in (fams[:split], fams[split:]):
            got += score_relation_candidates(
                part, relation, accepted, scorer, index,
                min_view_rows=min_rows, seen_views=seen, store=store,
                frontier=frontier)
        expected = score_families(fams, relation, accepted, scorer.matchers,
                                  index, reference, min_view_rows=min_rows,
                                  frontier=expected_frontier)
        assert [_key(c) for c in got] == [_key(c) for c in expected]
        assert store._profiles == reference._profiles
        assert store.counters() == reference.counters()
        if frontier is not None:
            assert frontier.counts() == expected_frontier.counts()


@settings(max_examples=200, deadline=None)
@given(relations(), st.sampled_from(sorted(ZOOS)),
       st.sampled_from([2, 3, 400]), st.data())
def test_view_profiles_equal_one_view_at_a_time(relation, zoo, limit,
                                                data):
    """Groups in any order, repeated, merged or naming absent values."""
    matchers = ZOOS[zoo]()
    store = ProfileStore(matchers, limit)
    reference = ReferenceStore(matchers, limit)
    group = st.frozensets(st.sampled_from(PARTS[:5]), min_size=1)
    for attr_name in data.draw(st.lists(
            st.sampled_from([a.name for a in relation.schema]),
            min_size=1, max_size=3)):
        groups = data.draw(st.lists(group, max_size=8))
        got = store.view_profiles(relation, "part", groups, attr_name)
        expected = [reference.view_profile(relation, "part", g, attr_name)
                    for g in groups]
        assert got == expected
        assert store._profiles == reference._profiles
        assert store.counters() == reference.counters()
