"""Unit tests for candidate-view inference (NaiveInfer, ClusteredViewGen,
SrcClassInfer, TgtClassInfer, early-disjunct merging)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infer_reference import assess_family
from repro.context import (ContextMatchConfig, InferenceContext, NaiveInfer,
                           SrcClassInfer, TgtClassInfer, make_generator,
                           set_partitions)
from repro.classifiers import NaiveBayesClassifier
from repro.matching.standard import AttributeMatch
from repro.relational import Database, Relation, ViewFamily
from repro.relational.schema import AttributeRef


def make_ctx(target_db=None, *, early=False, seed=3, **config_kwargs):
    config = ContextMatchConfig(early_disjuncts=early, seed=seed,
                                **config_kwargs)
    if target_db is None:
        target_db = Database.from_relations(
            "T", [Relation.infer_schema("t", {"x": ["a", "b"]})])
    return InferenceContext(config=config,
                            rng=np.random.default_rng(seed),
                            target=target_db)


def dummy_match(table="items"):
    return AttributeMatch(source=AttributeRef(table, "a"),
                          target=AttributeRef("t", "x"),
                          score=0.9, confidence=0.9)


@pytest.fixture()
def two_class_relation(rng) -> Relation:
    """Text attribute cleanly classified by a categorical label.

    Titles carry a unique numeric suffix so the text attribute itself does
    not trip the categorical test (its values must be near-distinct).
    """
    books = ["garden of kings", "hidden war letters", "the lost road",
             "shadow of the castle", "a winter journey"]
    cds = ["electric groove", "midnight soul", "neon static parade",
           "supersonic rhythm", "velvet echo"]
    names, labels = [], []
    for i in range(120):
        if rng.random() < 0.5:
            names.append(f"{books[int(rng.integers(5))]} {i}")
            labels.append("B")
        else:
            names.append(f"{cds[int(rng.integers(5))]} {i}")
            labels.append("C")
    return Relation.infer_schema("items", {"a": names, "label": labels})


class TestSetPartitions:
    @pytest.mark.parametrize("n,bell", [(0, 1), (1, 1), (2, 2), (3, 5),
                                        (4, 15), (5, 52)])
    def test_bell_numbers(self, n, bell):
        assert len(list(set_partitions(list(range(n))))) == bell

    @given(st.integers(1, 5))
    @settings(max_examples=10)
    def test_each_partition_covers_all(self, n):
        values = list(range(n))
        for blocks in set_partitions(values):
            flat = sorted(v for block in blocks for v in block)
            assert flat == values


class TestNaiveInfer:
    def test_empty_matches_yield_nothing(self, two_class_relation):
        ctx = make_ctx()
        assert NaiveInfer().infer(two_class_relation, [], ctx) == []

    def test_simple_families(self, two_class_relation):
        ctx = make_ctx(early=False)
        families = NaiveInfer().infer(two_class_relation, [dummy_match()],
                                      ctx)
        assert len(families) == 1
        family = families[0]
        assert family.attribute == "label"
        assert len(family.groups) == 2

    def test_early_enumerates_partitions(self):
        relation = Relation.infer_schema("items", {
            "a": [f"w{i}" for i in range(40)],
            "label": (["p"] * 10 + ["q"] * 10 + ["r"] * 10 + ["s"] * 10),
        })
        ctx = make_ctx(early=True)
        families = NaiveInfer().infer(relation, [dummy_match()], ctx)
        # Bell(4)=15 partitions minus the all-in-one and all-singletons,
        # plus the base family.
        assert len(families) == 1 + (15 - 2)

    def test_exclusion(self, two_class_relation):
        ctx = make_ctx()
        families = NaiveInfer().infer(two_class_relation, [dummy_match()],
                                      ctx,
                                      exclude_attributes=frozenset({"label"}))
        assert families == []


class TestAssessFamily:
    def test_correlated_family_significant(self, two_class_relation, rng):
        family = ViewFamily.simple("items", "label", ["B", "C"])
        pairs = list(zip(two_class_relation.column("a"),
                         two_class_relation.column("label")))
        result = assess_family(family, NaiveBayesClassifier(),
                               pairs[:60], pairs[60:])
        assert result.significant(0.95)

    def test_random_family_not_significant(self, rng):
        values = [f"text {i % 7}" for i in range(120)]
        labels = [("X" if rng.random() < 0.5 else "Y") for _ in range(120)]
        family = ViewFamily.simple("items", "label", ["X", "Y"])
        pairs = list(zip(values, labels))
        result = assess_family(family, NaiveBayesClassifier(),
                               pairs[:60], pairs[60:])
        assert not result.significant(0.95)


class TestSrcClassInfer:
    def test_finds_correlated_family(self, two_class_relation):
        ctx = make_ctx()
        families = SrcClassInfer().infer(two_class_relation,
                                         [dummy_match()], ctx)
        assert any(f.attribute == "label" and len(f.groups) == 2
                   for f in families)

    def test_rejects_uncorrelated_label(self, rng):
        relation = Relation.infer_schema("items", {
            "a": [f"uncorrelated text {int(rng.integers(1000))}"
                  for _ in range(120)],
            "label": [("X" if rng.random() < 0.5 else "Y")
                      for _ in range(120)],
        })
        ctx = make_ctx()
        assert SrcClassInfer().infer(relation, [dummy_match()], ctx) == []

    def test_early_disjuncts_merges_confused_values(self, rng):
        """Four labels, pairwise indistinguishable within two superclasses:
        the merge loop must produce the two-group family."""
        books = ["garden of kings", "hidden war letters", "the lost road"]
        cds = ["electric groove", "midnight soul", "neon static parade"]
        names, labels = [], []
        for i in range(200):
            if rng.random() < 0.5:
                names.append(f"{books[int(rng.integers(3))]} {i}")
                labels.append("B1" if rng.random() < 0.5 else "B2")
            else:
                names.append(f"{cds[int(rng.integers(3))]} {i}")
                labels.append("C1" if rng.random() < 0.5 else "C2")
        relation = Relation.infer_schema("items", {"a": names,
                                                   "label": labels})
        ctx = make_ctx(early=True)
        families = SrcClassInfer().infer(relation, [dummy_match()], ctx)
        merged = [f for f in families
                  if frozenset({"B1", "B2"}) in f.groups
                  and frozenset({"C1", "C2"}) in f.groups]
        assert merged, "expected the {B1,B2}|{C1,C2} family to be inferred"

    def test_tiny_relation_skipped(self):
        relation = Relation.infer_schema("items", {"a": ["x", "y"],
                                                   "label": ["p", "q"]})
        ctx = make_ctx()
        assert SrcClassInfer().infer(relation, [dummy_match()], ctx) == []


class TestTgtClassInfer:
    def test_finds_family_via_target_tags(self, two_class_relation):
        book = Relation.infer_schema("book", {
            "title": ["garden of kings", "hidden war letters",
                      "the lost road", "a winter journey"] * 3})
        music = Relation.infer_schema("music", {
            "title": ["electric groove", "midnight soul",
                      "velvet echo", "supersonic rhythm"] * 3})
        target = Database.from_relations("T", [book, music])
        ctx = make_ctx(target)
        families = TgtClassInfer().infer(two_class_relation,
                                         [dummy_match()], ctx)
        assert any(f.attribute == "label" for f in families)

    def test_tag_cache_shared(self, two_class_relation):
        target = Database.from_relations("T", [Relation.infer_schema(
            "book", {"title": ["garden of kings", "war letters"] * 4})])
        ctx = make_ctx(target)
        TgtClassInfer().infer(two_class_relation, [dummy_match()], ctx)
        assert len(ctx.tag_cache) > 0


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("naive", NaiveInfer), ("src", SrcClassInfer),
        ("tgt", TgtClassInfer)])
    def test_known_kinds(self, kind, cls):
        assert isinstance(make_generator(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_generator("bogus")
