"""Batch classifier core: bit-identity with the scalar paths.

The vectorized paths (compiled Naive Bayes, Gaussian batch, label-group
scorers) must reproduce the scalar teach/classify loops *exactly* — same
posterior floats, same tie-breaks, same labels — because the golden tier
compares the two pipeline modes with zero tolerance.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgram_reference import ReferenceNB
from repro.classifiers import (GaussianClassifier, MajorityClassifier,
                               NaiveBayesClassifier, TargetClassifierSet)
from repro.classifiers.significance import classifier_significance
from repro.context.candidates import FamilyAssessor
from repro.relational import Database, Relation, ViewFamily
from repro.relational.types import DataType


def bit_pattern(posteriors: dict) -> dict:
    """Posteriors with values replaced by their raw float bits — exact
    comparison that also treats equal NaNs as equal."""
    return {k: struct.pack("<d", v) for k, v in posteriors.items()}


def group_posteriors(scorer, members):
    """Per-value bit patterns of one label group's column."""
    column = scorer.column(members)
    return [struct.pack("<d", column.scores[row]) for row in scorer.rows]


def retrained_posteriors(classifier, group, values):
    """Per-value bit patterns of *group*'s posterior in a classifier
    re-taught with group labels (the scalar path)."""
    return [struct.pack("<d", classifier.log_posteriors(v)[group])
            for v in values]


def taught_nb(pairs, q=3, cls=NaiveBayesClassifier):
    nb = cls(q=q)
    for value, label in pairs:
        nb.teach(value, label)
    return nb


WORDS = ["garden", "kings", "war", "letters", "road", "castle",
         "groove", "soul", "neon", "rhythm", "velvet", "echo"]


def text_pairs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        label = ["A", "B", "C"][int(rng.integers(3))]
        words = [WORDS[int(rng.integers(len(WORDS)))] for _ in range(3)]
        pairs.append((" ".join(words) + f" {i % 23}", label))
    return pairs


class TestAccumulateIsSequential:
    """The compiled NB kernel's exactness rests on ``np.add.accumulate``
    performing a strictly sequential left-to-right reduction."""

    @given(st.lists(st.floats(min_value=-50.0, max_value=-1e-6),
                    min_size=1, max_size=300))
    @settings(max_examples=200)
    def test_accumulate_matches_python_sum(self, addends):
        sequential = addends[0]
        for addend in addends[1:]:
            sequential += addend
        assert float(np.add.accumulate(
            np.array(addends, dtype=np.float64))[-1]) == sequential

    def test_3d_accumulate_matches_2d(self):
        rng = np.random.default_rng(7)
        block = rng.uniform(-30.0, -0.1, size=(5, 4, 17))
        batched = np.add.accumulate(block.copy(), axis=2)[:, :, -1]
        for b in range(block.shape[0]):
            single = np.add.accumulate(block[b].copy(), axis=1)[:, -1]
            assert (batched[b] == single).all()


class TestNaiveBayesBatch:
    """The coded classifier against the string-token reference
    (``tests/qgram_reference.py``)."""

    def test_posteriors_bit_identical(self):
        nb = taught_nb(text_pairs())
        reference = taught_nb(text_pairs(), cls=ReferenceNB)
        probes = [v for v, _ in text_pairs(80, seed=1)] + [
            "", "unseen words entirely", 42, 3.5, True, None]
        scalar = [bit_pattern(reference.log_posteriors(v)) for v in probes]
        assert [bit_pattern(nb.log_posteriors(v)) for v in probes] == scalar

    def test_classify_identical(self):
        nb = taught_nb(text_pairs())
        reference = taught_nb(text_pairs(), cls=ReferenceNB)
        probes = [v for v, _ in text_pairs(120, seed=2)] + ["", None, 9]
        expected = [reference.classify(v) for v in probes]
        assert nb.classify_many(probes) == expected
        assert [nb.classify(v) for v in probes] == expected

    def test_untrained(self):
        nb = NaiveBayesClassifier()
        assert nb.classify_many(["a", "b"]) == [None, None]
        assert nb.log_posteriors("a") == {}

    def test_teach_invalidates_compiled(self):
        nb = taught_nb(text_pairs(50))
        first = nb.classify_many(["garden kings"])
        nb.teach("completely new evidence garden", "C")
        assert nb._compiled is None
        assert nb.classify_many(["x"]) == [nb.classify("x")]
        assert first is not None

    def test_teach_many_equals_teach_loop(self):
        pairs = text_pairs(150, seed=3)
        one = taught_nb(pairs)
        many = NaiveBayesClassifier()
        many.teach_many([v for v, _ in pairs], [l for _, l in pairs])
        probes = [v for v, _ in text_pairs(60, seed=4)]
        assert ([bit_pattern(one.log_posteriors(v)) for v in probes]
                == [bit_pattern(many.log_posteriors(v)) for v in probes])

    def test_regrouped_equals_retrained(self):
        """A label group's column from the taught statistics equals the
        posterior of a classifier re-taught with the group label."""
        pairs = text_pairs(200, seed=5)
        mapping = {"A": frozenset({"A", "B"}), "B": frozenset({"A", "B"}),
                   "C": frozenset({"C"})}
        probes = [v for v, _ in text_pairs(80, seed=6)] + ["zzz", "", None]
        taught = taught_nb(pairs)
        scorer = taught.group_scorer(probes)
        retrained = taught_nb([(v, mapping[l]) for v, l in pairs],
                              cls=ReferenceNB)
        assert scorer.labels == tuple(taught._label_counts)  # teach order
        for members in (["A", "B"], ["C"]):
            group = mapping[members[0]]
            assert (group_posteriors(scorer, members)
                    == retrained_posteriors(retrained, group, probes))
            assert (scorer.column(members).count
                    == retrained.label_counts[group])

    def test_batch_tie_break_matches_scalar(self):
        # Symmetric training data forces exact posterior ties.
        nb = NaiveBayesClassifier()
        reference = ReferenceNB()
        for label in ("x", "y", "y"):
            nb.teach("same text", label)
            reference.teach("same text", label)
        assert nb.classify_many(["same text", "other"]) == [
            nb.classify("same text"), nb.classify("other")] == [
            reference.classify("same text"), reference.classify("other")]


class TestGaussianBatch:
    def numeric_pairs(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n):
            label = ["lo", "mid", "hi"][int(rng.integers(3))]
            center = {"lo": 5.0, "mid": 20.0, "hi": 100.0}[label]
            pairs.append((float(rng.normal(center, 4.0)), label))
        return pairs

    def taught(self, pairs):
        g = GaussianClassifier()
        for value, label in pairs:
            g.teach(value, label)
        return g

    def test_posteriors_bit_identical(self):
        """Posteriors read through the cached fit equal those of a
        classifier fitting afresh for each probe."""
        pairs = self.numeric_pairs()
        g = self.taught(pairs)
        probes = [v for v, _ in self.numeric_pairs(60, seed=1)] + [
            "17.5", "garbage", None, 0, True]
        assert ([bit_pattern(g.log_posteriors(v)) for v in probes]
                == [bit_pattern(self.taught(pairs).log_posteriors(v))
                    for v in probes])

    def test_classify_identical_with_memo(self):
        g = self.taught(self.numeric_pairs())
        probes = [5.0, 5.0, 5.0, "not a number", 100.0, None]
        assert g.classify_many(probes) == [g.classify(v) for v in probes]

    def test_regrouped_equals_retrained_bitwise(self):
        """Merged value lists re-interleave by teach position, so the
        order-sensitive mean/variance sums match a retrain exactly."""
        pairs = self.numeric_pairs(250, seed=2)
        mapping = {"lo": frozenset({"lo", "mid"}),
                   "mid": frozenset({"lo", "mid"}),
                   "hi": frozenset({"hi"})}
        probes = [v for v, _ in self.numeric_pairs(50, seed=3)]
        scorer = self.taught(pairs).group_scorer(probes)
        retrained = self.taught([(v, mapping[l]) for v, l in pairs])
        for members in (["lo", "mid"], ["hi"]):
            group = mapping[members[0]]
            assert (group_posteriors(scorer, members)
                    == retrained_posteriors(retrained, group, probes))
            assert (scorer.column(members).count
                    == retrained._label_counts[group])

    def test_unparseable_values_keep_positions_aligned(self):
        pairs = [(1.0, "a"), ("junk", "a"), (2.0, "b"), (3.0, "a"),
                 (None, "b"), (4.0, "b")]
        probes = [2.5, "junk", None, 2.5, [1.0]]
        scorer = self.taught(pairs).group_scorer(probes)
        retrained = self.taught([(v, "ab") for v, _ in pairs])
        assert retrained._values["ab"] == [1.0, 2.0, 3.0, 4.0]
        column = scorer.column(["a", "b"])
        assert column.count == 4
        assert (struct.pack("<d", column.scores[scorer.rows[0]])
                == struct.pack("<d", retrained.log_posteriors(2.5)["ab"]))
        # Repeats share a row; unparseable values share the last one,
        # scored 0.0 so the tie rule falls back to the prior.
        assert scorer.rows[3] == scorer.rows[0]
        assert set(scorer.rows[[1, 2, 4]].tolist()) == {len(column.scores) - 1}
        assert column.scores[-1] == 0.0

    def test_reference_formula_unchanged(self):
        """The cached-terms fast path must reproduce the textbook
        per-value expression bit-for-bit."""
        g = self.taught(self.numeric_pairs(120, seed=4))
        fitted = g._fit()
        total = sum(g._label_counts.values())
        for value in (5.0, 19.75, 101.5):
            expected = {}
            for label, (mean, variance) in fitted.items():
                prior = g._label_counts[label] / total
                log_likelihood = (-0.5 * math.log(2.0 * math.pi * variance)
                                  - (value - mean) ** 2 / (2.0 * variance))
                expected[label] = math.log(prior) + log_likelihood
            assert bit_pattern(g.log_posteriors(value)) == bit_pattern(expected)


class TestMajorityRegroup:
    def test_regrouped_counts(self):
        """The assessor's ``CNaive`` baseline for a merged family sums the
        members' training counts: it equals a majority classifier
        re-taught with the group labels."""
        labels = ["a", "a", "b", "b", "c", "c", "c"]
        train = [(f"value {i}", label) for i, label in enumerate(labels)]
        test = [("value 0", "a"), ("value 2", "b"), ("value 6", "c")]
        family = ViewFamily.simple("t", "l", ["a", "b", "c"]).merge("a", "b")
        result = FamilyAssessor(NaiveBayesClassifier(), train,
                                test).assess(family)
        retaught = MajorityClassifier()
        for _, label in train:
            retaught.teach("v", family.group_label(label))
        assert retaught.majority_fraction == 4 / 7  # c alone: 3 / 7
        expected = classifier_significance(
            result.matrix.correct, len(test), retaught.majority_fraction)
        assert (struct.pack("<d", result.confidence)
                == struct.pack("<d", expected.confidence))


class TestTargetClassifierSetBatch:
    @pytest.fixture()
    def tagger(self):
        target = Database.from_relations("T", [
            Relation.infer_schema("book", {
                "title": ["the lost road", "garden of kings",
                          "hidden letters", "a winter journey"],
                "price": [10.0, 12.5, 9.0, 20.0],
            }),
            Relation.infer_schema("cd", {
                "name": ["electric groove", "midnight soul",
                         "neon parade", "velvet echo"],
                "price": [15.0, 14.0, 16.5, 13.0],
            }),
        ])
        return TargetClassifierSet.train(target)

    def test_classify_many_matches_scalar(self, tagger):
        values = ["garden road", "velvet groove", None, "", 11.0,
                  "the lost road", "nan"]
        text = DataType.STRING
        assert tagger.classify_many(values, text) == [
            tagger.classify(v, text) for v in values]
        numeric = DataType.FLOAT
        assert tagger.classify_many([10.5, None, "x"], numeric) == [
            tagger.classify(v, numeric) for v in [10.5, None, "x"]]

    def test_unknown_family_yields_nones(self, tagger):
        boolean = DataType.BOOLEAN
        if tagger.classifier_for(boolean) is None:
            assert tagger.classify_many([True, False], boolean) == [None, None]

    def test_train_thinning_matches_legacy_formula(self):
        values = [f"value {i}" for i in range(50)]
        target = Database.from_relations("T", [
            Relation.infer_schema("t", {"a": values})])
        limited = TargetClassifierSet.train(target, sample_limit=7)
        full = TargetClassifierSet.train(target)
        step = len(values) / 7
        expected = [values[int(i * step)] for i in range(7)]
        nb = limited.classifier_for(DataType.STRING)
        assert sum(nb._label_counts.values()) == len(expected)
        assert full.classifier_for(DataType.STRING)._examples == 50
