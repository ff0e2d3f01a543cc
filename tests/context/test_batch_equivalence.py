"""Vectorized-vs-retraining inference equivalence.

The FamilyAssessor's coded merge loop (group codes, one new score column
per merge), the compiled Naive Bayes kernel, batch target tagging and the
batched Gaussian must give the posteriors, tags, tie-breaks and candidate
families that re-teaching a fresh classifier per family gives, bit for
bit.  Pinned here at three levels:

* unit — :class:`FamilyAssessor` against the retraining reference
  (``tests/infer_reference.py``) on synthetic data, on random merge
  sequences and on whole ``_pair_families`` trajectories (Hypothesis);
  the coded merge-pair choice against ``top_error_pair``; and
  ``_TgtTagClassifier`` batch teach against scalar teach;
* engine — full pipeline runs on a handful of scenarios (tier 1), against
  a reference run whose assessor re-teaches per family
  (:class:`RetrainingAssessor`);
* grid — every registered scenario, engine artifacts plus classifier-level
  posterior/tag sweeps (``pytest -m golden``, alongside the golden tier).
"""

import copy
import dataclasses
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from infer_reference import assess_family, reference_families
from repro.classifiers import (GaussianClassifier, NaiveBayesClassifier,
                               TargetClassifierSet)
from repro.context import ContextMatchConfig, InferenceContext, candidates
from repro.context.candidates import FamilyAssessor, _TgtTagClassifier
from repro.datagen import build_scenario, registered_scenarios, scenario_names
from repro.engine import MatchEngine
from repro.evaluation.scenarios import scenario_config
from repro.relational import Database, Relation, ViewFamily
from repro.relational.types import DataType

#: (scenario, inference) runs exercised in tier 1 (one scenario per family
#: keeps the run fast; every registered scenario runs ``src``, so retail
#: also runs ``tgt``, the CLI's and ``repro serve``'s default); the
#: golden-marked grid covers all registered scenarios.
TIER1_RUNS = (pytest.param("retail", None, id="retail"),
              pytest.param("grades", None, id="grades"),
              pytest.param("clinical", None, id="clinical"),
              pytest.param("retail", "tgt", id="retail-tgt"))


def engine_artifacts(result):
    """Everything inference influences, in comparable (exact) form."""
    return {
        "matches": [(str(m.source), str(m.target), str(m.condition),
                     struct.pack("<d", m.score),
                     struct.pack("<d", m.confidence))
                    for m in result.matches],
        "standard": [(m.key(), struct.pack("<d", m.score),
                      struct.pack("<d", m.confidence))
                     for m in result.standard_matches],
        "families": sorted(
            (f.table, f.attribute,
             tuple(sorted(tuple(sorted(map(repr, g))) for g in f.groups)),
             struct.pack("<d", f.quality))
            for f in result.families),
        "candidates": [(c.view.name, c.base_match.key(),
                        struct.pack("<d", c.rescored.confidence),
                        c.view_rows)
                       for c in result.candidates],
    }


class RetrainingAssessor:
    """:class:`FamilyAssessor` stand-in for the reference run: every family
    re-teaches a deep copy of the fresh classifier through
    :func:`assess_family`, and :func:`reference_families` walks the merge
    loop over ``ViewFamily`` objects — the per-family retrain of Figure
    6, with no statistics regrouping.  It counts the assessments in
    *stats* as the coded assessor does."""

    def __init__(self, classifier, train_pairs, test_pairs, *, stats=None):
        self._fresh = copy.deepcopy(classifier)
        self._train_pairs = list(train_pairs)
        self._test_pairs = list(test_pairs)
        self._stats = stats

    def assess(self, family, merged):
        if self._stats is not None:
            self._stats.batch_calls += 1
            self._stats.values_classified += len(self._test_pairs)
            self._stats.merges_without_retrain += merged
        return assess_family(family, copy.deepcopy(self._fresh),
                             self._train_pairs, self._test_pairs)

    def families(self, family, *, threshold, early_disjuncts):
        return reference_families(family, self.assess, threshold=threshold,
                                  early_disjuncts=early_disjuncts)


def run_modes(name, monkeypatch, inference=None):
    """The default engine's result and the retraining reference's, keyed
    ``"batch"`` and ``"retrain"``; *inference* overrides the scenario's
    generator."""
    workload = build_scenario(name)
    config = scenario_config(next(s for s in registered_scenarios()
                                  if s.name == name))
    if inference is not None:
        config = dataclasses.replace(config, inference=inference)

    def run():
        engine = MatchEngine(config)
        return engine.match(workload.source, engine.prepare(workload.target))

    results = {"batch": run()}
    with monkeypatch.context() as patch:
        patch.setattr(candidates, "FamilyAssessor", RetrainingAssessor)
        results["retrain"] = run()
    return results


class TestFamilyAssessorUnit:
    @pytest.fixture()
    def pairs(self, rng):
        words = ["garden", "kings", "war", "road", "castle", "groove"]
        pairs = []
        for i in range(160):
            label = ["p", "q", "r"][int(rng.integers(3))]
            text = " ".join(words[int(rng.integers(6))] for _ in range(3))
            pairs.append((f"{text} {i % 13}", label))
        return pairs

    def test_matches_assess_family_for_every_grouping(self, pairs):
        train, test = pairs[:100], pairs[100:]
        base = ViewFamily.simple("t", "label", ["p", "q", "r"])
        merged = base.merge("p", "q")
        assessor = FamilyAssessor(NaiveBayesClassifier(), train, test)
        for family in (base, merged, merged.merge("p", "r")):
            batch = assessor.assess(family)
            legacy = assess_family(family, NaiveBayesClassifier(),
                                   train, test)
            assert batch.matrix.counts == legacy.matrix.counts
            assert struct.pack("<d", batch.confidence) == struct.pack(
                "<d", legacy.confidence)

    def test_rejects_non_regroupable_classifiers(self, pairs):
        from repro.classifiers.base import Classifier

        class Opaque(Classifier):
            def teach(self, value, label):  # pragma: no cover - stub
                pass

            def classify(self, value):  # pragma: no cover - stub
                return None

            @property
            def labels(self):  # pragma: no cover - stub
                return frozenset()

        with pytest.raises(TypeError):
            FamilyAssessor(Opaque(), pairs[:10], pairs[10:20])

    def test_stats_counters(self, pairs):
        from repro.context import InferenceStats

        stats = InferenceStats()
        train, test = pairs[:100], pairs[100:]
        base = ViewFamily.simple("t", "label", ["p", "q", "r"])
        assessor = FamilyAssessor(NaiveBayesClassifier(), train, test,
                                  stats=stats)
        assessor.assess(base)
        assessor.assess(base.merge("p", "q"), merged=True)
        assert stats.batch_calls == 2
        assert stats.values_classified == 2 * len(test)
        assert stats.merges_without_retrain == 1


WORDS = ["garden", "road", "kings", "neon", "soul", "war"]
NAN, INF = float("nan"), float("inf")

#: Text h-values: word phrases (repeats are likely), odd scalars, NaN and
#: ±inf, and unhashable lists.
TEXT_VALUES = st.one_of(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
    st.sampled_from(["", "nan", None, 7, 2.5, True, NAN, INF, -INF]),
    st.lists(st.sampled_from(WORDS), max_size=2))

#: Numeric h-values: repeating small floats (so constant groups occur),
#: NaN and ±inf, huge magnitudes whose squared spread leaves float range,
#: numeric and unparseable strings, None, bools and unhashable lists.
NUMERIC_VALUES = st.one_of(
    st.integers(-6, 6).map(float),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([NAN, INF, -INF, "12.5", "nan", "-inf", "abc", "",
                     None, True, 0, -0.0]),
    st.sampled_from([1e200, -1e200, 1e160, 1.7e308, "1e200"]),
    st.lists(st.floats(min_value=-5, max_value=5), max_size=1))

LABELS = st.sampled_from(["p", "q", "r", "s"])


def tagger_target():
    return Database.from_relations("T", [
        Relation.infer_schema("book", {
            "title": ["the lost road", "garden of kings", "hidden war"]}),
        Relation.infer_schema("cd", {
            "name": ["electric soul", "neon parade", "soul war"]}),
    ])


#: One tagger for every example: training it is the slow part, and
#: tagging is a pure function of (tagger, value).
TAGGER = TargetClassifierSet.train(tagger_target())

CLASSIFIERS = {
    "nb": (TEXT_VALUES, NaiveBayesClassifier),
    "gaussian": (NUMERIC_VALUES, GaussianClassifier),
    "tgt": (TEXT_VALUES,
            lambda: _TgtTagClassifier(TAGGER, DataType.STRING)),
}


def outcome(assess):
    """Confusion cells (in recording order) and confidence bits of one
    assessment, or the arithmetic error type it raised."""
    try:
        result = assess()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return (list(result.matrix.counts.items()),
            struct.pack("<d", result.confidence))


class TestIncrementalMerges:
    """Random taught pairs and random merge sequences: at every step the
    assessor's confusion matrix and confidence equal :func:`assess_family`
    run on a fresh classifier.  Labels include test-only values and a
    group (``"u"``) with no rows at all."""

    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_merge_step_matches_assess_family(self, kind, data):
        values, make = CLASSIFIERS[kind]
        pairs = st.tuples(values, LABELS)
        train = data.draw(st.lists(pairs, min_size=2, max_size=30))
        test = data.draw(st.lists(pairs, min_size=1, max_size=25))
        merges = data.draw(st.lists(st.tuples(st.integers(0, 9),
                                              st.integers(0, 9)),
                                    max_size=6))
        labels = {label for _, label in train + test} | {"u"}
        family = ViewFamily.simple("t", "l", sorted(labels))
        assessor = FamilyAssessor(make(), train, test)
        steps = [family]
        for a, b in merges:
            groups = family.groups
            if len(groups) < 2 or a % len(groups) == b % len(groups):
                continue
            family = family.merge(next(iter(groups[a % len(groups)])),
                                  next(iter(groups[b % len(groups)])))
            steps.append(family)
        for step, family in enumerate(steps):
            expected = outcome(lambda: assess_family(family, make(), train,
                                                     test))
            assert outcome(lambda: assessor.assess(
                family, merged=step > 0)) == expected, (step, family)
            if not isinstance(expected, tuple):
                break  # both raised: the fit has no finite posterior

    def test_nan_beside_an_overflowing_label_raises_alike(self):
        """A NaN made the variance floor NaN, so the assessor's column of
        the constant group "r" reached ``math.log(0)`` (ValueError) before
        the retrain's fit of "p" overflowed (OverflowError)."""
        train = [(NAN, "q"), (0.0, "r"), (0.0, "p"), (1e200, "p")]
        test = [(0.0, "p")]
        family = ViewFamily.simple("t", "l", ["p", "q", "r", "u"])
        expected = outcome(lambda: assess_family(
            family, GaussianClassifier(), train, test))
        assert expected is OverflowError
        assert outcome(lambda: FamilyAssessor(
            GaussianClassifier(), train, test).assess(family)) is expected


class _Twin:
    """A label whose ``repr`` collides with its twin's (equality is
    identity), so only label order can break a tie between the two."""

    def __repr__(self) -> str:
        return "twin"


class TestTieOrder:
    def test_tgt_ties_follow_bestcat_candidate_order(self):
        """``bestCAT`` breaks a full tie (score, count and ``repr``) by the
        order in which the groups first met the tag, not by label order:
        here ``second`` is taught first but meets the tag last."""
        first, second = _Twin(), _Twin()
        train = [("neon parade", first), ("garden kings", second),
                 ("garden kings", first), ("neon parade", second)]
        test = [("garden kings", first), ("neon parade", second)]
        _, make = CLASSIFIERS["tgt"]
        tags = make()._tag_many(["garden kings", "neon parade"])
        assert tags[0] != tags[1]
        family = ViewFamily("t", "l", [[first], [second]])
        expected = assess_family(family, make(), train, test)
        result = FamilyAssessor(make(), train, test).assess(family)
        assert (list(result.matrix.counts.items())
                == list(expected.matrix.counts.items()))
        assert expected.matrix.correct == 0  # the tag order decided both


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: Group labels for the merge-pair property: plain and merged groups, and
#: ``_Twin`` groups whose label keys collide, so that only test order can
#: break a tie between pairs that differ in one twin.
TWINS = [frozenset({_Twin()}), frozenset({_Twin()})]
OTHER_GROUPS = [frozenset({"a"}), frozenset({"b", "c"}),
                frozenset({_Twin(), "e"}), frozenset({_Twin(), "e"})]


def coded_and_reference(groups, rows):
    """(coded pair as groups, ``top_error_pair``) over *rows* of (truth,
    predicted) group codes, plus the tally and the recorded matrix."""
    from repro.classifiers.base import label_key
    from repro.classifiers.metrics import ConfusionMatrix, top_error_pair

    n = len(groups)
    tally = candidates._Tally(
        np.array([t * (n + 1) + p for t, p in rows], dtype=np.intp), n)
    matrix = ConfusionMatrix()
    for t, p in rows:
        matrix.record(groups[t], groups[p] if p < n else None)
    pair = tally.top_pair(lambda g: label_key(groups[g]))
    coded = None if pair is None else frozenset(groups[g] for g in pair)
    return coded, top_error_pair(matrix), tally, matrix


class TestCodedMergePair:
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_top_pair_equals_top_error_pair(self, data):
        """Random truth and predicted group codes (code ``n`` is the
        no-prediction column): the coded choice, the correct count and
        the lazily built matrix equal ``ConfusionMatrix`` and
        ``top_error_pair`` recorded row by row."""
        extra = data.draw(st.lists(st.sampled_from(OTHER_GROUPS),
                                   unique=True, max_size=4))
        groups = data.draw(st.permutations(TWINS + extra))
        n = len(groups)
        rows = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n)),
                                  min_size=1, max_size=12))
        coded, expected, tally, matrix = coded_and_reference(groups, rows)
        assert coded == expected
        assert tally.correct == matrix.correct
        assert (list(tally.matrix(groups).counts.items())
                == list(matrix.counts.items()))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_colliding_keys_follow_test_order(self, order):
        """(twin, a) and (twin', a) tie in count and in label keys: the
        pair whose error occurs first in the test set is merged."""
        groups = [*TWINS, frozenset({"a"})]
        first, second = order
        rows = [(2, 2), (first, 2), (second, 2), (first, first),
                (second, second)]
        coded, expected, _, _ = coded_and_reference(groups, rows)
        assert coded == expected == frozenset({groups[first], groups[2]})


class TestTrajectories:
    """Whole ``_pair_families`` runs on random taught pairs: the families
    yielded (groups in order), their quality and confidence bits and the
    :class:`~repro.context.InferenceStats` counts equal the retraining
    reference's, or both raise the same arithmetic error."""

    @staticmethod
    def trajectory(kind, assessor, base, train, test, threshold, early):
        generator = (candidates.TgtClassInfer() if kind == "tgt"
                     else candidates.SrcClassInfer())
        dtype = DataType.FLOAT if kind == "gaussian" else DataType.STRING
        config = ContextMatchConfig(inference=generator.name,
                                    significance_threshold=threshold,
                                    early_disjuncts=early)
        ctx = InferenceContext(config=config, rng=np.random.default_rng(0),
                               target=tagger_target(),
                               classifiers=lambda: TAGGER)
        if kind == "tgt":
            # Tag every value up front, so neither side counts tagging.
            _TgtTagClassifier(TAGGER, dtype, tag_cache=ctx.tag_cache
                              )._tag_many([value for value, _ in train + test])
        with mock.patch.object(candidates, "FamilyAssessor", assessor):
            try:
                found = generator._pair_families(base, train, test, dtype,
                                                 ctx)
            except (ArithmeticError, ValueError) as exc:
                return type(exc)
        return ([(family.groups, _bits(family.quality), _bits(confidence))
                 for family, confidence in found], ctx.stats.as_counts())

    @pytest.mark.parametrize("kind", sorted(CLASSIFIERS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_pair_families_equal_the_retraining_reference(self, kind, data):
        values, _ = CLASSIFIERS[kind]
        pairs = st.tuples(values, LABELS)
        train = data.draw(st.lists(pairs, min_size=2, max_size=30))
        test = data.draw(st.lists(pairs, min_size=1, max_size=25))
        threshold = data.draw(st.sampled_from([0.0, 0.5, 0.95]))
        early = data.draw(st.booleans())
        labels = {label for _, label in train + test} | {"u"}
        base = ViewFamily.simple("t", "l", sorted(labels))
        args = (base, train, test, threshold, early)
        coded = self.trajectory(kind, FamilyAssessor, *args)
        assert coded == self.trajectory(kind, RetrainingAssessor, *args)


class TestTgtTagClassifierBatch:
    @pytest.fixture()
    def parts(self):
        target = Database.from_relations("T", [
            Relation.infer_schema("book", {
                "title": ["the lost road", "garden of kings",
                          "hidden letters"]}),
            Relation.infer_schema("cd", {
                "name": ["electric groove", "midnight soul",
                         "neon parade"]}),
        ])
        config = ContextMatchConfig()
        ctx = InferenceContext(config=config,
                               rng=np.random.default_rng(0), target=target)
        values = ["garden road", "midnight groove", "lost kings",
                  "neon echo", "garden road", None]
        labels = ["x", "y", "x", "y", "x", "y"]
        return ctx, values, labels

    def test_batch_teach_equals_scalar_teach(self, parts):
        ctx, values, labels = parts
        dtype = DataType.STRING
        scalar = _TgtTagClassifier(ctx.target_classifiers, dtype,
                                   tag_cache=ctx.tag_cache)
        for value, label in zip(values, labels):
            scalar.teach(value, label)
        batch = _TgtTagClassifier(ctx.target_classifiers, dtype,
                                  tag_cache=ctx.tag_cache)
        batch.teach_many(values, labels)
        assert scalar._tbag == batch._tbag
        assert scalar._label_counts == batch._label_counts
        assert scalar._tag_counts == batch._tag_counts
        probes = values + ["entirely new probe"]
        assert batch.classify_many(probes) == [scalar.classify(v)
                                               for v in probes]

    def test_best_cat_memoized_until_teach(self, parts):
        """Regression: ``_best_cat`` must be computed once per teach
        generation — classify calls reuse the memo, batch teach
        invalidates exactly once."""
        ctx, values, labels = parts
        classifier = _TgtTagClassifier(ctx.target_classifiers,
                                       DataType.STRING,
                                       tag_cache=ctx.tag_cache)
        classifier.teach_many(values, labels)
        assert classifier._best is None  # invalidated (once) by teach_many
        first = classifier._best_cat()
        assert classifier._best_cat() is first  # memo hit, not recomputed
        classifier.classify("garden road")
        assert classifier._best is first  # classify must not invalidate
        classifier.teach("midnight kings", "x")
        assert classifier._best is None  # scalar teach invalidates again
        assert classifier._best_cat() is not first

    def test_regrouped_equals_retaught(self, parts):
        """A label group's acc·prec column from the taught statistics
        equals the score a classifier re-taught with the group label
        gives each tagged value."""
        ctx, values, labels = parts
        dtype = DataType.STRING
        taught = _TgtTagClassifier(ctx.target_classifiers, dtype,
                                   tag_cache=ctx.tag_cache)
        taught.teach_many(values, labels)
        group = frozenset({"x", "y"})
        retaught = _TgtTagClassifier(ctx.target_classifiers, dtype,
                                     tag_cache=ctx.tag_cache)
        retaught.teach_many(values, [group for _ in labels])
        probes = values + ["other probe"]
        scorer = taught.group_scorer(probes)
        column = scorer.column(["x", "y"])
        assert column.count == retaught._label_counts[group]
        tags = retaught._tag_many(probes)
        for tag, row in zip(tags, scorer.rows):
            joint = retaught._tbag.get((tag, group), 0)
            if joint:
                expected = ((joint / retaught._label_counts[group])
                            * (joint / retaught._tag_counts[tag]))
            else:  # untagged: the shared last row every group scores 0.0
                assert row == len(column.scores) - 1
                expected = 0.0
            assert (struct.pack("<d", column.scores[row])
                    == struct.pack("<d", expected))


class TestEngineEquivalence:
    @pytest.mark.parametrize("name,inference", TIER1_RUNS)
    def test_batch_and_legacy_runs_identical(self, name, inference,
                                             monkeypatch):
        results = run_modes(name, monkeypatch, inference)
        assert engine_artifacts(results["batch"]) == engine_artifacts(
            results["retrain"])
        assert results["batch"].families

    def test_infer_stage_reports_batch_counters(self):
        spec = next(s for s in registered_scenarios() if s.name == "retail")
        workload = build_scenario(spec)
        engine = MatchEngine(scenario_config(spec))
        result = engine.match(workload.source,
                              engine.prepare(workload.target))
        counts = result.report.stage("infer-views").counts
        assert counts["batch_calls"] > 0
        assert counts["values_classified"] > 0
        assert "merges_without_retrain" in counts
        assert "token_cache_hits" in counts


def classifier_sweep(workload, config):
    """Tags over real scenario columns, batch and per value, and whether
    each per-value tag is a best log posterior."""
    from repro.classifiers import TargetClassifierSet

    patterns = []
    tagger = TargetClassifierSet.train(
        workload.target, sample_limit=config.standard.sample_limit)
    for relation in workload.source:
        for attribute in relation.schema:
            values = relation.non_missing(attribute.name)[:120]
            if not values:
                continue
            tags_batch = tagger.classify_many(values, attribute.dtype)
            tags_scalar = [tagger.classify(v, attribute.dtype)
                           for v in values]
            patterns.append(("tags", relation.name, attribute.name,
                             tags_batch == tags_scalar))
            family = tagger.classifier_for(attribute.dtype)
            if family is None or not hasattr(family, "log_posteriors"):
                continue
            same = True
            for value in values[:40]:
                posteriors = family.log_posteriors(value)
                if posteriors:
                    same = same and (posteriors[family.classify(value)]
                                     == max(posteriors.values()))
            patterns.append(("posteriors", relation.name, attribute.name,
                             same))
    return patterns


@pytest.mark.golden
class TestFullScenarioGrid:
    """All registered scenarios: the heavyweight grid runs with the golden
    tier (same job, same cadence) — baselines themselves are untouched."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_engine_equivalence(self, name, monkeypatch):
        results = run_modes(name, monkeypatch)
        assert engine_artifacts(results["batch"]) == engine_artifacts(
            results["retrain"])

    @pytest.mark.parametrize("name", scenario_names())
    def test_classifier_posteriors_and_tags(self, name):
        spec = next(s for s in registered_scenarios() if s.name == name)
        workload = build_scenario(spec)
        for kind, table, attr, same in classifier_sweep(
                workload, scenario_config(spec)):
            assert same, f"{kind} diverged on {name}:{table}.{attr}"


def huge_price_workload():
    """The retail scenario with ``ListPrice = 1e200`` in every third
    source row: a Gaussian fit over it squares past float range."""
    workload = build_scenario("retail")
    relations = []
    for relation in workload.source:
        columns = {a: relation.column(a)
                   for a in relation.schema.attribute_names}
        if "ListPrice" in columns:
            columns["ListPrice"] = [1e200 if i % 3 == 0 else value
                                    for i, value
                                    in enumerate(columns["ListPrice"])]
        relations.append(Relation(relation.schema, columns))
    source = Database.from_relations(workload.source.name, relations)
    return dataclasses.replace(workload, source=source)


class TestOverflowingPairs:
    """An (h, l) pair whose Gaussian fit or posterior leaves float range
    yields no family; the match completes, and the batch run still equals
    the retraining reference."""

    @pytest.mark.parametrize("inference", ["src", "tgt"])
    def test_pair_yields_no_family(self, inference):
        workload = huge_price_workload()
        relation = workload.source.relation("items")
        spec = next(s for s in registered_scenarios() if s.name == "retail")
        config = dataclasses.replace(scenario_config(spec),
                                     inference=inference)
        generator = candidates.make_generator(inference)

        def families(rel):
            ctx = InferenceContext(config=config,
                                   rng=np.random.default_rng(3),
                                   target=workload.target)
            return [(f.attribute, f.groups, struct.pack("<d", f.quality))
                    for f in generator.infer(rel, ["accepted"], ctx)]

        without = relation.project([a for a in relation.schema.attribute_names
                                    if a != "ListPrice"])
        assert families(relation) == families(without)

    @pytest.mark.parametrize("inference", ["src", "tgt"])
    def test_match_completes_and_equals_retraining(self, inference,
                                                   monkeypatch):
        workload = huge_price_workload()
        spec = next(s for s in registered_scenarios() if s.name == "retail")
        config = dataclasses.replace(scenario_config(spec),
                                     inference=inference)

        def run():
            engine = MatchEngine(config)
            return engine.match(workload.source,
                                engine.prepare(workload.target))

        batch = run()
        with monkeypatch.context() as patch:
            patch.setattr(candidates, "FamilyAssessor", RetrainingAssessor)
            retrain = run()
        assert batch.matches
        assert engine_artifacts(batch) == engine_artifacts(retrain)
