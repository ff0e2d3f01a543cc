"""Pickle round-trip grid for prepared artifacts.

The process executor backend ships :class:`PreparedTarget` /
:class:`PreparedSource` to worker pools, so both must survive
``pickle.dumps`` / ``loads`` for every scenario family and produce
bit-identical match results afterwards.  A prepared target's pickle
carries only what ``prepare()`` built: a worker trains its own target
classifiers, and they equal the ones the parent trained.
"""

import dataclasses
import pickle

import pytest

from repro import ContextMatchConfig, MatchEngine
from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.classifiers.numeric import GaussianClassifier
from repro.datagen import build_scenario, get_scenario
from repro.profiling import PartitionIndex

#: One base scenario per family, shrunk so the grid stays seconds-fast.
FAMILY_SCENARIOS = ("retail", "grades", "clinical", "events", "realestate")


@pytest.fixture(scope="module")
def family_workloads():
    return {name: build_scenario(get_scenario(name).resized(80))
            for name in FAMILY_SCENARIOS}


def _engine_for(name, **overrides):
    spec = get_scenario(name)
    resolved = dict(spec.config_overrides())
    resolved.update(overrides)
    return MatchEngine(dataclasses.replace(ContextMatchConfig(), **resolved))


def _assert_results_identical(expected, actual):
    assert expected.matches == actual.matches
    assert expected.standard_matches == actual.standard_matches
    expected_counts = [s.counts for s in expected.report.stages]
    actual_counts = [s.counts for s in actual.report.stages]
    for want, got in zip(expected_counts, actual_counts):
        for key, value in want.items():
            if key.startswith("token_cache"):
                continue  # process-global telemetry, not per-run state
            assert got.get(key) == value, key


@pytest.mark.parametrize("name", FAMILY_SCENARIOS)
class TestPreparedTargetRoundTrip:
    def test_cold_round_trip_is_bit_identical(self, family_workloads, name):
        """Pickle straight after prepare(): no classifier trained yet."""
        workload = family_workloads[name]
        engine = _engine_for(name)
        prepared = engine.prepare(workload.target)
        restored = pickle.loads(pickle.dumps(prepared))
        expected = engine.match(workload.source, prepared)
        worker = MatchEngine(engine.config, policy=engine.policy)
        _assert_results_identical(expected,
                                  worker.match(workload.source, restored))

    def test_warm_round_trip_rebuilds_lazy_classifier_state(
            self, family_workloads, name):
        """Pickle after ``tgt`` runs: the runs trained the target
        classifiers beside the artifact, not into it, so the pickle is
        the cold one and the restored artifact trains its own — with
        the same matches and run counts."""
        workload = family_workloads[name]
        engine = _engine_for(name, inference="tgt")
        prepared = engine.prepare(workload.target)
        cold = pickle.dumps(prepared)
        expected = engine.match(workload.source, prepared)
        again = engine.match(workload.source, prepared)
        assert again.matches == expected.matches
        assert pickle.dumps(prepared) == cold

        restored = pickle.loads(cold)
        worker = MatchEngine(engine.config, policy=engine.policy)
        _assert_results_identical(expected,
                                  worker.match(workload.source, restored))


@pytest.mark.parametrize("name", FAMILY_SCENARIOS)
def test_prepared_source_round_trip(family_workloads, name):
    """A populated PreparedSource (profiles + partitions) round-trips and
    keeps serving bit-identical cached scores."""
    workload = family_workloads[name]
    engine = _engine_for(name)
    prepared_target = engine.prepare(workload.target)
    prepared_source = engine.prepare_source(workload.source)
    cold = engine.match(prepared_source, prepared_target)
    assert len(prepared_source.store) > 0
    # Warm reference: a second run over the now-populated store, whose
    # cache counters the shipped store must reproduce.
    expected = engine.match(prepared_source, prepared_target)
    assert expected.matches == cold.matches

    restored = pickle.loads(pickle.dumps(prepared_source))
    assert len(restored.store) == len(prepared_source.store)
    assert [m.name for m in restored.store.matchers] \
        == [m.name for m in prepared_source.store.matchers]
    hits_before = restored.store.profile_hits
    worker = MatchEngine(engine.config, policy=engine.policy)
    again = worker.match(restored, engine.prepare(workload.target))
    _assert_results_identical(expected, again)
    # The shipped store still serves its cached profiles.
    assert restored.store.profile_hits > hits_before


def test_partition_index_round_trip(family_workloads):
    """The index pickles its cells and rebuilds its numpy arrays / memos
    lazily, producing identical restricted columns."""
    source = family_workloads["retail"].source
    relation = next(iter(source))
    categorical = min(relation.schema.attribute_names,
                      key=lambda a: len(set(relation.column(a))))
    index = PartitionIndex(relation, categorical)
    group = frozenset(list(index.cells)[:2])
    expected = index.restricted_present_column(
        relation.schema.attribute_names[0], group)

    restored = pickle.loads(pickle.dumps(index))
    assert restored.cells == index.cells
    assert restored._group_arrays == {} and restored._present == {}
    assert restored.restricted_present_column(
        relation.schema.attribute_names[0], group) == expected


def test_naive_bayes_round_trip_posteriors_exact():
    nb = NaiveBayesClassifier(q=3)
    values = ["alpha", "beta", "gamma", "alphabet", "betamax", "gamut"]
    labels = ["a", "b", "g", "a", "b", "g"]
    nb.teach_many(values, labels)
    nb.classify_many(values)  # compile
    assert nb._compiled is not None
    restored = pickle.loads(pickle.dumps(nb))
    probe = values + ["delta", "al", "be"]
    assert restored.classify_many(probe) == nb.classify_many(probe)
    for value in probe:
        assert restored.log_posteriors(value) == nb.log_posteriors(value)


def test_gaussian_round_trip_posteriors_exact():
    gaussian = GaussianClassifier()
    for i, value in enumerate([1.0, 1.5, 2.0, 10.0, 11.0, 12.5]):
        gaussian.teach(value, "low" if i < 3 else "high")
    gaussian.classify_many([1.2, 10.5])  # fit + cache posterior terms
    assert gaussian._terms is not None
    restored = pickle.loads(pickle.dumps(gaussian))
    probe = [0.5, 1.7, 9.9, 11.1, "not-a-number"]
    assert restored.classify_many(probe) == gaussian.classify_many(probe)
    for value in probe:
        assert restored.log_posteriors(value) == gaussian.log_posteriors(value)
