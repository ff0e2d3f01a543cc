"""Ablation tests for the engine's calibrated design choices.

Each test disables one mechanism and shows the failure mode it guards
against — executable documentation of why the mechanism exists.
"""

import pytest

from repro import ContextMatch, ContextMatchConfig
from repro.evaluation import evaluate_result
from repro.matching import StandardMatch, StandardMatchConfig


class TestScoreFloorAblation:
    """Acceptance needs absolute evidence: Φ confidences grade on a
    curve, so ``score_floor`` also asks for a high raw score."""

    def test_no_floor_admits_more_junk(self, retail_workload):
        with_floor = StandardMatch(StandardMatchConfig(score_floor=0.25))
        without = StandardMatch(StandardMatchConfig(score_floor=0.0))
        accepted_with = with_floor.match(retail_workload.source,
                                         retail_workload.target, tau=0.5)
        accepted_without = without.match(retail_workload.source,
                                         retail_workload.target, tau=0.5)
        assert len(accepted_without) > len(accepted_with)
        # Everything the floor admits, the no-floor config admits too.
        assert {m.key() for m in accepted_with} <= \
            {m.key() for m in accepted_without}

    def test_floored_junk_is_weak(self, retail_workload):
        """Pairs removed by the floor are exactly the low-score ones."""
        without = StandardMatch(StandardMatchConfig(score_floor=0.0))
        accepted = without.match(retail_workload.source,
                                 retail_workload.target, tau=0.5)
        floored_out = [m for m in accepted if m.score < 0.25]
        assert floored_out, "the floor must actually be load-bearing"


class TestOmegaAblation:
    """ω separates semantic from random conditions."""

    def test_zero_omega_hurts_precision(self, retail_workload):
        def run(omega):
            config = ContextMatchConfig(inference="naive", omega=omega,
                                        early_disjuncts=False, seed=5)
            result = ContextMatch(config).run(retail_workload.source,
                                              retail_workload.target)
            return evaluate_result(result, retail_workload.ground_truth)

        permissive = run(0.0)
        default = run(5.0)
        assert permissive.n_found >= default.n_found
        assert permissive.precision <= default.precision + 1e-9


class TestSignificanceAblation:
    """The well-clustered test filters spurious families."""

    def test_lower_threshold_admits_more_families(self, retail_workload):
        def families(threshold):
            config = ContextMatchConfig(inference="src",
                                        significance_threshold=threshold,
                                        seed=5)
            result = ContextMatch(config).run(retail_workload.source,
                                              retail_workload.target)
            return {(f.table, f.attribute, f.groups)
                    for f in result.families}

        strict = families(0.999)
        loose = families(0.5)
        assert strict <= loose
        assert len(loose) >= len(strict)


class TestSampleCapAblation:
    """The significance test runs on modest partitions: the
    ``max_train`` / ``max_test`` caps bound its cost."""

    def test_smaller_caps_weaken_high_sigma_inference(self):
        """At σ=25 the default caps still find the exam views; tiny caps
        lose them — the knee of Figure 19/21 moves with the cap."""
        from repro.evaluation.experiments import run_grades
        from repro.evaluation.runner import seed_pairs, summarize

        def accuracy(caps):
            values = []
            for wseed, pseed in seed_pairs(3):
                config = ContextMatchConfig(
                    inference="src", early_disjuncts=False, seed=pseed,
                    max_train=caps, max_test=caps)
                metrics, _ = run_grades(25.0, config, workload_seed=wseed)
                values.append(metrics.accuracy)
            return summarize(values).mean

        assert accuracy(250) > accuracy(100)


class TestSampleSizeAblation:
    """Figure 14's slope steepens on small samples."""

    def test_small_samples_degrade_high_gamma(self):
        from repro.evaluation.experiments import run_retail
        config = ContextMatchConfig(inference="src", early_disjuncts=False,
                                    seed=5)
        small_high_gamma, _ = run_retail("ryan", config, workload_seed=11,
                                         gamma=10, n_source=300)
        large_high_gamma, _ = run_retail("ryan", config, workload_seed=11,
                                         gamma=10, n_source=1000)
        assert small_high_gamma.fmeasure <= large_high_gamma.fmeasure + 1e-9
