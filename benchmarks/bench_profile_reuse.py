"""Profiling-subsystem benchmark: cold vs warm ``PreparedSource`` reuse.

Times the ScoreCandidatesStage — the ScoreMatch loop of Figure 5, the
pipeline's hot path — in two modes over one retail workload with dozens
of candidate views:

* ``cold``: a first run with an empty
  :class:`~repro.profiling.ProfileStore` — base relations are partitioned
  once per family attribute and view columns come from partition cells;
* ``warm``: a second run against the same
  :class:`~repro.engine.PreparedSource` — every view profile is a cache
  hit, so the stage pays for scoring only (the steady state of a service
  re-matching a known source).

Both modes must produce identical matches; the headline figure is the
warm-over-cold speedup.  Results are persisted both as text and as
machine-readable ``results/BENCH_score_candidates.json`` (ops/sec,
elapsed, config) so the perf trajectory is trackable across PRs.

Set ``BENCH_TINY=1`` for a seconds-scale smoke run (CI): the JSON schema
and equivalence checks still apply, the speedup floor does not.  Sizing
runs through the scenario registry (``conftest.bench_scenario``), not
ad-hoc row constants.
"""

from conftest import BENCH_TINY, bench_scenario, run_once
from repro import ContextMatchConfig, MatchEngine
from repro.datagen import ScenarioSpec, build_scenario

MIN_VIEWS = 20
MIN_WARM_SPEEDUP = 2.0
CONFIG = dict(inference="src", early_disjuncts=True, seed=5)
#: A view-heavy retail scenario: γ=6 plus two ρ=0.6 correlated attributes.
SPEC = bench_scenario(
    ScenarioSpec(name="profile-reuse", family="retail", seed=11, gamma=6,
                 knobs=(("correlated", 2), ("rho", 0.6))),
    tiny_size=1200, full_size=20000, tiny_target=200, full_target=500)


def _workload():
    return build_scenario(SPEC)


def _stage_seconds(result, name="score-candidates") -> float:
    return result.report.stage(name).elapsed_seconds


def _keys(result):
    return [(str(m.source), str(m.target), str(m.condition),
             m.score, m.confidence) for m in result.matches]


def test_profile_reuse(benchmark, record_series, record_json):
    workload = _workload()

    engine = MatchEngine(ContextMatchConfig(**CONFIG))
    prepared = engine.prepare(workload.target)
    prepared_src = engine.prepare_source(workload.source)
    cold = run_once(benchmark, engine.match, prepared_src, prepared)
    warm = engine.match(prepared_src, prepared)

    n_views = cold.report.stage("infer-views").counts["views"]
    n_candidates = cold.report.stage("score-candidates").counts["candidates"]
    assert n_views >= MIN_VIEWS, f"workload too small: {n_views} views"
    # Reuse only skips work: the warm run's matches are the cold run's.
    assert _keys(cold) == _keys(warm)

    elapsed = {"cold": _stage_seconds(cold), "warm": _stage_seconds(warm)}
    speedup = elapsed["cold"] / elapsed["warm"]
    ops = {mode: n_candidates / seconds if seconds > 0 else 0.0
           for mode, seconds in elapsed.items()}

    data = {
        "stage_seconds": elapsed,
        "candidates_per_second": ops,
        "speedup_vs_cold": {"cold": 1.0, "warm": speedup},
    }
    record_series(
        "profile_reuse",
        f"ScoreCandidatesStage: cold vs warm PreparedSource "
        f"({n_views} views, {n_candidates} rescorings)",
        "measurement", data, ["cold", "warm"])
    record_json("BENCH_score_candidates", {
        "benchmark": "bench_profile_reuse",
        "stage": "score-candidates",
        "config": {**CONFIG, "scenario": SPEC.to_dict(), "tiny": BENCH_TINY},
        "n_views": n_views,
        "n_candidates": n_candidates,
        "modes": {
            mode: {"elapsed_seconds": elapsed[mode],
                   "ops_per_second": ops[mode]}
            for mode in elapsed
        },
        "speedup": {"warm_vs_cold": speedup},
        "counters": {
            "cold": dict(cold.report.stage("score-candidates").counts),
            "warm": dict(warm.report.stage("score-candidates").counts),
        },
    })

    # Warm runs reuse every profile/partition; the stage must clear the
    # floor comfortably (tiny smoke runs only check plumbing).
    if not BENCH_TINY:
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"prepared-source scoring should be >= {MIN_WARM_SPEEDUP}x "
            f"the cold run, got {speedup:.2f}x")
    warm_counts = warm.report.stage("score-candidates").counts
    assert warm_counts["profile_misses"] == 0
    assert warm_counts["partitions_built"] == 0
