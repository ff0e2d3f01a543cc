"""Scenario runs and the golden-metrics regression tier.

:func:`run_scenario` is the one-call quality probe every scaling PR leans
on: build a registered (or ad-hoc) :class:`~repro.datagen.ScenarioSpec`
into a workload, run the match engine under the spec's configuration, and
score the result against the workload's ground truth — returning a
:class:`ScenarioResult` that bundles precision/recall/F-measure, match
counts, the per-stage :class:`~repro.engine.report.RunReport` and the
profile-cache counters summed across stages.  :func:`run_scenarios` is the
batch counterpart: a list of specs routed through a
:class:`~repro.engine.executor.MatchExecutor` (optionally fanned out
across worker processes, bit-identically), returning results
in input order plus the batch's throughput counters.

The *golden tier* pins these results per scenario: ``tests/golden/``
holds one committed JSON baseline per registered scenario
(:func:`golden_payload` emits it, :func:`compare_to_golden` checks a
fresh run against it with per-field tolerances), exposed as
``pytest -m golden`` and via the ``repro scenarios`` CLI subcommand.
Baselines carry their own tolerances, so a scenario whose metrics are
legitimately noisier can widen its band in one reviewable place.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

from ..context.model import ContextMatchConfig, MatchResult
from ..context.serialize import report_from_dict, report_to_dict
from ..datagen.registry import ScenarioSpec, build_scenario, get_scenario
from ..engine.engine import MatchEngine
from ..engine.executor import BatchResult, MatchExecutor
from ..engine.report import RunReport
from .metrics import EvalMetrics, evaluate_result
from .runner import EngineRunner

__all__ = ["ScenarioResult", "run_scenario", "run_scenarios",
           "scenario_result_to_dict", "scenario_result_from_dict",
           "golden_payload", "compare_to_golden", "DEFAULT_TOLERANCES"]

#: Profile-cache counter keys aggregated from stage reports (the PR-2
#: profiling subsystem's reuse telemetry).
PROFILE_COUNTER_KEYS = ("profile_hits", "profile_misses", "partitions_built",
                        "partition_hits", "profiles_merged")

#: Default comparison bands for golden baselines: metrics are percentages
#: (absolute tolerance in percentage points); counts and counters are
#: deterministic integers and compare exactly unless a baseline widens them.
DEFAULT_TOLERANCES = {"metrics": 1.0, "counts": 0, "counters": 0}


@dataclasses.dataclass
class ScenarioResult:
    """Quality and diagnostics of one scenario run.

    ``counters`` sums the profile-cache counters over every pipeline stage
    of the run; ``report`` is the engine's full per-stage
    :class:`~repro.engine.report.RunReport` (None for results deserialized
    from payloads that omitted it).
    """

    scenario: str
    spec: ScenarioSpec
    metrics: EvalMetrics
    n_matches: int
    n_contextual: int
    counters: dict[str, int]
    elapsed_seconds: float
    report: RunReport | None = None

    def __str__(self) -> str:
        return (f"{self.scenario}: {self.metrics} "
                f"[{self.n_contextual}/{self.n_matches} contextual, "
                f"{self.elapsed_seconds:.2f}s]")


def _profile_counters(report: RunReport | None) -> dict[str, int]:
    totals = {key: 0 for key in PROFILE_COUNTER_KEYS}
    if report is not None:
        for stage in report.stages:
            for key in PROFILE_COUNTER_KEYS:
                totals[key] += int(stage.counts.get(key, 0))
    return totals


def scenario_config(spec: ScenarioSpec) -> ContextMatchConfig:
    """The engine configuration a spec's ``config`` overrides resolve to."""
    overrides = spec.config_overrides()
    base = ContextMatchConfig()
    return dataclasses.replace(base, **overrides) if overrides else base


def run_scenario(spec: ScenarioSpec | str, *,
                 config: ContextMatchConfig | None = None,
                 runner: EngineRunner | None = None) -> ScenarioResult:
    """Build, match and score one scenario.

    ``config`` replaces the spec-derived configuration entirely when given
    (ablations over a fixed workload); ``runner`` routes the run through a
    shared :class:`~repro.evaluation.runner.EngineRunner` so sweeps reuse
    prepared targets and sources.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    workload = build_scenario(spec)
    resolved = config if config is not None else scenario_config(spec)
    if runner is not None:
        result: MatchResult = runner.run(workload.source, workload.target,
                                         resolved)
    else:
        result = MatchEngine(resolved).match(workload.source,
                                             workload.target)
    metrics = evaluate_result(result, workload.ground_truth)
    return ScenarioResult(
        scenario=spec.name, spec=spec, metrics=metrics,
        n_matches=len(result.matches),
        n_contextual=sum(1 for m in result.matches if m.is_contextual),
        counters=_profile_counters(result.report),
        elapsed_seconds=result.elapsed_seconds, report=result.report)


def _scenario_task(payload: tuple[ScenarioSpec, ContextMatchConfig | None]
                   ) -> ScenarioResult:
    """Executor task: one full scenario run (workers rebuild the workload
    from the spec, so nothing but the tiny spec/config pair is shipped)."""
    spec, config = payload
    return run_scenario(spec, config=config)


def run_scenarios(specs: Iterable[ScenarioSpec | str], *,
                  config: ContextMatchConfig | None = None,
                  executor: MatchExecutor | None = None) -> BatchResult:
    """Run a batch of scenarios, optionally fanned out across workers.

    The batch counterpart of :func:`run_scenario`: every spec (or
    registered name) is built, matched and scored independently — scenario
    workloads are deterministic functions of their specs, so tasks ship
    only the spec and rebuild the workload worker-side.  Results come back
    in input order inside a :class:`~repro.engine.executor.BatchResult`
    whose :class:`~repro.engine.report.ThroughputReport` records workers,
    per-task elapsed and wall time; the process backend
    (``MatchExecutor(ExecutorConfig.for_jobs(N))``) is bit-identical to
    the default in-process serial run.
    """
    resolved = [get_scenario(spec) if isinstance(spec, str) else spec
                for spec in specs]
    if executor is None:
        executor = MatchExecutor()
    return executor.run_tasks(_scenario_task,
                              [(spec, config) for spec in resolved])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _metrics_to_dict(metrics: EvalMetrics) -> dict[str, Any]:
    return {"accuracy": metrics.accuracy, "precision": metrics.precision,
            "fmeasure": metrics.fmeasure, "n_found": metrics.n_found,
            "n_correct_found": metrics.n_correct_found,
            "n_truth": metrics.n_truth}


def _metrics_from_dict(data: Mapping[str, Any]) -> EvalMetrics:
    return EvalMetrics(
        accuracy=float(data["accuracy"]), precision=float(data["precision"]),
        n_found=int(data.get("n_found", 0)),
        n_correct_found=int(data.get("n_correct_found", 0)),
        n_truth=int(data.get("n_truth", 0)))


def scenario_result_to_dict(result: ScenarioResult) -> dict[str, Any]:
    """Render a :class:`ScenarioResult` as a JSON-compatible dict
    (round-trippable via :func:`scenario_result_from_dict`)."""
    return {
        "scenario": result.scenario,
        "spec": result.spec.to_dict(),
        "metrics": _metrics_to_dict(result.metrics),
        "n_matches": result.n_matches,
        "n_contextual": result.n_contextual,
        "counters": dict(result.counters),
        "elapsed_seconds": result.elapsed_seconds,
        "report": (report_to_dict(result.report)
                   if result.report is not None else None),
    }


def scenario_result_from_dict(data: Mapping[str, Any]) -> ScenarioResult:
    """Inverse of :func:`scenario_result_to_dict` (``fmeasure`` is derived,
    not stored)."""
    report = data.get("report")
    return ScenarioResult(
        scenario=data["scenario"],
        spec=ScenarioSpec.from_dict(data["spec"]),
        metrics=_metrics_from_dict(data["metrics"]),
        n_matches=int(data.get("n_matches", 0)),
        n_contextual=int(data.get("n_contextual", 0)),
        counters={k: int(v) for k, v in data.get("counters", {}).items()},
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        report=report_from_dict(report) if report is not None else None)


# ---------------------------------------------------------------------------
# Golden baselines
# ---------------------------------------------------------------------------

def golden_payload(result: ScenarioResult, *,
                   tolerances: Mapping[str, float] | None = None
                   ) -> dict[str, Any]:
    """The committed baseline document for one scenario.

    Timings and the full stage report are deliberately excluded — golden
    files pin *quality and deterministic counts*, not performance.
    """
    return {
        "scenario": result.scenario,
        "spec": result.spec.to_dict(),
        "tolerance": dict(tolerances or DEFAULT_TOLERANCES),
        "metrics": {"accuracy": result.metrics.accuracy,
                    "precision": result.metrics.precision,
                    "fmeasure": result.metrics.fmeasure},
        "counts": {"n_found": result.metrics.n_found,
                   "n_correct_found": result.metrics.n_correct_found,
                   "n_truth": result.metrics.n_truth,
                   "n_matches": result.n_matches,
                   "n_contextual": result.n_contextual},
        "counters": dict(result.counters),
    }


def compare_to_golden(result: ScenarioResult,
                      golden: Mapping[str, Any]) -> list[str]:
    """Check a fresh run against a committed baseline.

    Returns a list of human-readable violations (empty = within
    tolerance).  A spec mismatch is itself a violation: a baseline must be
    regenerated, not silently reinterpreted, when its scenario definition
    changes.
    """
    violations: list[str] = []
    tolerance = dict(DEFAULT_TOLERANCES)
    tolerance.update(golden.get("tolerance", {}))

    if golden.get("scenario") != result.scenario:
        violations.append(
            f"scenario name mismatch: baseline {golden.get('scenario')!r} "
            f"vs run {result.scenario!r}")
    if golden.get("spec") != result.spec.to_dict():
        violations.append(
            "spec mismatch: baseline was generated from a different "
            "scenario definition; regenerate tests/golden/"
            f"{result.scenario}.json")

    fresh_metrics = {"accuracy": result.metrics.accuracy,
                     "precision": result.metrics.precision,
                     "fmeasure": result.metrics.fmeasure}
    for key, expected in golden.get("metrics", {}).items():
        actual = fresh_metrics.get(key)
        if actual is None:
            violations.append(f"metrics.{key}: missing from run")
        elif abs(actual - float(expected)) > tolerance["metrics"]:
            violations.append(
                f"metrics.{key}: {actual:.2f} vs baseline "
                f"{float(expected):.2f} (tolerance "
                f"{tolerance['metrics']})")

    fresh_counts = {"n_found": result.metrics.n_found,
                    "n_correct_found": result.metrics.n_correct_found,
                    "n_truth": result.metrics.n_truth,
                    "n_matches": result.n_matches,
                    "n_contextual": result.n_contextual}
    for key, expected in golden.get("counts", {}).items():
        actual = fresh_counts.get(key, 0)
        if abs(actual - int(expected)) > tolerance["counts"]:
            violations.append(
                f"counts.{key}: {actual} vs baseline {int(expected)} "
                f"(tolerance {tolerance['counts']})")

    for key, expected in golden.get("counters", {}).items():
        actual = result.counters.get(key, 0)
        if abs(actual - int(expected)) > tolerance["counters"]:
            violations.append(
                f"counters.{key}: {actual} vs baseline {int(expected)} "
                f"(tolerance {tolerance['counters']})")
    return violations
