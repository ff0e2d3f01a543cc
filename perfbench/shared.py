"""Pieces of the workloads that call into repro: seeded retail inputs,
match quality, run-report layer figures and the prepare() wrappers."""

from __future__ import annotations

import contextlib
import statistics
from typing import Any, Iterable, Iterator

import numpy as np

from repro import MatchEngine
from repro.context.model import ContextMatchConfig, MatchResult
from repro.datagen.ground_truth import GroundTruth
from repro.datagen.inventory import make_retail_workload, pad_workload
from repro.engine import prepared as prepared_module
from repro.engine.report import RunReport
from repro.evaluation.metrics import evaluate_result
from repro.matching.standard import StandardMatch
from repro.relational.instance import Database
from repro.retrieval import RetrievalIndex

from harness import median
from spans import SETUP_OP, Tracer, patched

__all__ = ["config", "arrival_order", "retail_source", "mean_f_measure",
           "match_keys", "report_layers", "traced_prepare", "prepare",
           "prepare_layers", "STAGES"]

#: The stages whose times the traced run reports (conjunctive-refine is a
#: timed no-op under the default configuration).
STAGES = ("standard-match", "infer-views", "score-candidates", "select")


def config() -> ContextMatchConfig:
    """What ``repro serve --inference src`` runs with."""
    return ContextMatchConfig(inference="src")


def arrival_order(seed: int, *, fixed: int, shuffled: int, total: int,
                  group: int = 1) -> list[int]:
    """Positions of *total* inputs in the order they are sent.

    The first *fixed* (set-up inputs) keep their place, the next
    *shuffled* arrive in an order drawn from *seed* — in runs of *group*
    that stay together, so a batch holds the same inputs whatever the
    seed — and the rest follow as listed.  A run at today's speed gets
    through the shuffled block and a few inputs past it, so runs with
    different seeds do nearly the same work and their spread shows the
    program and the host rather than which inputs a run drew; a faster
    program still meets fresh inputs instead of repeats.
    """
    blocks = np.random.default_rng(seed).permutation(shuffled // group)
    middle = [fixed + block * group + k
              for block in blocks.tolist() for k in range(group)]
    return (list(range(fixed)) + middle
            + list(range(fixed + shuffled, total)))


def retail_source(seed: int, *, rows: int, gamma: int,
                  pad: int = 0) -> Database:
    """The source database of the retail scenario built with *seed*.

    The source is drawn from the first of the generator's spawned
    streams and padded before the target, so it does not depend on the
    target's size: a one-row target skips generating a target nobody
    uses, and the source equals the full scenario's.
    """
    workload = make_retail_workload(target="ryan", n_source=rows,
                                    n_target=1, gamma=gamma, seed=seed)
    if pad:
        workload = pad_workload(workload, pad, seed=seed + 2)
    return workload.source


def mean_f_measure(results: Iterable[MatchResult],
                   truth: GroundTruth) -> float:
    """Mean F-measure in percent (Section 5's definition)."""
    values = [evaluate_result(result, truth).fmeasure for result in results]
    return statistics.fmean(values) if values else 0.0


def match_keys(result: dict[str, Any]) -> list[tuple]:
    """What must agree between two runs on one source, from
    ``result_to_dict`` output."""
    return [(m["source"], m["target"], m["condition"], m["score"],
             m["confidence"]) for m in result["matches"]]


def _ratio(numerator: float, denominator: float, empty: float) -> float:
    return numerator / denominator if denominator else empty


def report_layers(reports: list[RunReport], *,
                  stage_times: bool) -> dict[str, float]:
    """Per-layer figures carried by the runs' :class:`RunReport` stage
    counts (and stage times, with *stage_times*): medians per run for
    counts and times, pooled ratios for hit rates and pruning."""
    def counts(stage: str, key: str) -> list[float]:
        return [report.stage(stage).counts.get(key, 0) for report in reports
                if report.stage(stage) is not None]

    def pooled(key: str) -> float:
        return sum(stage.counts.get(key, 0) for report in reports
                   for stage in report.stages)

    considered = sum(counts("score-candidates", "pairs_considered"))
    pruned = sum(counts("score-candidates", "pairs_pruned"))
    hits = sum(counts("score-candidates", "retrieval_hits"))
    missed = sum(counts("score-candidates", "retrieval_missed"))
    token_hits = pooled("token_cache_hits")
    profile_hits = pooled("profile_hits")
    layers = {
        "context.candidates.views": median(counts("infer-views", "views")),
        "context.candidates.values_classified": median(
            counts("infer-views", "values_classified")),
        "context.score.pairs_considered": median(
            counts("score-candidates", "pairs_considered")),
        "retrieval.pruned_ratio": _ratio(pruned, considered + pruned, 0.0),
        "retrieval.recall": _ratio(hits, hits + missed, 1.0),
        "matching.tokens.hit_ratio": _ratio(
            token_hits, token_hits + pooled("token_cache_misses"), 0.0),
        "profiling.profile_hit_ratio": _ratio(
            profile_hits, profile_hits + pooled("profile_misses"), 0.0),
    }
    if stage_times:
        for name in STAGES:
            layers[f"engine.stage.{name}_ms"] = median(
                [report.stage(name).elapsed_seconds * 1000.0
                 for report in reports if report.stage(name) is not None])
    return layers


@contextlib.contextmanager
def traced_prepare(tracer: Tracer | None) -> Iterator[None]:
    """Spans around the steps of ``MatchEngine.prepare`` while the block
    runs: target index, retrieval index, categorical analysis."""
    if tracer is None:
        yield
        return
    with patched(tracer, [
            (StandardMatch, "build_target_index", "matching.standard.index"),
            (RetrievalIndex, "build", "retrieval.build"),
            (prepared_module, "categorical_attributes",
             "context.categorical")]):
        yield


def prepare_layers(tracer: Tracer, *, setup: bool) -> dict[str, float]:
    """The prepare() figures of a traced phase: from its set-up op with
    *setup*, else the median over its timed ops."""
    return {f"{name}_ms": tracer.p50_ms(name, setup=setup) for name in (
        "engine.prepare", "matching.standard.index", "retrieval.build",
        "context.categorical")}


def prepare(engine: MatchEngine, target: Database,
            tracer: Tracer | None, op: int = SETUP_OP):
    """``engine.prepare(target)``, as span ``engine.prepare`` of *op*."""
    if tracer is None:
        return engine.prepare(target)
    with tracer.span("engine.prepare", op=op):
        return engine.prepare(target)

