"""The match engine — the library's primary entry point.

* :class:`MatchEngine` — ``prepare`` a target once, then ``match`` /
  ``match_many`` / ``match_reversed`` any number of sources against it;
* :class:`PreparedTarget` — the reusable target-side artifacts;
* :class:`PreparedSource` — the source-side counterpart: a
  :class:`~repro.profiling.ProfileStore` of column profiles and view
  partitions shared across runs of one source schema (built by
  :meth:`MatchEngine.prepare_source`);
* :class:`~repro.engine.stages.Stage` and the five concrete ContextMatch
  stages — the pluggable pipeline;
* :class:`EngineObserver` — per-stage hooks;
* :class:`RunReport` / :class:`StageReport` — per-run diagnostics,
  including profile/partition cache counters in the stage counts;
* :class:`MatchExecutor` / :class:`ExecutorConfig` — batch fan-out for
  ``match_many``, reversed sweeps and scenario runs, either ``serial``
  (the in-process reference) or on a ``process`` pool
  (``ExecutorConfig(backend="process", max_workers=N)``, or
  ``ExecutorConfig.for_jobs(N)``), bit-identical across both; every
  chunk of a process batch carries the prepared artifact's pickle, so
  one pool serves every target, and every batch returns a
  :class:`BatchResult` whose :class:`ThroughputReport` records tasks,
  workers, wall time, per-task elapsed, chunk count, worker-cache
  evictions and prepared-artifact transfer bytes.
"""

from .engine import MatchEngine
from .executor import (BatchResult, ExecutorConfig, MatchExecutor,
                       effective_parallelism)
from .hooks import EngineObserver
from .prepared import PreparedSource, PreparedTarget
from .report import STAGE_NAMES, RunReport, StageReport, ThroughputReport
from .stages import (ConjunctiveRefineStage, InferViewsStage, PipelineState,
                     ScoreCandidatesStage, SelectStage, Stage,
                     StandardMatchStage, default_stages)

__all__ = [
    "MatchEngine",
    "PreparedTarget",
    "PreparedSource",
    "MatchExecutor",
    "ExecutorConfig",
    "BatchResult",
    "ThroughputReport",
    "effective_parallelism",
    "EngineObserver",
    "RunReport",
    "StageReport",
    "STAGE_NAMES",
    "Stage",
    "PipelineState",
    "StandardMatchStage",
    "InferViewsStage",
    "ScoreCandidatesStage",
    "SelectStage",
    "ConjunctiveRefineStage",
    "default_stages",
]
