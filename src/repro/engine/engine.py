"""The match engine — prepared targets, pluggable stages, batch matching.

:class:`MatchEngine` is the library's primary entry point.  It splits a
contextual match run into a reusable target-side preparation step
(:meth:`MatchEngine.prepare`) and a per-source pipeline
(:meth:`MatchEngine.match`), so a service matching many incoming schemas
against a small set of stable hub schemas profiles each hub exactly once::

    engine = MatchEngine(ContextMatchConfig(inference="src"))
    prepared = engine.prepare(hub_schema)
    results = engine.match_many(incoming_schemas, prepared)

The source side is symmetric: :meth:`MatchEngine.prepare_source` wraps a
source schema in a :class:`~repro.engine.prepared.PreparedSource` whose
:class:`~repro.profiling.ProfileStore` persists column profiles and view
partitions across runs, so re-matching the same source (sweeps, re-tuned
thresholds) skips source-side profiling.  Even a plain-database run gets
a per-run store: candidate views are scored from one partition of the
base relation instead of being materialized each (the
:mod:`repro.profiling` path).  Profile and partition cache counters
appear in each stage's :class:`~repro.engine.report.StageReport`.

Every engine matches with ``StandardMatch(config.standard)``, the paper's
black-box standard matcher, and the categorical test's thresholds are the
paper's, so a prepared artifact is valid for exactly the engines whose
standard-matcher configuration it was built under:
:meth:`MatchEngine.prepared_fingerprint` is ``config.standard``.

The pipeline itself is an ordered list of
:class:`~repro.engine.stages.Stage` objects (Figure 5's five steps by
default) observable through :class:`~repro.engine.hooks.EngineObserver`;
every run returns a :class:`~repro.context.model.MatchResult` carrying a
:class:`~repro.engine.report.RunReport` with per-stage timings and counts.

:class:`~repro.context.contextmatch.ContextMatch` remains as a thin
backward-compatible facade over this class.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from ..context.candidates import InferenceContext, make_generator
from ..context.model import ContextMatchConfig, MatchResult
from ..errors import EngineError
from ..matching.standard import StandardMatch, StandardMatchConfig
from ..matching.tokens import token_cache_scope
from ..profiling import ProfileStore
from ..relational.instance import Database
from .hooks import EngineObserver
from .prepared import PreparedSource, PreparedTarget
from .report import RunReport, StageReport
from .stages import PipelineState, Stage, default_stages

if TYPE_CHECKING:  # pragma: no cover - typing only (executor/store sit above)
    from ..store.artifacts import ArtifactStore
    from .executor import MatchExecutor

__all__ = ["MatchEngine"]


class MatchEngine:
    """Contextual schema matcher with reusable target preparation.

    Parameters
    ----------
    config:
        All thresholds and policy switches; see
        :class:`~repro.context.model.ContextMatchConfig`.  The engine
        matches with ``StandardMatch(config.standard)`` (:attr:`matcher`).
    stages:
        The pipeline to run, in order; defaults to the paper's five
        ContextMatch stages (:func:`~repro.engine.stages.default_stages`).
    observers:
        :class:`~repro.engine.hooks.EngineObserver` instances notified
        around every stage of every run.

    Example
    -------
    >>> from repro.datagen import make_retail_workload
    >>> workload = make_retail_workload(target="ryan", seed=7)
    >>> engine = MatchEngine()
    >>> prepared = engine.prepare(workload.target)
    >>> result = engine.match(workload.source, prepared)
    >>> any(m.is_contextual for m in result.matches)
    True
    """

    def __init__(self, config: ContextMatchConfig | None = None,
                 *, stages: Sequence[Stage] | None = None,
                 observers: Sequence[EngineObserver] = ()):
        self.config = config or ContextMatchConfig()
        self.matcher = StandardMatch(self.config.standard)
        self.stages: list[Stage] = (list(stages) if stages is not None
                                    else default_stages())
        self.observers: list[EngineObserver] = list(observers)

    # ------------------------------------------------------------------
    # Target preparation
    # ------------------------------------------------------------------
    def prepare(self, target: Database, *,
                store: "ArtifactStore | None" = None) -> PreparedTarget:
        """Profile *target* once for reuse across any number of runs.

        This is the one way a :class:`PreparedTarget` is built; runs
        only read it.

        With *store* (an :class:`~repro.store.ArtifactStore`) preparation
        becomes durable: if the store already holds an artifact for this
        (target content, engine fingerprint) pair it is loaded — verified,
        bit-identical to preparing in memory — and otherwise the freshly
        built artifact is saved before being returned.
        """
        if store is not None:
            return store.prepared_target(self, target)
        return PreparedTarget.build(
            target, self.matcher.build_target_index(target),
            standard_config=self.config.standard,
            retrieval_top_k=self.config.retrieval_top_k)

    def _resolve(self, target: Database | PreparedTarget
                 ) -> tuple[PreparedTarget, bool]:
        """(prepared, was_supplied): prepare plain databases on the fly."""
        if isinstance(target, PreparedTarget):
            self._check_compatible(target)
            return target, True
        return self.prepare(target), False

    def _check_compatible(self, prepared: PreparedTarget | PreparedSource
                          ) -> None:
        """Refuse an artifact built under another standard-matcher
        configuration: its index or profiles would silently disagree with
        this engine's matcher."""
        if prepared.standard_config != self.config.standard:
            raise EngineError(
                f"{type(prepared).__name__} was built under an incompatible "
                f"matcher configuration ({prepared.standard_config} != "
                f"{self.config.standard}); re-prepare it with this engine")

    def prepared_fingerprint(self) -> StandardMatchConfig:
        """Hashable digest of every configuration input prepared artifacts
        derive from: ``config.standard``.

        Two engines with equal fingerprints produce interchangeable
        (bit-identical) :class:`PreparedTarget` / :class:`PreparedSource`
        artifacts; caches such as
        :class:`~repro.evaluation.runner.EngineRunner`'s prepared LRUs and
        the :class:`~repro.store.ArtifactStore` lookup keys derive from
        it, so engines with differing configurations can never serve each
        other stale artifacts.
        """
        return self.config.standard

    # ------------------------------------------------------------------
    # Source preparation
    # ------------------------------------------------------------------
    def prepare_source(self, source: Database) -> PreparedSource:
        """Build a reusable source-side profile store for *source*.

        The returned :class:`PreparedSource` can stand in for the source
        database in :meth:`match` / :meth:`match_many`: column profiles
        and family partitions accumulate in its
        :class:`~repro.profiling.ProfileStore` across runs, so repeated
        matching of the same source skips source-side profiling.  Scores
        are bit-identical to matching the plain database.
        """
        return PreparedSource(source=source, store=self._profile_store(),
                              standard_config=self.config.standard)

    def _profile_store(self) -> ProfileStore:
        return ProfileStore(self.matcher.matchers,
                            self.config.standard.sample_limit)

    def _resolve_source(self, source: Database | PreparedSource
                        ) -> tuple[Database, ProfileStore, bool]:
        """(database, profile store, was_prepared) for one run's source.

        A plain database gets a fresh per-run store (intra-run reuse:
        partition-once view scoring, profile sharing across stages); a
        :class:`PreparedSource` contributes its long-lived store.
        """
        if isinstance(source, PreparedSource):
            self._check_compatible(source)
            return source.source, source.store, True
        return source, self._profile_store(), False

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, source: Database | PreparedSource,
              target: Database | PreparedTarget) -> MatchResult:
        """Run the stage pipeline for one source schema.

        ``target`` may be a plain :class:`Database` (prepared on the fly,
        exactly like ``ContextMatch.run``) or a :class:`PreparedTarget`
        from :meth:`prepare`, in which case no target profiling happens.
        The run never writes to the prepared target: ``tgt`` inference
        reads the artifact's per-process trained classifiers
        (:meth:`PreparedTarget.trained_classifiers`) and tags through its
        own memo, so its counts do not depend on earlier runs — except
        that the first ``tgt`` run against an artifact in a process
        trains the classifiers and counts that tokenizing too.
        ``source`` may likewise be a :class:`PreparedSource` from
        :meth:`prepare_source`, in which case source-side column profiles
        and partitions persist across runs.
        """
        started = time.perf_counter()
        prepared, supplied = self._resolve(target)
        source_db, store, source_supplied = self._resolve_source(source)
        config = self.config
        cap = config.standard.sample_limit
        ctx = InferenceContext(
            config=config, rng=np.random.default_rng(config.seed),
            target=prepared.target,
            classifiers=lambda: prepared.trained_classifiers(cap))
        state = PipelineState(
            source=source_db, prepared=prepared, config=config,
            matcher=self.matcher, generator=make_generator(config.inference),
            ctx=ctx, result=MatchResult(), store=store)
        report = RunReport(target_prepared=supplied,
                           source_prepared=source_supplied)

        for observer in self.observers:
            observer.on_run_start(source_db, prepared)
        # The run tokenizes through its own q-gram cache: its source
        # values are dropped with it, and its stage counts are its own.
        with token_cache_scope():
            for stage in self.stages:
                for observer in self.observers:
                    observer.on_stage_start(stage.name, state)
                stage_started = time.perf_counter()
                counts = stage.run(state) or {}
                stage_report = StageReport(
                    name=stage.name,
                    elapsed_seconds=time.perf_counter() - stage_started,
                    counts=dict(counts))
                report.stages.append(stage_report)
                for observer in self.observers:
                    observer.on_stage_end(stage_report, state)

        result = state.result
        result.elapsed_seconds = time.perf_counter() - started
        report.elapsed_seconds = result.elapsed_seconds
        result.report = report
        for observer in self.observers:
            observer.on_run_end(report, result)
        return result

    def match_many(self, sources: Iterable[Database | PreparedSource],
                   target: Database | PreparedTarget,
                   *, executor: "MatchExecutor | None" = None
                   ) -> list[MatchResult]:
        """Match every source schema against one shared target.

        The target is prepared (at most) once, up front; each source then
        runs the full pipeline against the shared
        :class:`PreparedTarget`.  Sources may individually be
        :class:`PreparedSource` objects to amortize their own profiling
        across batches.  Results arrive in input order and are identical
        to independent :meth:`match` calls per source.

        ``executor`` routes the batch through a
        :class:`~repro.engine.executor.MatchExecutor` (its process backend
        fans sources out across worker processes, bit-identically); the
        executor's ``last_throughput`` carries the batch-level
        :class:`~repro.engine.report.ThroughputReport`.
        """
        if executor is not None:
            return executor.match_many(self, sources, target).results
        prepared, _ = self._resolve(target)
        return [self.match(source, prepared) for source in sources]

    def match_reversed(self, source: Database | PreparedTarget,
                       target: Database) -> MatchResult:
        """Discover matches with conditions on the *target* tables.

        Section 3: "it is generally straightforward to reverse the role of
        source and target tables to discover matches involving conditions
        on the target table."  The pipeline runs with the roles swapped —
        so the reusable prepared side is the *source* here — and the
        result is flipped back into the caller's frame: matches carry
        ``condition_on="target"``, the ``standard_matches`` diagnostics
        are flipped to source -> target orientation, and
        ``elapsed_seconds`` covers this reversed run itself.
        """
        started = time.perf_counter()
        prepared, supplied = self._resolve(source)
        result = self.match(target, prepared)
        result.matches = [m.flipped() for m in result.matches]
        result.standard_matches = [m.flipped()
                                   for m in result.standard_matches]
        result.elapsed_seconds = time.perf_counter() - started
        if result.report is not None:
            result.report.elapsed_seconds = result.elapsed_seconds
            result.report.role_reversed = True
            # The inner match() saw a PreparedTarget either way; what the
            # caller cares about is whether *this call* had to build it.
            result.report.target_prepared = supplied
        return result
