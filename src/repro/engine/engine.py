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
:mod:`repro.profiling` path).  A matching system without the profiling
interface is a black box and gets no store: its candidate views are
materialized and scored one by one.  Profile and partition cache
counters appear in each stage's
:class:`~repro.engine.report.StageReport`.

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
from ..context.categorical import CategoricalPolicy
from ..context.model import ContextMatchConfig, MatchResult
from ..errors import EngineError
from ..matching.standard import MatchingSystem, StandardMatch
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
        :class:`~repro.context.model.ContextMatchConfig`.
    matcher:
        The standard matching system to wrap.  Anything implementing
        :class:`~repro.matching.standard.MatchingSystem` works; defaults
        to the library's :class:`~repro.matching.standard.StandardMatch`.
    policy:
        Thresholds of the categorical-attribute test.
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
                 matcher: MatchingSystem | None = None,
                 policy: CategoricalPolicy | None = None,
                 *, stages: Sequence[Stage] | None = None,
                 observers: Sequence[EngineObserver] = ()):
        self.config = config or ContextMatchConfig()
        self.matcher = matcher or StandardMatch(self.config.standard)
        self.policy = policy or CategoricalPolicy()
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
        built artifact is saved before being returned.  Engines whose
        fingerprint is identity-scoped (custom matching systems) bypass
        the store.
        """
        if store is not None:
            return store.prepared_target(self, target)
        # Stamp the configuration the index was actually profiled under: a
        # custom StandardMatch may carry a different config than the
        # engine-level ContextMatchConfig.standard.
        standard_config = (self.matcher.config
                           if isinstance(self.matcher, StandardMatch)
                           else self.config.standard)
        return PreparedTarget.build(
            target, self.matcher.build_target_index(target),
            standard_config=standard_config, policy=self.policy,
            matcher=self.matcher,
            retrieval_top_k=self.config.retrieval_top_k)

    def _resolve(self, target: Database | PreparedTarget
                 ) -> tuple[PreparedTarget, bool]:
        """(prepared, was_supplied): prepare plain databases on the fly."""
        if isinstance(target, PreparedTarget):
            self._check_compatible(target)
            return target, True
        return self.prepare(target), False

    def _check_compatible(self, prepared: PreparedTarget) -> None:
        if prepared.policy != self.policy:
            raise EngineError(
                "PreparedTarget was built under a different categorical "
                f"policy ({prepared.policy} != {self.policy}); re-prepare "
                "the target with this engine")
        if not self._matcher_interchangeable(prepared.matcher):
            raise EngineError(
                "PreparedTarget was built by an incompatible matching "
                f"system ({prepared.matcher!r} vs {self.matcher!r}); "
                "re-prepare the target with this engine")

    def prepared_fingerprint(self) -> tuple:
        """Hashable digest of every configuration input prepared artifacts
        derive from.

        Two engines with equal fingerprints produce interchangeable
        (bit-identical) :class:`PreparedTarget` / :class:`PreparedSource`
        artifacts; caches such as
        :class:`~repro.evaluation.runner.EngineRunner`'s prepared LRUs key
        on it so engines with differing configurations sharing one runner
        can never serve each other stale artifacts.  A plain
        :class:`StandardMatch` whose matcher zoo was derived from its
        configuration fingerprints by that configuration (mirroring
        :meth:`_matcher_interchangeable`); anything else — custom matching
        systems, and StandardMatch instances built over an explicit
        matcher list, whose parameterization names/types do not expose —
        fingerprints by identity, since its artifacts are only provably
        valid for itself.
        """
        matcher = self.matcher
        if type(matcher) is StandardMatch and matcher.default_zoo:
            matcher_key: tuple = ("standard", matcher.config)
        else:
            matcher_key = ("custom", type(matcher).__qualname__, id(matcher))
        return (matcher_key, self.policy)

    def _matcher_interchangeable(self, theirs: MatchingSystem | None) -> bool:
        """Whether artifacts built by *theirs* are valid for this engine.

        Distinct matcher objects are interchangeable only when both are
        plain StandardMatch instances whose zoos were derived from equal
        configurations — the derived artifacts are then bit-equal.
        Anything else (custom systems, explicit matcher lists whose
        parameterization the names don't expose) must be the same object,
        or its artifacts may silently disagree with this engine's scorer.
        """
        ours = self.matcher
        if theirs is ours:
            return True
        return (type(ours) is StandardMatch and type(theirs) is StandardMatch
                and ours.default_zoo
                and getattr(theirs, "default_zoo", False)
                and ours.config == theirs.config)

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
        store = ProfileStore.for_matcher(self.matcher)
        if store is None:
            raise EngineError(
                f"matching system {self.matcher!r} does not expose the "
                "profiling interface (supports_profile_store); pass the "
                "plain Database instead")
        standard_config = (self.matcher.config
                           if isinstance(self.matcher, StandardMatch)
                           else self.config.standard)
        return PreparedSource(source=source, store=store,
                              standard_config=standard_config,
                              matcher=self.matcher)

    def _check_source_compatible(self, prepared: PreparedSource) -> None:
        if (self._matcher_interchangeable(prepared.matcher)
                and prepared.store.matcher_names
                == tuple(m.name for m in getattr(self.matcher, "matchers",
                                                 ()))):
            return
        raise EngineError(
            "PreparedSource was built by an incompatible matching system "
            f"({prepared.matcher!r} vs {self.matcher!r}); re-prepare the "
            "source with this engine")

    def _resolve_source(self, source: Database | PreparedSource
                        ) -> tuple[Database, ProfileStore | None, bool]:
        """(database, profile store, was_prepared) for one run's source.

        A plain database gets a fresh per-run store (intra-run reuse:
        partition-once view scoring, profile sharing across stages) when
        the matcher supports it, and None otherwise; a
        :class:`PreparedSource` contributes its long-lived store.
        """
        if isinstance(source, PreparedSource):
            self._check_source_compatible(source)
            return source.source, source.store, True
        return source, ProfileStore.for_matcher(self.matcher), False

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
            target=prepared.target, policy=self.policy,
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
