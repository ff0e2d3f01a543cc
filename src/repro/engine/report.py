"""Run diagnostics: per-stage timings and counts of one engine run.

Every :meth:`~repro.engine.engine.MatchEngine.match` invocation produces a
:class:`RunReport` — one :class:`StageReport` per executed pipeline stage —
attached to the returned :class:`~repro.context.model.MatchResult` as
``result.report`` and serialized by
:func:`~repro.context.serialize.report_to_dict`.  The report is pure data
(no references into the pipeline), so it survives serialization and can be
shipped across process boundaries by monitoring agents.
"""

from __future__ import annotations

import dataclasses

__all__ = ["StageReport", "RunReport", "ThroughputReport", "STAGE_NAMES"]

#: Canonical names of the default five-stage pipeline (paper Figure 5),
#: in execution order.
STAGE_NAMES = ("standard-match", "infer-views", "score-candidates",
               "select", "conjunctive-refine")


@dataclasses.dataclass(frozen=True)
class StageReport:
    """Timing and diagnostic counts of one executed stage.

    ``counts`` is stage-specific: the standard-match stage reports accepted
    prototype matches, the scoring stage candidate totals, and so on — the
    keys are part of each stage's documented contract, not of this class.
    Stages that consume a :class:`~repro.profiling.ProfileStore` add that
    stage's cache deltas: ``profile_hits`` / ``profile_misses``,
    ``partitions_built`` / ``partition_hits`` and ``profiles_merged``.
    Every stage that tokenizes values (standard-match, infer-views,
    score-candidates and conjunctive-refine) adds the deltas of the run's
    own q-gram cache (``token_cache_hits`` / ``token_cache_misses``), so
    their sum is the run's whole cache traffic; and the infer-views
    stage reports the batch classifier core's work:
    ``values_classified``, ``batch_calls`` and ``merges_without_retrain``
    (see :class:`~repro.context.candidates.InferenceStats`).
    """

    name: str
    elapsed_seconds: float
    counts: dict[str, int] = dataclasses.field(default_factory=dict)

    def __str__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"{self.name}: {self.elapsed_seconds:.3f}s ({counts})"


@dataclasses.dataclass
class RunReport:
    """Diagnostics of one full engine run.

    Attributes
    ----------
    stages:
        One :class:`StageReport` per executed stage, in pipeline order.
    elapsed_seconds:
        Wall-clock duration of the whole run, including target preparation
        when the engine prepared the target itself.
    target_prepared:
        True when the run reused a caller-supplied
        :class:`~repro.engine.prepared.PreparedTarget` (no index build
        happened inside this run).
    source_prepared:
        True when the run reused a caller-supplied
        :class:`~repro.engine.prepared.PreparedSource`, whose profile
        store persists across runs (cache hits show up in the stage
        counts).
    role_reversed:
        True for :meth:`~repro.engine.engine.MatchEngine.match_reversed`
        runs, whose matches carry target-side conditions.
    """

    stages: list[StageReport] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0
    target_prepared: bool = False
    source_prepared: bool = False
    role_reversed: bool = False

    def stage(self, name: str) -> StageReport | None:
        """The report of the named stage, or None if it did not run."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def stage_timings(self) -> dict[str, float]:
        """Per-stage wall-clock seconds keyed by stage name."""
        return {s.name: s.elapsed_seconds for s in self.stages}

    def __str__(self) -> str:
        lines = [f"run: {self.elapsed_seconds:.3f}s"
                 + (" [prepared target]" if self.target_prepared else "")
                 + (" [prepared source]" if self.source_prepared else "")
                 + (" [reversed]" if self.role_reversed else "")]
        lines.extend(f"  {stage}" for stage in self.stages)
        return "\n".join(lines)


@dataclasses.dataclass
class ThroughputReport:
    """Diagnostics of one executor batch (a ``match_many`` fan-out, a
    repository route, or a scenario-registry run).

    Attributes
    ----------
    backend:
        ``"serial"`` or ``"process"`` — which
        :class:`~repro.engine.executor.MatchExecutor` backend ran the batch.
    workers:
        Workers the batch could use (1 for the serial backend).
    tasks:
        Number of tasks submitted.
    wall_seconds:
        Wall-clock duration of the whole batch as seen by the caller,
        including pool spin-up and prepared-artifact transfer when the
        batch had to pay for them.
    task_seconds:
        Per-task elapsed seconds measured inside the worker, in submission
        order.  Summing them gives the busy time the batch would have cost
        a single core.
    prepare_transfer_bytes:
        Bytes of pickle stream shipped to the worker pool for the shared
        prepared artifact: its pickle times the chunks that carried it
        (0 for the serial backend, which shares the caller's objects, and
        for batches without a shared artifact).
    transport:
        ``"pickle"`` for process batches; None for serial ones (nothing
        is shipped).  Kept, like ``shm_bytes``, because ``--json``
        ``executor`` sections, ``/match-many`` responses and ``/report``
        consumers read both keys.
    chunks:
        Chunked-scheduling submissions this batch made (0 for serial,
        which runs the batch as one in-process loop).
    shm_bytes:
        Always 0: no batch ships arrays through shared memory.  Older
        payloads may carry a positive value.
    artifact_evictions:
        Artifacts evicted from the workers' bounded caches while running
        this batch — a long-lived pool cycling many targets evicts; a
        pool serving few targets must report 0.
    """

    backend: str
    workers: int
    tasks: int
    wall_seconds: float
    task_seconds: list[float] = dataclasses.field(default_factory=list)
    prepare_transfer_bytes: int = 0
    transport: str | None = None
    chunks: int = 0
    shm_bytes: int = 0
    artifact_evictions: int = 0

    @property
    def busy_seconds(self) -> float:
        """Total worker-side compute across all tasks."""
        return sum(self.task_seconds)

    @property
    def tasks_per_second(self) -> float:
        """Batch throughput (0.0 for an instantaneous empty batch)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.tasks / self.wall_seconds

    def __str__(self) -> str:
        via = f" via {self.transport}" if self.transport else ""
        return (f"{self.backend} x{self.workers}{via}: {self.tasks} tasks "
                f"in {self.wall_seconds:.3f}s "
                f"({self.tasks_per_second:.2f} tasks/s, "
                f"busy {self.busy_seconds:.3f}s, "
                f"{self.chunks} chunks, "
                f"{self.prepare_transfer_bytes} prepare bytes)")
