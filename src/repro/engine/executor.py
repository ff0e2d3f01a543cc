"""Parallel match execution: serial, or a process pool over prepared artifacts.

A single ContextMatch run is sub-second, but every multi-source workload —
:meth:`~repro.engine.engine.MatchEngine.match_many`, role-reversed sweeps,
repository ``route_many`` fan-outs, the scenario registry behind the
golden tier — is a *batch* of independent runs, and the dominant
enterprise workload is throughput across runs, not latency within one.
:class:`MatchExecutor` runs such batches on one of two backends:

* ``"serial"`` (default) — tasks run in-process, in submission order, on
  the caller's objects.  This is the equivalence reference: the process
  backend must reproduce its matches, posteriors and metrics bit-for-bit.
* ``"process"`` — tasks fan out across one ``ProcessPoolExecutor``.  A
  batch's shared prepared artifact has one wire format: its plain pickle,
  taken once per artifact by the executor's memos (the classes'
  ``__getstate__`` hooks decide what crosses the boundary).  Every chunk
  carries that pickle next to its shipping token, so any worker can serve
  any artifact and one pool serves every target; a worker unpickles only
  when its bounded artifact LRU misses, and evictions are counted on the
  batch report.

The hot loops are pure Python, so threads would only contend for the
interpreter lock: a worker process per core is the one parallel path.

Batches are *chunked*: submissions are grouped into about four chunks per
worker, so a ``match_many`` of hundreds of sources pays per-chunk, not
per-task, IPC while small batches still spread.  Results always come back
in submission order, with every run's
:class:`~repro.engine.report.RunReport` intact, plus a batch-level
:class:`~repro.engine.report.ThroughputReport` (tasks, workers, wall
time, per-task elapsed, chunk and transfer counters).

Engine observers do not cross the process boundary: the serial backend
runs batches on the caller's engine, so observers fire exactly as in a
hand-written loop, while process workers rebuild engines from the shipped
configuration (custom stage lists are shipped; observer lists are not).
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..errors import EngineError
from .report import ThroughputReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..context.model import ContextMatchConfig, MatchResult
    from ..relational.instance import Database
    from .engine import MatchEngine
    from .prepared import PreparedSource, PreparedTarget

__all__ = ["ExecutorConfig", "BatchResult", "MatchExecutor",
           "effective_parallelism"]

_BACKENDS = ("serial", "process")


def effective_parallelism() -> int:
    """CPUs this process may actually run on (affinity-aware when the
    platform exposes it) — what a worker pool can really exploit."""
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


@dataclasses.dataclass(frozen=True)
class ExecutorConfig:
    """Backend selection for a :class:`MatchExecutor`.

    Parameters
    ----------
    backend:
        ``"serial"`` (in-process, the default) or ``"process"``
        (``ProcessPoolExecutor`` fan-out).
    max_workers:
        Workers for the process backend; ``None`` uses the host's
        effective parallelism.  Ignored by the serial backend.
    """

    backend: str = "serial"
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise EngineError(
                f"unknown executor backend {self.backend!r}; "
                f"choose one of {list(_BACKENDS)}")
        if self.max_workers is not None and self.max_workers < 1:
            raise EngineError(
                f"max_workers must be >= 1, got {self.max_workers}")

    @classmethod
    def for_jobs(cls, jobs: int | None) -> "ExecutorConfig":
        """The configuration ``--jobs N`` means: serial for ``N == 1``
        (or None), an N-worker process pool otherwise.  ``N < 1`` is the
        same error the constructor raises — a computed job count of 0 is
        a caller bug, not a request for serial."""
        if jobs is not None and jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        if jobs is None or jobs == 1:
            return cls()
        return cls(backend="process", max_workers=jobs)

    def resolved_workers(self) -> int:
        if self.backend == "serial":
            return 1
        return self.max_workers or effective_parallelism()

    def resolved_chunk_size(self, tasks: int) -> int:
        """Tasks per chunk for an N-task batch: enough chunks for ~4
        scheduling rounds per worker, so stragglers rebalance without
        paying per-task submission overhead."""
        return max(1, -(-tasks // (self.resolved_workers() * 4)))


@dataclasses.dataclass
class BatchResult:
    """An executor batch's results (submission order) plus its
    :class:`~repro.engine.report.ThroughputReport`.

    Iterates / indexes like the plain result list, so callers that only
    care about the results can treat it as a sequence.
    """

    results: list[Any]
    throughput: ThroughputReport

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


# ---------------------------------------------------------------------------
# Worker-side machinery
# ---------------------------------------------------------------------------

#: Artifacts a worker keeps deserialized at once.  A long-lived pool
#: routing against many hubs cycles tokens through this cache; beyond the
#: cap the least recently used artifact is dropped and counted in
#: :data:`_EVICTIONS`.
_ARTIFACT_SLOTS = 4

#: Worker-process cache of deserialized prepared artifacts, keyed by
#: shipping token.  Bounded LRU — see :data:`_ARTIFACT_SLOTS`.
_ARTIFACTS: "OrderedDict[str, Any]" = OrderedDict()

#: Artifacts this worker evicted from :data:`_ARTIFACTS` over its
#: lifetime; chunks report the delta so the batch can sum it.
_EVICTIONS = 0


def _artifact_for(token: str, blob: bytes) -> Any:
    """The worker's cached artifact for *token*, unpickling the chunk's
    *blob* on a cache miss."""
    global _EVICTIONS
    artifact = _ARTIFACTS.get(token)
    if artifact is not None:
        _ARTIFACTS.move_to_end(token)
        return artifact
    artifact = pickle.loads(blob)
    _ARTIFACTS[token] = artifact
    while len(_ARTIFACTS) > _ARTIFACT_SLOTS:
        _ARTIFACTS.popitem(last=False)
        _EVICTIONS += 1
    return artifact


def _timed_tasks(fn: Callable, artifact: Any, payloads: list) -> list:
    """``[(result, elapsed), ...]`` of ``fn`` over *payloads*:
    ``fn(payload)`` for artifact-free tasks, ``fn(artifact, payload)``
    when the batch has a shared artifact."""
    out = []
    for payload in payloads:
        started = time.perf_counter()
        result = fn(payload) if artifact is None else fn(artifact, payload)
        out.append((result, time.perf_counter() - started))
    return out


def _run_chunk(fn: Callable, token: str | None, blob: bytes | None,
               payloads: list) -> tuple[list, int]:
    """Execute one chunk of tasks in a worker.

    Returns ``([(result, elapsed), ...], evictions)`` where *evictions*
    is how many cached artifacts this chunk pushed out of the worker's
    bounded cache.
    """
    evictions_before = _EVICTIONS
    artifact = None if token is None else _artifact_for(token, blob)
    return _timed_tasks(fn, artifact, payloads), _EVICTIONS - evictions_before


@dataclasses.dataclass
class EngineArtifact:
    """The shared half of a match batch: a prepared side plus everything
    needed to rebuild an equivalent engine in a worker.

    ``stages`` ships the caller's (stateless, picklable) stage list so
    custom pipelines survive the fan-out; observers deliberately do not.
    In-process (the serial backend) the artifact simply holds the
    caller's engine, so observers fire exactly as in a hand-written loop;
    the shipped copy drops it and a worker rebuilds an observer-less
    equivalent once per cached artifact.
    """

    prepared: "PreparedTarget"
    config: "ContextMatchConfig"
    policy: Any
    stages: list | None = None
    #: Stable content token of the prepared side (an artifact-store
    #: token), when the caller knows one.  Lets the executor derive a
    #: shipping token that survives object turnover: a prepared target
    #: evicted from a serving LRU and reloaded from the store is a *new*
    #: object, but with the same content token the executor reuses the
    #: already-pickled payload and the workers' cached copies.
    content_token: str | None = None
    _engine: "MatchEngine | None" = dataclasses.field(
        default=None, repr=False, compare=False)

    @classmethod
    def of(cls, engine: "MatchEngine", prepared: "PreparedTarget",
           token: str | None = None) -> "EngineArtifact":
        return cls(prepared=prepared, config=engine.config,
                   policy=engine.policy, stages=list(engine.stages),
                   content_token=token, _engine=engine)

    def engine(self) -> "MatchEngine":
        if self._engine is None:
            from .engine import MatchEngine
            self._engine = MatchEngine(self.config, policy=self.policy,
                                       stages=self.stages)
        return self._engine

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_engine"] = None
        return state


def _match_task(artifact: EngineArtifact,
                source: "Database | PreparedSource") -> "MatchResult":
    return artifact.engine().match(source, artifact.prepared)


def _match_reversed_task(artifact: EngineArtifact,
                         target: "Database") -> "MatchResult":
    return artifact.engine().match_reversed(artifact.prepared, target)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------

class MatchExecutor:
    """Batch runner for match / scenario tasks, serial or on a process pool.

    The executor is reusable (and closeable): it keeps one worker pool
    for its lifetime, whatever artifacts its batches carry, and pickles
    each shared artifact once.  Use as a context manager, or call
    :meth:`close` when done; the serial backend holds no resources.

    ``counters`` accumulates process-lifetime batch telemetry (batches,
    tasks, chunks, worker-cache evictions) for service ``/report``
    surfaces.

    Example
    -------
    >>> from repro.datagen import make_retail_workload
    >>> from repro.engine import ExecutorConfig, MatchEngine, MatchExecutor
    >>> workload = make_retail_workload(target="ryan", seed=7)
    >>> engine = MatchEngine()
    >>> with MatchExecutor(ExecutorConfig(backend="serial")) as executor:
    ...     batch = executor.match_many(engine, [workload.source],
    ...                                 workload.target)
    >>> batch.throughput.tasks
    1
    """

    #: Entries kept in each per-executor memo (wrapped artifacts, pickled
    #: payloads): enough for alternating batches, bounded so a long-lived
    #: executor cycling through many targets cannot grow without limit.
    _MEMO_SLOTS = 4

    def __init__(self, config: ExecutorConfig | None = None):
        self.config = config or ExecutorConfig()
        self.last_throughput: ThroughputReport | None = None
        #: Process-lifetime totals across batches (see class docstring).
        self.counters = {"batches": 0, "tasks": 0, "chunks": 0,
                         "artifact_evictions": 0}
        self._pool: ProcessPoolExecutor | None = None
        #: (id(engine), id(prepared)) -> (engine, prepared, artifact):
        #: repeated batches over the same pair reuse one EngineArtifact,
        #: which is what lets the payload memo below actually hit.  The
        #: strong references pin the ids against recycling.
        self._artifacts: "OrderedDict[tuple[int, int], tuple]" = OrderedDict()
        #: Pickled-payload memo: shipping key -> (pin, token, blob).  The
        #: key is the artifact's stable token when it has one (so
        #: equal-content artifacts hit across object lifetimes), else its
        #: id(), pinned against recycling by the stored artifact.
        self._shipped: "OrderedDict[str | int, tuple[Any, str, bytes]]" = \
            OrderedDict()

    @property
    def transport(self) -> str | None:
        """How this executor's batches ship their shared artifact
        (:attr:`ThroughputReport.transport`): ``"pickle"`` for the process
        backend, None in-process."""
        return "pickle" if self.config.backend == "process" else None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool (if any); the executor stays usable
        and lazily starts a new pool on the next process batch."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "MatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- generic batch core --------------------------------------------
    def run_tasks(self, fn: Callable, payloads: Iterable[Any], *,
                  artifact: Any = None) -> BatchResult:
        """Run ``fn`` over every payload, returning results in submission
        order plus the batch's :class:`ThroughputReport`.

        ``fn`` must be a module-level callable (workers import it by
        reference).  It is called as ``fn(payload)``, or as
        ``fn(artifact, payload)`` when *artifact* is given — the serial
        backend passes the caller's object, the process backend a
        worker-cached unpickled copy.
        """
        payloads = list(payloads)
        started = time.perf_counter()
        transport: str | None = None
        chunks = transfer = evictions = 0
        if not payloads:
            # Nothing to do — don't pickle the artifact or spin a pool up.
            results, timings = [], []
        elif self.config.backend == "serial":
            out = _timed_tasks(fn, artifact, payloads)
            results, timings = [r for r, _ in out], [t for _, t in out]
        else:
            transport = self.transport
            results, timings, chunks, transfer, evictions = \
                self._run_process(fn, payloads, artifact)
        report = ThroughputReport(
            backend=self.config.backend,
            workers=self.config.resolved_workers(),
            tasks=len(payloads),
            wall_seconds=time.perf_counter() - started,
            task_seconds=timings,
            prepare_transfer_bytes=transfer,
            transport=transport,
            chunks=chunks,
            artifact_evictions=evictions)
        self.last_throughput = report
        self.counters["batches"] += 1
        self.counters["tasks"] += len(payloads)
        self.counters["chunks"] += chunks
        self.counters["artifact_evictions"] += evictions
        return BatchResult(results=results, throughput=report)

    def _run_process(self, fn: Callable, payloads: list, artifact: Any
                     ) -> tuple[list, list[float], int, int, int]:
        token, blob = (self._ship(artifact) if artifact is not None
                       else (None, None))
        pool = self._ensure_pool()
        size = self.config.resolved_chunk_size(len(payloads))
        chunks = [payloads[i:i + size]
                  for i in range(0, len(payloads), size)]
        futures = [pool.submit(_run_chunk, fn, token, blob, chunk)
                   for chunk in chunks]
        results: list[Any] = []
        timings: list[float] = []
        evictions = 0
        try:
            for future in futures:
                out, chunk_evictions = future.result()
                for result, elapsed in out:
                    results.append(result)
                    timings.append(elapsed)
                evictions += chunk_evictions
        except BaseException:
            # A broken pool (killed worker) cannot run later chunks; drop
            # it so the next batch starts a fresh one.
            self.close()
            raise
        # Every chunk carried the whole pickle.
        transfer = len(blob) * len(chunks) if blob is not None else 0
        return results, timings, len(chunks), transfer, evictions

    def _artifact_for(self, engine: "MatchEngine",
                      prepared: "PreparedTarget",
                      token: str | None = None) -> EngineArtifact:
        """One EngineArtifact per (engine, prepared) pair, memoized so
        consecutive batches ship (and workers cache) the same object.

        The memo is validated against the engine's live configuration —
        swapping ``engine.stages`` (the advertised pluggable surface)
        between batches invalidates the entry, so both backends always see
        the same pipeline.
        """
        key = (id(engine), id(prepared))
        entry = self._artifacts.get(key)
        if (entry is not None and entry[0] is engine
                and entry[1] is prepared
                and entry[2].config is engine.config
                and entry[2].policy is engine.policy
                and entry[2].content_token == token
                and entry[2].stages == list(engine.stages)):
            self._artifacts.move_to_end(key)
            return entry[2]
        artifact = EngineArtifact.of(engine, prepared, token=token)
        self._artifacts[key] = (engine, prepared, artifact)
        while len(self._artifacts) > self._MEMO_SLOTS:
            self._artifacts.popitem(last=False)
        return artifact

    # -- process-backend plumbing --------------------------------------
    def _ship(self, artifact: Any) -> tuple[str, bytes]:
        """``(shipping token, pickle)`` of *artifact*, memoized so
        repeated batches never re-pickle it.

        Plain artifacts token by the digest of their pickle, memoized per
        object.  An :class:`EngineArtifact` carrying a ``content_token``
        ships under a *stable* token instead (see :meth:`_stable_token`),
        so a different object with equal content hits the memo: no
        re-pickling, and the worker-side artifact caches stay warm.
        """
        stable = self._stable_token(artifact)
        key = stable if stable is not None else id(artifact)
        entry = self._shipped.get(key)
        if entry is not None and (stable is not None or entry[0] is artifact):
            self._shipped.move_to_end(key)
            return entry[1], entry[2]
        blob = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        token = stable or hashlib.sha256(blob).hexdigest()
        self._shipped[key] = (None if stable is not None else artifact,
                              token, blob)
        self._shipped.move_to_end(key)
        while len(self._shipped) > self._MEMO_SLOTS:
            self._shipped.popitem(last=False)
        return token, blob

    @staticmethod
    def _stable_token(artifact: Any) -> str | None:
        """Content-derived shipping token of an EngineArtifact — a digest
        of the prepared side's content token plus the engine-side
        configuration (config, policy, stages), which the content token
        alone does not cover, so two engines with differing
        configurations sharing one content token still get distinct
        shipping tokens.  None for artifacts without a content token."""
        content_token = getattr(artifact, "content_token", None)
        if content_token is None:
            return None
        engine_side = pickle.dumps(
            (artifact.config, artifact.policy, artifact.stages),
            protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(content_token.encode("utf-8"))
        digest.update(engine_side)
        return digest.hexdigest()

    @staticmethod
    def _mp_context():
        """Pick a worker start method: fork when it is safe (cheap spawn,
        inherited warm caches), forkserver otherwise.

        Forking a multi-threaded parent can deadlock the children on
        locks a sibling thread held at fork time, so fork is only chosen
        when this process has a single live thread; threaded callers
        (servers) get forkserver, falling back to the platform default
        where neither POSIX method exists.
        """
        try:
            if threading.active_count() == 1:
                return multiprocessing.get_context("fork")
            return multiprocessing.get_context("forkserver")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The executor's one worker pool; chunks carry their own
        artifact seed, so the pool never depends on what it runs."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.resolved_workers(),
                mp_context=self._mp_context())
        return self._pool

    # -- high-level batches --------------------------------------------
    def match_many(self, engine: "MatchEngine",
                   sources: Iterable["Database | PreparedSource"],
                   target: "Database | PreparedTarget",
                   *, token: str | None = None) -> BatchResult:
        """Fan :meth:`MatchEngine.match` over *sources* against one shared
        target, prepared (at most) once up front.

        Results are :class:`~repro.context.model.MatchResult` objects in
        input order, each with its :class:`RunReport` — bit-identical
        across backends.

        ``token`` is the prepared target's stable content token (an
        :class:`~repro.store.ArtifactStore` token) when the caller knows
        one: the process backend then keys its pickled payload by content
        instead of object identity, so serving loops that evict and
        reload the same target keep their worker caches warm (see
        :meth:`_ship`).
        """
        prepared, _ = engine._resolve(target)
        artifact = self._artifact_for(engine, prepared, token=token)
        return self.run_tasks(_match_task, sources, artifact=artifact)

    def match_reversed_many(self, engine: "MatchEngine",
                            source: "Database | PreparedTarget",
                            targets: Iterable["Database"],
                            *, token: str | None = None) -> BatchResult:
        """Fan :meth:`MatchEngine.match_reversed` over *targets* with one
        shared conditioned side (the *source*, which is the prepared side
        of a reversed run), prepared once up front.  ``token`` works as in
        :meth:`match_many`."""
        prepared, _ = engine._resolve(source)
        artifact = self._artifact_for(engine, prepared, token=token)
        return self.run_tasks(_match_reversed_task, targets,
                              artifact=artifact)
