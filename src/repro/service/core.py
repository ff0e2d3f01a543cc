"""The matching service: hub targets served warm from a token-keyed LRU.

:class:`MatchService` is the engine-side half of ``repro serve`` (the
HTTP loop in :mod:`repro.service.http` is a thin shell around it, and it
is equally usable in-process).  It owns:

* an :class:`~repro.store.ArtifactStore` of prepared hub targets;
* a **warm LRU** keyed by artifact content token: each target is loaded
  (and verified) from the store at most once per process — the first
  request pays the deserialization, every later request is a cache hit.
  ``warm()`` pre-loads the store's targets at startup so even the first
  request is warm.  Counters prove the behavior: ``lru["loads"]`` equals
  the number of distinct targets served, full stop.
* one :class:`~repro.engine.engine.MatchEngine` and one
  :class:`~repro.engine.executor.MatchExecutor` (serial, or an N-worker
  process pool for ``--jobs N``) for batch requests.  Batches ship under
  the target's *stable content token*, so the worker-side artifact
  caches stay warm across LRU turnover, and the one pool serves every
  target (each chunk carries its artifact's pickle).

Concurrency: requests arrive from many server threads.  The LRU and the
counters are lock-protected; per-token load locks make a cold target
load exactly once even under a thundering herd.  Matching itself runs
without locks — a :class:`~repro.engine.prepared.PreparedTarget` is
frozen and no run writes to it.  What runs derive from it (trained
target classifiers, a run-local retrieval index) is built once per
process under the engine's own lock, and the classifiers' lazily
compiled matrices are pure functions of their statistics, so
concurrent population can duplicate work but never change a result.
The service counts the runs it serves per token.  Batch requests
serialize on the executor (one worker pool).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from .._version import __version__
from ..engine.engine import MatchEngine
from ..engine.executor import BatchResult, ExecutorConfig, MatchExecutor
from ..engine.prepared import PreparedTarget
from ..errors import ArtifactNotFoundError
from ..relational.instance import Database
from ..relational.jsonio import database_from_dict
from ..store.artifacts import ArtifactStore, StoreEntry
from .report import ServiceReport, latency_summary

if TYPE_CHECKING:  # pragma: no cover - typing only (repository sits above)
    from ..repository.core import RepositoryResult

__all__ = ["MatchService"]

#: Sliding-window size of the per-endpoint latency series.
_LATENCY_WINDOW = 8192

#: Stage-count keys summed into the service's q-gram cache telemetry.
_TOKEN_CACHE_KEYS = ("token_cache_hits", "token_cache_misses")

#: Stage-count keys summed into the service's retrieval telemetry
#: (stage key -> report key).
_RETRIEVAL_KEYS = {
    "retrieval_queries": "queries",
    "pairs_considered": "pairs_considered",
    "pairs_pruned": "pairs_pruned",
    "retrieval_hits": "hits",
    "retrieval_missed": "missed",
}


class MatchService:
    """Serve match requests against stored, warm-cached hub targets.

    Parameters
    ----------
    store:
        An :class:`~repro.store.ArtifactStore` (or a path to create one
        over).  Hub targets are loaded from here; ``save_target`` writes
        back through it.
    config:
        Engine configuration for every request this service answers.
        Loaded artifacts are checked against it — an artifact prepared
        under an incompatible configuration is refused, exactly as in
        direct engine use.
    jobs:
        Workers for ``/match-many`` batches: None/1 = serial, N > 1 = an
        N-worker process pool
        (:meth:`~repro.engine.executor.ExecutorConfig.for_jobs`).
    capacity:
        Warm-LRU slots; least recently used targets are evicted (and
        transparently reloaded from the store on their next request).

    Example
    -------
    >>> import tempfile
    >>> from repro import MatchEngine
    >>> from repro.datagen import make_retail_workload
    >>> from repro.store import ArtifactStore
    >>> workload = make_retail_workload(target="ryan", seed=7)
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> engine = MatchEngine()
    >>> token = store.save(engine.prepare(workload.target),
    ...                    engine=engine).token
    >>> service = MatchService(store)
    >>> _ = service.warm()
    >>> result, served = service.match(workload.source, token)
    >>> served == token and len(result.matches) > 0
    True
    """

    def __init__(self, store: ArtifactStore | str, *,
                 config: Any = None, jobs: int | None = None,
                 capacity: int = 8):
        self.store = (store if isinstance(store, ArtifactStore)
                      else ArtifactStore(store))
        self.engine = MatchEngine(config)
        self.executor = MatchExecutor(ExecutorConfig.for_jobs(jobs))
        self.capacity = max(1, capacity)
        self._targets: "OrderedDict[str, PreparedTarget]" = OrderedDict()
        self._lock = threading.Lock()
        self._load_locks: dict[str, threading.Lock] = {}
        self._executor_lock = threading.Lock()
        self._started = time.time()
        self.lru_counters = {"hits": 0, "misses": 0, "evictions": 0,
                             "loads": 0}
        self._requests: dict[str, int] = {}
        self._errors = 0
        self._latencies: dict[str, deque] = {}
        self.retrieval_counters = {key: 0 for key in _RETRIEVAL_KEYS.values()}
        self.token_cache_counters = {key: 0 for key in _TOKEN_CACHE_KEYS}
        self.repository_counters = {"requests": 0, "pairs": 0}
        #: Runs served per target token: one per match, one per source
        #: of a batch, one per hub of a repository route.
        self._runs: dict[str, int] = {}

    # -- warm cache ----------------------------------------------------
    def warm(self, tokens: Iterable[str] | None = None) -> list[str]:
        """Load hub targets into the LRU up front; returns the tokens
        that are actually resident afterwards.

        With no *tokens*, every entry in the store that this library can
        load is eligible, newest first — the serve loop calls this once at
        startup so the first request of every popular target is already
        warm.  Either way the request is clamped to the LRU capacity:
        warming more targets than fit would evict the earliest ones
        while claiming them warm.
        """
        if tokens is None:
            tokens = [entry.token for entry in self.store.entries()
                      if entry.loadable]
        requested = list(tokens)[:self.capacity]
        for token in requested:
            self._target_for(token)
        with self._lock:
            return [token for token in requested if token in self._targets]

    def _load_lock(self, token: str) -> threading.Lock:
        with self._lock:
            lock = self._load_locks.get(token)
            if lock is None:
                lock = self._load_locks[token] = threading.Lock()
            return lock

    def _target_for(self, token: str) -> PreparedTarget:
        """The warm prepared target for *token*: LRU hit, or exactly one
        store load per token no matter how many threads race for it."""
        with self._lock:
            prepared = self._targets.get(token)
            if prepared is not None:
                self.lru_counters["hits"] += 1
                self._targets.move_to_end(token)
                return prepared
            self.lru_counters["misses"] += 1
        with self._load_lock(token):
            # Double-checked: the herd's first thread loads, the rest
            # find the entry on re-check.
            with self._lock:
                prepared = self._targets.get(token)
                if prepared is not None:
                    self._targets.move_to_end(token)
                    return prepared
            loaded = self.store.load_target(token)
            self.engine._check_compatible(loaded)
            with self._lock:
                self.lru_counters["loads"] += 1
                self._targets[token] = loaded
                self._evict_overflow()
            return loaded

    def _evict_overflow(self) -> None:
        """Evict LRU overflow and drop the evicted tokens' load locks —
        otherwise a long-lived server cycling many targets leaks one
        lock per token it has ever seen.  Caller holds ``_lock``."""
        while len(self._targets) > self.capacity:
            evicted, _ = self._targets.popitem(last=False)
            self._load_locks.pop(evicted, None)
            self.lru_counters["evictions"] += 1

    def resolve(self, ref: str) -> str:
        """Resolve a target reference — a content token or a database
        name — to a token.  Names resolve to the newest stored target of
        that name that this library can load; unknown references raise
        :class:`~repro.errors.ArtifactNotFoundError`."""
        if ref in self._targets or ref in self.store:
            return ref
        for entry in self.store.entries():
            if entry.database == ref and entry.loadable:
                return entry.token
        raise ArtifactNotFoundError(ref, str(self.store.root))

    # -- request surface -----------------------------------------------
    @staticmethod
    def _as_database(source: Database | Mapping[str, Any]) -> Database:
        if isinstance(source, Database):
            return source
        return database_from_dict(source)

    def _absorb_runs(self, served: Iterable[str], *results: Any) -> None:
        """Count the runs served against *served* (a token per result)
        and accumulate their retrieval and q-gram cache stage counts into
        the service's process-lifetime telemetry (surfaced by
        ``/report``)."""
        retrieval = {key: 0 for key in _RETRIEVAL_KEYS.values()}
        tokens = {key: 0 for key in _TOKEN_CACHE_KEYS}
        for result in results:
            report = getattr(result, "report", None)
            if report is None:
                continue
            for stage in report.stages:
                for stage_key, report_key in _RETRIEVAL_KEYS.items():
                    retrieval[report_key] += stage.counts.get(stage_key, 0)
                for key in _TOKEN_CACHE_KEYS:
                    tokens[key] += stage.counts.get(key, 0)
        with self._lock:
            for token in served:
                self._runs[token] = self._runs.get(token, 0) + 1
            for key, value in retrieval.items():
                self.retrieval_counters[key] += value
            for key, value in tokens.items():
                self.token_cache_counters[key] += value

    def match(self, source: Database | Mapping[str, Any],
              target_ref: str) -> tuple[Any, str]:
        """One match run against a warm target; returns
        ``(MatchResult, resolved token)``."""
        token = self.resolve(target_ref)
        prepared = self._target_for(token)
        result = self.engine.match(self._as_database(source), prepared)
        self._absorb_runs([token], result)
        return result, token

    def match_many(self, sources: Iterable[Database | Mapping[str, Any]],
                   target_ref: str) -> tuple[BatchResult, str]:
        """One executor batch against a warm target; returns
        ``(BatchResult, resolved token)``.  Batches serialize on the
        service's one executor (and its one worker pool); the shared
        artifact ships under the target's stable content token."""
        token = self.resolve(target_ref)
        prepared = self._target_for(token)
        databases = [self._as_database(source) for source in sources]
        with self._executor_lock:
            batch = self.executor.match_many(self.engine, databases,
                                             prepared, token=token)
        self._absorb_runs([token] * len(batch.results), *batch.results)
        return batch, token

    def match_repository(self, source: Database | Mapping[str, Any],
                         target_refs: Iterable[str] | None = None
                         ) -> tuple["RepositoryResult", list[str]]:
        """Route one source against many warm targets; returns
        ``(RepositoryResult, routed tokens)``.

        With no *target_refs* the whole store acts as the repository:
        every entry this library can load, oldest first (so ranking
        tie-breaks are stable across restarts).  Explicit references
        resolve like :meth:`match` targets — content tokens or database
        names — and are deduplicated in order.  The hubs, served from the
        warm LRU, are routed as a
        :class:`~repro.repository.core.TargetRepository` does: the source
        is profiled once into a shared
        :class:`~repro.engine.prepared.PreparedSource` and reused against
        every hub.
        """
        from ..repository.core import TargetRepository

        if target_refs is None:
            tokens = [entry.token for entry in reversed(self.store.entries())
                      if entry.loadable]
        else:
            tokens = [self.resolve(ref) for ref in target_refs]
        tokens = list(dict.fromkeys(tokens))
        if not tokens:
            raise ArtifactNotFoundError("<any prepared target>",
                                        str(self.store.root))
        database = self._as_database(source)
        repository = TargetRepository(self.engine)
        for token in tokens:
            repository.add(self._target_for(token), token=token)
        routed = repository.match_one(database)
        self._absorb_runs(tokens, *(hub.result for hub in routed.ranking))
        with self._lock:
            self.repository_counters["requests"] += 1
            self.repository_counters["pairs"] += len(tokens)
        return routed, tokens

    def save_target(self, target: Database | Mapping[str, Any]
                    ) -> StoreEntry:
        """Prepare a new hub target with this service's engine and
        persist it; the entry is immediately servable (and warmed)."""
        prepared = self.engine.prepare(self._as_database(target))
        entry = self.store.save(prepared, engine=self.engine)
        with self._lock:
            # Assignment either inserts at the MRU end (fresh token) or
            # refreshes the value in place; only a re-save of a resident
            # token needs the explicit move to the MRU end.
            resident = entry.token in self._targets
            self._targets[entry.token] = prepared
            if resident:
                self._targets.move_to_end(entry.token)
            self._evict_overflow()
        return entry

    # -- telemetry -----------------------------------------------------
    def observe(self, endpoint: str, elapsed_ms: float,
                *, error: bool = False) -> None:
        """Record one served request (called by the HTTP layer)."""
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1
            if error:
                self._errors += 1
            window = self._latencies.get(endpoint)
            if window is None:
                window = self._latencies[endpoint] = \
                    deque(maxlen=_LATENCY_WINDOW)
            window.append(elapsed_ms)

    def target_entries(self) -> list[dict[str, Any]]:
        """Warm + stored targets: manifest fields, whether the target is
        warm, and the runs this service served against it."""
        with self._lock:
            warm = set(self._targets)
            runs = dict(self._runs)
        return [{"token": entry.token, "database": entry.database,
                 "tables": entry.tables, "size_bytes": entry.size_bytes,
                 "warm": entry.token in warm,
                 "runs": runs.get(entry.token, 0)}
                for entry in self.store.entries()]

    def report(self) -> ServiceReport:
        """A :class:`ServiceReport` snapshot of this service."""
        with self._lock:
            requests = dict(self._requests)
            errors = self._errors
            latency = {endpoint: latency_summary(list(window))
                       for endpoint, window in self._latencies.items()}
            lru = dict(self.lru_counters,
                       size=len(self._targets), capacity=self.capacity)
            warm = [{"token": token, "database": prepared.target.name,
                     "runs": self._runs.get(token, 0)}
                    for token, prepared in reversed(self._targets.items())]
            retrieval = dict(self.retrieval_counters)
            repository = dict(self.repository_counters)
            token_cache = dict(self.token_cache_counters)
        prunable = retrieval["hits"] + retrieval["missed"]
        retrieval["recall"] = (retrieval["hits"] / prunable if prunable
                               else 1.0)
        return ServiceReport(
            version=__version__, store_path=str(self.store.root),
            uptime_seconds=time.time() - self._started,
            requests=sum(requests.values()), errors=errors,
            endpoints=requests, latency_ms=latency, lru=lru,
            store=dict(self.store.counters, entries=len(self.store)),
            executor=dict(
                {"backend": self.executor.config.backend,
                 "workers": self.executor.config.resolved_workers(),
                 "transport": self.executor.transport},
                **self.executor.counters),
            targets=warm, retrieval=retrieval, repository=repository,
            token_cache=token_cache)

    def close(self) -> None:
        """Release the executor's worker pool (if any)."""
        self.executor.close()

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
