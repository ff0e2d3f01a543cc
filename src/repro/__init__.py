"""repro — contextual schema matching.

A from-scratch reproduction of Bohannon, Elnahrawy, Fan & Flaster,
*Putting Context into Schema Matching* (VLDB 2006).

The library provides:

* a relational substrate (:mod:`repro.relational`) — schemas, in-memory
  instances, selection conditions, select-only views, and (contextual)
  key / foreign-key constraints;
* a multi-matcher instance-based standard schema matcher
  (:mod:`repro.matching`);
* the contextual matching framework (:mod:`repro.context` +
  :mod:`repro.engine`) — the paper's core contribution: the five-stage
  ContextMatch pipeline (Figure 5) with the ``NaiveInfer`` /
  ``SrcClassInfer`` / ``TgtClassInfer`` candidate-view generators, early /
  late disjunct handling and ``MultiTable`` / ``QualTable`` selection;
* a relational Clio-style schema mapping generator extended with contextual
  foreign keys, constraint-propagation rules and the join 1/2/3 association
  rules (:mod:`repro.mapping`);
* workload generators and the full experimental harness reproducing every
  figure of the paper's evaluation (:mod:`repro.datagen`,
  :mod:`repro.evaluation`).

Quickstart — the engine API.  :meth:`MatchEngine.prepare` profiles a
target schema once; ``match`` / ``match_many`` then run the pipeline for
any number of sources without re-indexing, and every result carries a
per-stage :class:`RunReport`::

    from repro import MatchEngine, ContextMatchConfig
    from repro.datagen import make_retail_workload

    workload = make_retail_workload(target="ryan", seed=7)
    engine = MatchEngine(ContextMatchConfig())
    prepared = engine.prepare(workload.target)

    result = engine.match(workload.source, prepared)
    for match in result.matches:
        print(match)
    print(result.report)            # per-stage timings + counts

    # Batch mode: the target index is built exactly once.
    results = engine.match_many([workload.source], prepared)

    # Source-side reuse: profiles/partitions persist across runs.
    prepared_src = engine.prepare_source(workload.source)
    result = engine.match(prepared_src, prepared)

    # Scale out: fan the batch across worker processes (bit-identical).
    from repro import ExecutorConfig, MatchExecutor
    with MatchExecutor(ExecutorConfig(backend="process",
                                      max_workers=4)) as executor:
        batch = executor.match_many(engine, [workload.source], prepared)
    print(batch.throughput)     # tasks, workers, wall, per-task elapsed

    # Persist the prepared target and serve it (see `repro serve`):
    from repro import ArtifactStore, MatchService
    store = ArtifactStore("artifacts/")
    token = store.save(prepared, engine=engine).token
    with MatchService(store) as service:
        result, _ = service.match(workload.source, token)

    # Route one source across every stored hub, ranked best-first
    # (see `repro match-repo` and `POST /match-repository`):
    from repro import TargetRepository
    repo = TargetRepository.from_store(store, engine)
    routed = repo.match_one(workload.source)
    print(routed)               # source -> best hub (score) [K hubs]

The pre-engine entry point is kept as a thin backward-compatible facade:
``ContextMatch(config).run(source, target)`` is exactly
``MatchEngine(config).match(source, target)``.
"""

from .context import (ContextMatch, ContextMatchConfig, ContextualMatch,
                      MatchResult)
from .engine import (BatchResult, EngineObserver, ExecutorConfig,
                     MatchEngine, MatchExecutor, PreparedSource,
                     PreparedTarget, RunReport, Stage, StageReport,
                     ThroughputReport, default_stages)
from .matching import StandardMatch, StandardMatchConfig
from .profiling import ColumnProfile, PartitionIndex, ProfileStore
from .relational import (Attribute, Condition, Database, DataType, Eq, In,
                         Relation, Schema, TableSchema, View, ViewFamily)
from .repository import HubScore, RepositoryResult, TargetRepository
from .retrieval import RetrievalIndex
from .service import MatchService, ServiceReport, start_service
from .store import ArtifactStore, StoreEntry

from ._version import __version__

__all__ = [
    "MatchEngine",
    "PreparedTarget",
    "PreparedSource",
    "MatchExecutor",
    "ExecutorConfig",
    "BatchResult",
    "ThroughputReport",
    "ProfileStore",
    "ColumnProfile",
    "PartitionIndex",
    "RunReport",
    "StageReport",
    "Stage",
    "default_stages",
    "EngineObserver",
    "ContextMatch",
    "ContextMatchConfig",
    "ContextualMatch",
    "MatchResult",
    "StandardMatch",
    "StandardMatchConfig",
    "Attribute",
    "Condition",
    "Database",
    "DataType",
    "Eq",
    "In",
    "Relation",
    "Schema",
    "TableSchema",
    "View",
    "ViewFamily",
    "RetrievalIndex",
    "TargetRepository",
    "RepositoryResult",
    "HubScore",
    "ArtifactStore",
    "StoreEntry",
    "MatchService",
    "ServiceReport",
    "start_service",
    "__version__",
]
