"""Cross-target routing: one source ranked against many prepared hubs.

:class:`TargetRepository` holds a set of hub targets — in memory, or
backed by an :class:`~repro.store.ArtifactStore` — as
:class:`~repro.engine.prepared.PreparedTarget` artifacts keyed by stable
content token.  :meth:`TargetRepository.match_one` runs one source
against every hub with a single shared
:class:`~repro.engine.prepared.PreparedSource` (the source is profiled
once, not once per hub) and returns a :class:`RepositoryResult`: the
per-hub :class:`~repro.context.model.MatchResult` plus a comparable
:class:`HubScore` per hub, ranked best-first with deterministic
tie-breaks.  :meth:`TargetRepository.route_many` is the M×K batch form,
fanned through a :class:`~repro.engine.executor.MatchExecutor` as one
chunked task batch per hub under the hub's content token, so worker-side
artifact caches stay warm across batches.

The repository score is derived from what the engine *accepted*, not
from raw similarity: each distinct source attribute contributes its
best accepted match's confidence, weighted down
(:data:`STANDARD_MATCH_WEIGHT`) when that match carries no inferred
context.  A contextual match is corroborated evidence of domain fit —
the engine found a selection condition under which the source's rows
populate the hub's split tables — whereas a flat value-overlap match
(ids look like ids, prices like prices) recurs across unrelated
domains.  Every factor is a deterministic function of the match result,
so rankings are reproducible run to run; exact ties order by match
count, then database name, then token.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from typing import Any, Iterable, Mapping, Sequence

from ..context.model import MatchResult
from ..engine.engine import MatchEngine
from ..engine.executor import MatchExecutor
from ..engine.prepared import PreparedSource, PreparedTarget
from ..errors import ArtifactNotFoundError, EngineError
from ..relational.instance import Database, Relation
from ..relational.jsonio import database_from_dict
from ..store.artifacts import ArtifactStore
from ..store.tokens import database_token

__all__ = ["HubScore", "RepositoryResult", "TargetRepository",
           "rank_hub_scores", "score_hub"]


#: Weight a non-contextual accepted match contributes to the hub score,
#: relative to a contextual one.  Flat value-overlap matches are weak
#: routing evidence — they recur across unrelated domains — so they
#: count at half strength; matches with an inferred condition count in
#: full.
STANDARD_MATCH_WEIGHT = 0.5


@dataclasses.dataclass(frozen=True)
class HubScore:
    """How well one hub fits one source — the comparable unit of a
    repository ranking.

    ``score`` averages, over *all* source attributes, each attribute's
    best accepted-match confidence (0 when unmatched), discounted by
    :data:`STANDARD_MATCH_WEIGHT` when the best match is non-contextual.
    A hub only ranks high when it explains most of the source's
    attributes confidently *and* contextually.  ``coverage`` is the
    matched fraction of source attributes; ``mean_confidence`` the
    undiscounted mean of the per-attribute best confidences.  ``result``
    carries the full per-hub
    :class:`~repro.context.model.MatchResult` for drill-down.
    """

    token: str
    database: str
    score: float
    coverage: float
    mean_confidence: float
    n_matches: int
    n_contextual: int
    result: MatchResult = dataclasses.field(repr=False, compare=False)

    def sort_key(self) -> tuple:
        """Best-first ordering with deterministic tie-breaks: score,
        then accepted-match count, then database name, then token."""
        return (-self.score, -self.n_matches, self.database, self.token)


@dataclasses.dataclass
class RepositoryResult:
    """One source routed across a repository: hubs ranked best-first."""

    source: str
    ranking: list[HubScore]
    elapsed_seconds: float = 0.0

    @property
    def best(self) -> HubScore | None:
        """The winning hub (None only for an empty repository)."""
        return self.ranking[0] if self.ranking else None

    def result_for(self, token: str) -> MatchResult:
        """The full per-hub match result for one ranked token."""
        for hub in self.ranking:
            if hub.token == token:
                return hub.result
        raise KeyError(token)

    def __str__(self) -> str:
        best = self.best
        placed = (f"-> {best.database} ({best.score:.3f})" if best
                  else "-> <empty repository>")
        return f"{self.source} {placed} [{len(self.ranking)} hubs]"


def score_hub(source: Database, result: MatchResult, *, token: str,
              database: str) -> HubScore:
    """Score one hub's match result against the source that produced it.

    Per distinct *source* attribute (contextual matches name their base
    table, so view-level matches collapse onto the base attribute they
    explain) only the best accepted match counts — one attribute matching
    both of a hub's split tables is one explained attribute, not two.
    The best match's confidence is discounted by
    :data:`STANDARD_MATCH_WEIGHT` unless some match for that attribute
    is contextual; the score averages these contributions over all
    source attributes, matched or not.
    """
    total = sum(len(relation.schema) for relation in source)
    best: dict[tuple[str, str], float] = {}
    contextual: dict[tuple[str, str], bool] = {}
    for match in result.matches:
        key = (match.source.table, match.source.attribute)
        best[key] = max(best.get(key, 0.0), match.confidence)
        contextual[key] = contextual.get(key, False) or match.is_contextual
    coverage = len(best) / total if total else 0.0
    mean_confidence = sum(best.values()) / len(best) if best else 0.0
    weighted = sum(
        confidence * (1.0 if contextual[key] else STANDARD_MATCH_WEIGHT)
        for key, confidence in best.items())
    return HubScore(
        token=token, database=database,
        score=weighted / total if total else 0.0, coverage=coverage,
        mean_confidence=mean_confidence, n_matches=len(result.matches),
        n_contextual=sum(1 for m in result.matches if m.is_contextual),
        result=result)


def rank_hub_scores(scores: Iterable[HubScore]) -> list[HubScore]:
    """Best-first, deterministically tie-broken hub ranking."""
    return sorted(scores, key=HubScore.sort_key)


class TargetRepository:
    """Many prepared hub targets behind one routing surface.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.MatchEngine` every route runs
        under.  Hubs added as pre-built artifacts are checked against it,
        exactly as in direct engine use.
    store:
        Optional :class:`~repro.store.ArtifactStore` (or path).  When
        set, :meth:`add` and :meth:`append_rows` persist the hubs they
        prepare, so the repository survives the process.

    Example
    -------
    >>> from repro.datagen import build_scenario
    >>> repo = TargetRepository()
    >>> events = build_scenario("events")
    >>> retail = build_scenario("retail")
    >>> _ = repo.add(events.target)
    >>> _ = repo.add(retail.target)
    >>> repo.match_one(events.source).best.database == events.target.name
    True
    """

    def __init__(self, engine: MatchEngine | None = None, *,
                 store: ArtifactStore | str | None = None):
        self.engine = engine if engine is not None else MatchEngine()
        self.store = (ArtifactStore(store)
                      if store is not None and not isinstance(store,
                                                              ArtifactStore)
                      else store)
        self._hubs: "OrderedDict[str, PreparedTarget]" = OrderedDict()
        self.counters = {"routes": 0, "pairs": 0, "appends": 0}

    @classmethod
    def from_store(cls, store: ArtifactStore | str,
                   engine: MatchEngine | None = None, *,
                   tokens: Sequence[str] | None = None
                   ) -> "TargetRepository":
        """A repository over every prepared target in *store* that this
        library can load (or just *tokens*), registered oldest-first for
        stable ranking ties."""
        repo = cls(engine, store=store)
        if tokens is None:
            tokens = [entry.token for entry in reversed(repo.store.entries())
                      if entry.loadable]
        for token in tokens:
            repo.add_token(token)
        return repo

    # -- membership ----------------------------------------------------
    def add(self, target: Database | PreparedTarget, *,
            token: str | None = None) -> str:
        """Register a hub; returns its content token.

        Plain databases are prepared by this repository's engine;
        pre-built :class:`PreparedTarget` artifacts are compatibility-
        checked.  With a backing store the artifact is persisted (the
        store's content token becomes the hub key); otherwise hubs key on
        the target database's content token.
        """
        if isinstance(target, PreparedTarget):
            self.engine._check_compatible(target)
            prepared = target
        else:
            prepared = self.engine.prepare(target)
        if token is None:
            token = self._token_of(prepared)
        self._hubs[token] = prepared
        return token

    def _token_of(self, prepared: PreparedTarget) -> str:
        """A hub's key: its store token (saving it) when the repository
        is store-backed, its target's content token otherwise."""
        if self.store is not None:
            return self.store.save(prepared, engine=self.engine).token
        return database_token(prepared.target)

    def add_token(self, token: str) -> str:
        """Register an already-stored hub by content token."""
        if self.store is None:
            raise EngineError(
                "TargetRepository has no backing store to load "
                f"token {token!r} from")
        prepared = self.store.load_target(token)
        self.engine._check_compatible(prepared)
        self._hubs[token] = prepared
        return token

    def tokens(self) -> list[str]:
        """Hub tokens in registration order."""
        return list(self._hubs)

    def hub(self, token: str) -> PreparedTarget:
        try:
            return self._hubs[token]
        except KeyError:
            raise ArtifactNotFoundError(
                token, str(self.store.root) if self.store is not None
                else "<in-memory repository>") from None

    def __len__(self) -> int:
        return len(self._hubs)

    def __contains__(self, token: object) -> bool:
        return token in self._hubs

    # -- routing -------------------------------------------------------
    def _as_source(self, source: Database | PreparedSource |
                   Mapping[str, Any]) -> PreparedSource:
        """One shared PreparedSource per routed source — profiled once,
        reused against every hub."""
        if isinstance(source, PreparedSource):
            return source
        if isinstance(source, Database):
            return self.engine.prepare_source(source)
        return self.engine.prepare_source(database_from_dict(source))

    def _require_hubs(self) -> None:
        if not self._hubs:
            raise EngineError("cannot route against an empty "
                              "TargetRepository; add() hub targets first")

    def match_one(self, source: Database | PreparedSource |
                  Mapping[str, Any]) -> RepositoryResult:
        """Route one source against every hub; hubs ranked best-first."""
        self._require_hubs()
        started = time.perf_counter()
        prepared_source = self._as_source(source)
        scores = []
        for token, hub in self._hubs.items():
            result = self.engine.match(prepared_source, hub)
            scores.append(score_hub(prepared_source.source, result,
                                    token=token, database=hub.target.name))
        self.counters["routes"] += 1
        self.counters["pairs"] += len(self._hubs)
        return RepositoryResult(source=prepared_source.source.name,
                                ranking=rank_hub_scores(scores),
                                elapsed_seconds=time.perf_counter() - started)

    def route_many(self, sources: Iterable[Database | PreparedSource |
                                           Mapping[str, Any]], *,
                   executor: MatchExecutor | None = None
                   ) -> list[RepositoryResult]:
        """Route M sources against K hubs as K chunked executor batches.

        Each hub's batch ships once under the hub's stable content token,
        so the executor's worker-side artifact caches are hit K times,
        not M×K; every source is profiled once into a shared
        :class:`PreparedSource`.  Results come back in source order and
        are identical to per-source :meth:`match_one` calls.
        """
        self._require_hubs()
        started = time.perf_counter()
        prepared_sources = [self._as_source(source) for source in sources]
        owned = executor is None
        if owned:
            executor = MatchExecutor()
        per_hub: dict[str, list[MatchResult]] = {}
        try:
            for token, hub in self._hubs.items():
                batch = executor.match_many(self.engine, prepared_sources,
                                            hub, token=token)
                per_hub[token] = list(batch.results)
        finally:
            if owned:
                executor.close()
        elapsed = time.perf_counter() - started
        routed = []
        for position, prepared_source in enumerate(prepared_sources):
            scores = [
                score_hub(prepared_source.source, per_hub[token][position],
                          token=token, database=hub.target.name)
                for token, hub in self._hubs.items()]
            routed.append(RepositoryResult(
                source=prepared_source.source.name,
                ranking=rank_hub_scores(scores),
                elapsed_seconds=elapsed / len(prepared_sources)))
        self.counters["routes"] += len(prepared_sources)
        self.counters["pairs"] += len(prepared_sources) * len(self._hubs)
        return routed

    # -- maintenance ---------------------------------------------------
    def append_rows(self, token: str,
                    rows: Mapping[str, Sequence[Any]]) -> str:
        """Append rows to one hub's tables and re-prepare it.

        *rows* maps table names to row sequences (dict rows — missing
        keys become NULLs — or schema-order tuples); an unknown table
        raises :class:`~repro.errors.UnknownTableError`.  The grown
        database is prepared with this repository's engine and keyed as
        :meth:`add` keys a hub (saved when the repository is
        store-backed), so the hub is a fresh :meth:`MatchEngine.prepare`
        of the grown database.  It keeps its ranking position under a
        new content token, which is returned.
        """
        target = self.hub(token).target
        deltas = {name: Relation.from_rows(target.relation(name).schema,
                                           list(table_rows))
                  for name, table_rows in rows.items()}
        grown = Database(target.schema, [
            relation.concat(deltas[relation.name])
            if relation.name in deltas else relation
            for relation in target])
        updated = self.engine.prepare(grown)
        new_token = self._token_of(updated)
        replaced: "OrderedDict[str, PreparedTarget]" = OrderedDict()
        for existing, hub in self._hubs.items():
            if existing == token:
                replaced[new_token] = updated
            else:
                replaced[existing] = hub
        self._hubs = replaced
        self.counters["appends"] += 1
        return new_token

    def __repr__(self) -> str:
        backing = (f"store={self.store.root}" if self.store is not None
                   else "in-memory")
        return f"<TargetRepository {len(self._hubs)} hubs, {backing}>"
