"""Run scheduling, repetition and averaging helpers for experiment drivers.

The paper averages every data point over 8-200 random partitions of the
sample data; drivers here average over (workload seed, partition seed)
pairs.  All aggregation is deterministic given the seed lists.

:class:`EngineRunner` routes every experiment run through a
:class:`~repro.engine.MatchEngine`, keeping small LRUs of
:class:`~repro.engine.PreparedTarget` and
:class:`~repro.engine.PreparedSource` artifacts so a sweep that evaluates
many configurations against the same workload profiles each target — and
each source column/partition — exactly once instead of once per
configuration point.
"""

from __future__ import annotations

import dataclasses
import math
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable, TypeVar

from ..context.model import ContextMatchConfig, MatchResult
from ..engine.engine import MatchEngine
from ..engine.prepared import PreparedSource, PreparedTarget
from ..relational.instance import Database
from ..store.tokens import database_token as compute_database_token

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.artifacts import ArtifactStore

T = TypeVar("T")

__all__ = ["Averaged", "summarize", "seed_pairs", "EngineRunner"]


class EngineRunner:
    """Matching front-end for experiment sweeps, with prepared-target reuse.

    Preparation happens outside the timed run, so ``elapsed_seconds`` of
    every result measures the matching pipeline alone — the same quantity
    for the first and the hundredth configuration against a target, which
    keeps averaged runtime series comparable.

    Entries are keyed by database *content token* (a sha256 of schema,
    dtypes and every column value — see
    :func:`repro.store.tokens.database_token`) plus the configuration
    the artifact derives from (the standard-matcher configuration,
    :meth:`MatchEngine.prepared_fingerprint`), so two engines with
    different configurations sharing one runner can never serve each
    other stale prepared artifacts, while a sweep whose
    configurations only vary contextual knobs still prepares each side
    exactly once.  Content tokens replace the previous ``id(database)``
    keys: an ``id()`` says nothing once the object it named is gone —
    after an eviction and a garbage collection the same address can host
    a *different* database, which a content token can never alias.
    Tokens are memoized per live database object (a
    ``WeakKeyDictionary``), so the hash is paid once per object, not once
    per run; as a bonus, equal-content databases now share one prepared
    entry regardless of object identity.

    ``store`` (an :class:`~repro.store.ArtifactStore`) backs the
    prepared-target LRU with disk: evicted or never-seen targets are
    loaded from the store when present (verified, bit-identical) and
    newly prepared ones are saved, so preparation survives the process —
    the same artifacts ``repro serve`` answers from.
    """

    def __init__(self, *, max_prepared: int = 8,
                 store: "ArtifactStore | None" = None):
        self.max_prepared = max_prepared
        self.store = store
        self._prepared: OrderedDict[tuple, PreparedTarget] = OrderedDict()
        self._prepared_sources: OrderedDict[tuple, PreparedSource] = \
            OrderedDict()
        #: database object -> content token, weakly keyed: tokens die with
        #: their objects, and a recycled id() can never inherit one.
        self._db_tokens: "weakref.WeakKeyDictionary[Database, str]" = \
            weakref.WeakKeyDictionary()

    def database_token(self, database: Database) -> str:
        """The (memoized) stable content token of *database*."""
        token = self._db_tokens.get(database)
        if token is None:
            token = compute_database_token(database)
            self._db_tokens[database] = token
        return token

    def prepared_for(self, engine: MatchEngine,
                     target: Database) -> PreparedTarget:
        key = (self.database_token(target), engine.prepared_fingerprint())
        prepared = self._prepared.get(key)
        if prepared is None:
            # A store-backed runner loads (or saves) through the store.
            prepared = engine.prepare(target, store=self.store)
            self._prepared[key] = prepared
            while len(self._prepared) > self.max_prepared:
                self._prepared.popitem(last=False)
        else:
            self._prepared.move_to_end(key)
        return prepared

    def prepared_source_for(self, engine: MatchEngine,
                            source: Database) -> PreparedSource:
        """The shared source-side profile store for *source*.  Profiles
        depend only on the source instance and the standard-matcher
        configuration, so one entry serves every contextual configuration
        sharing those."""
        key = (self.database_token(source), engine.config.standard)
        prepared = self._prepared_sources.get(key)
        if prepared is None:
            prepared = engine.prepare_source(source)
            self._prepared_sources[key] = prepared
            while len(self._prepared_sources) > self.max_prepared:
                self._prepared_sources.popitem(last=False)
        else:
            self._prepared_sources.move_to_end(key)
        return prepared

    def run(self, source: Database, target: Database,
            config: ContextMatchConfig) -> MatchResult:
        """One engine run; reuses target and source preparation when
        possible."""
        engine = MatchEngine(config)
        return engine.match(self.prepared_source_for(engine, source),
                            self.prepared_for(engine, target))


@dataclasses.dataclass(frozen=True)
class Averaged:
    """Mean and spread of a repeated measurement."""

    mean: float
    std: float
    n: int
    values: tuple[float, ...]

    def __str__(self) -> str:
        return f"{self.mean:.1f}±{self.std:.1f} (n={self.n})"


def summarize(values: Iterable[float]) -> Averaged:
    """Population mean/std of a measurement series."""
    values = tuple(float(v) for v in values)
    if not values:
        return Averaged(0.0, 0.0, 0, ())
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return Averaged(mean, math.sqrt(variance), len(values), values)


def seed_pairs(n: int, *, base: int = 0) -> list[tuple[int, int]]:
    """Deterministic (workload seed, partition seed) pairs for averaging."""
    return [(base + 11 + 13 * i, base + 5 + 7 * i) for i in range(n)]
