"""Reusable per-side artifacts — the expensive halves of a match run.

Enterprise deployments repeatedly match incoming source schemas against a
small set of stable hub schemas; everything the pipeline derives from the
*target* alone is deterministic given the target instance and the matcher
configuration, so it can be computed once by
:meth:`~repro.engine.engine.MatchEngine.prepare` and shared across any
number of :meth:`~repro.engine.engine.MatchEngine.match` calls:

* the standard matcher's :class:`~repro.matching.standard.TargetIndex`
  (per-matcher profiles of every target attribute, plus the scoring
  blocks derived from them — for the q-gram and overlap matchers, CSR
  rows over a target vocabulary);
* the categorical attributes of the target tables;
* the retrieval prefilter, where the preparing engine's k prunes.

:class:`PreparedTarget` is frozen, only :meth:`PreparedTarget.build`
(called by ``prepare()``) constructs it, and no run writes to it: its
pickle, store blob and content token depend only on what ``prepare()``
built, and concurrent runs share it without locks.  What runs derive
from it and reuse — the per-domain target classifiers of
``TgtClassInfer`` (Figure 7), and the retrieval index of a run whose k
prunes a target prepared without one — is kept per process beside it,
keyed by its target index and built once under a lock (:func:`derived`).
The value -> target-column tag memo is per run.

:class:`PreparedSource` is the source-side counterpart, built by
:meth:`~repro.engine.engine.MatchEngine.prepare_source`: a
:class:`~repro.profiling.ProfileStore` of the source's column profiles
and family partitions that fills lazily during runs and is shared across
them by design, so re-matching the same source (evaluation sweeps,
re-tuned thresholds) skips source-side profiling.  Every entry is a pure
function of the source side, so sharing it never changes results.

Each artifact records, as a plain value, the configuration it was built
under: ``standard_config``, the engine's ``config.standard``, which also
fixes the matcher zoo.  That is an engine's
:meth:`~repro.engine.engine.MatchEngine.prepared_fingerprint`, so
compatibility checks and store lookups compare configurations, never
matcher objects.

Both classes are picklable, which is how the
:class:`~repro.engine.executor.MatchExecutor` process backend ships them
to worker pools.  A target's pickle holds the target database, the
index's samples and profiles, the categorical analysis and the retrieval
index's document bags; a source's holds its profile store and partition
cells.  Derived state — scoring blocks, BM25 postings, partition row
arrays, presence masks — is dropped on pickle and rebuilt
deterministically on load, so a restored artifact matches bit-identically.
The components' ``__getstate__`` hooks are the one place that decides
what crosses a process boundary.  A worker trains its own target
classifiers, once per artifact it holds.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from typing import Any, Callable, Hashable

from ..classifiers.target import TargetClassifierSet
from ..context.categorical import categorical_attributes
from ..matching.standard import StandardMatchConfig, TargetIndex
from ..profiling import ProfileStore
from ..relational.instance import Database
from ..retrieval import RetrievalIndex

__all__ = ["PreparedTarget", "PreparedSource"]


@dataclasses.dataclass(frozen=True)
class PreparedTarget:
    """Target-side state shared by every run against one target schema.

    Built by :meth:`MatchEngine.prepare` through :meth:`build`; frozen,
    and never written to by a run.  ``standard_config`` records the
    configuration the artifacts were derived under — the preparing
    engine's :meth:`~MatchEngine.prepared_fingerprint` — and the engine
    refuses to run against a prepared target built under a different
    configuration, since the index would silently disagree with the
    run's matcher.

    Attributes
    ----------
    target:
        The target database the artifacts were derived from.
    index:
        The standard matcher's pre-profiled target index.
    categorical:
        Categorical attributes of every target table — the condition
        space available when this schema acts as the conditioned side
        (role-reversed matching, diagnostics).
    """

    target: Database
    index: TargetIndex
    standard_config: StandardMatchConfig
    categorical: dict[str, tuple[str, ...]]
    #: Hybrid candidate-retrieval prefilter over ``index``
    #: (:mod:`repro.retrieval`).  Built only where it can prune: the
    #: index carries the q-gram channel and the target has more
    #: attributes than the preparing engine's ``retrieval_top_k``.  None
    #: otherwise; a run whose own ``retrieval_top_k`` is below the
    #: attribute count then uses :meth:`run_local_retrieval`.
    retrieval: RetrievalIndex | None = None

    @classmethod
    def build(cls, target: Database, index: TargetIndex,
              standard_config: StandardMatchConfig, *,
              retrieval_top_k: int) -> "PreparedTarget":
        categorical = {
            relation.name: tuple(categorical_attributes(relation))
            for relation in target
        }
        retrieval = (RetrievalIndex.build(index)
                     if RetrievalIndex.supports(index)
                     and len(index.samples) > retrieval_top_k else None)
        return cls(target=target, index=index,
                   standard_config=standard_config,
                   categorical=categorical, retrieval=retrieval)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.target)

    def trained_classifiers(self, sample_limit: int | None
                            ) -> TargetClassifierSet:
        """The per-domain target classifiers of ``TgtClassInfer``, trained
        on :attr:`target` with at most *sample_limit* values per column —
        once per process for this artifact and cap."""
        return derived(self, ("classifiers", sample_limit),
                       lambda: TargetClassifierSet.train(
                           self.target, sample_limit=sample_limit))

    def run_local_retrieval(self) -> RetrievalIndex:
        """The retrieval index of runs whose k prunes this artifact when
        it was prepared without one — built once per process."""
        return derived(self, "retrieval",
                       lambda: RetrievalIndex.build(self.index))

    def __str__(self) -> str:
        return (f"PreparedTarget({self.target.name!r}, "
                f"{len(self.table_names)} tables, "
                f"{len(self.index.samples)} attributes)")


#: State runs derive from a prepared target and later runs reuse, per
#: process: keyed by the artifact's TargetIndex (the frozen dataclass
#: compares by value, so it is unhashable), then by what the entry was
#: built for.  An entry lives as long as that index does.
_DERIVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_DERIVED_LOCK = threading.Lock()


def derived(prepared: PreparedTarget, key: Hashable,
            build: Callable[[], Any]) -> Any:
    """Entry *key* of *prepared*'s per-process derived state, made by
    *build* on first use.  Builds run under one lock, so concurrent
    first runs build an entry once; nothing is written onto the
    artifact."""
    with _DERIVED_LOCK:
        entries = _DERIVED.setdefault(prepared.index, {})
        if key not in entries:
            entries[key] = build()
        return entries[key]


@dataclasses.dataclass
class PreparedSource:
    """Source-side state shared by every run of one source schema.

    Built by :meth:`MatchEngine.prepare_source`; treat as opaque.  The
    carried :class:`~repro.profiling.ProfileStore` accumulates column
    profiles and family partitions lazily during runs — every cached entry
    is a pure function of the source instance and ``standard_config``, so
    reuse skips recomputation without changing results.  The engine
    refuses to run a prepared source built under a different standard
    configuration, since its profiles would silently disagree with the
    run's scorer.

    Attributes
    ----------
    source:
        The source database the profiles describe.
    store:
        Profile/partition cache keyed per (table, attribute, matcher),
        with reuse counters surfaced in stage reports.
    standard_config:
        The standard-matcher configuration the profiles are valid under.
    """

    source: Database
    store: ProfileStore
    standard_config: StandardMatchConfig

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.source)

    def __str__(self) -> str:
        return (f"PreparedSource({self.source.name!r}, "
                f"{len(self.table_names)} tables, "
                f"{len(self.store)} cached profiles)")
