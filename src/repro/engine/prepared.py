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
* the categorical-policy analysis of the target tables;
* the per-domain target classifiers of ``TgtClassInfer`` (Figure 7) and
  their value -> target-column tag memo.

:class:`PreparedSource` is the source-side counterpart, built by
:meth:`~repro.engine.engine.MatchEngine.prepare_source`: a
:class:`~repro.profiling.ProfileStore` holding the source's column
profiles and family partitions, shared across runs so re-matching the same
source (evaluation sweeps, re-tuned thresholds, incremental re-runs)
skips source-side profiling entirely.

All of it is read-only during matching except the lazily-populated caches,
whose entries are pure functions of their side — sharing them never
changes results, only skips recomputation.

Both prepared classes are picklable, which is what lets the
:class:`~repro.engine.executor.MatchExecutor` process backend ship them to
worker pools: the payload carries the trained classifier statistics, the
tag cache, the profile store and the partition indices, while purely lazy
memos (compiled Naive Bayes log-probability matrices, Gaussian fits,
partition row arrays, presence masks) and the target index's scoring
blocks are dropped on pickle and rebuilt deterministically on load — a
restored artifact produces bit-identical matches, and the blocks add
nothing to store blobs or executor chunks.  The components'
``__getstate__`` hooks are the one place that decides what crosses a
process boundary; the executor ships nothing but this plain pickle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from ..context.categorical import CategoricalPolicy, categorical_attributes
from ..matching.standard import (MatchingSystem, StandardMatchConfig,
                                 TargetIndex)
from ..profiling import ProfileStore
from ..relational.instance import Database
from ..retrieval import RetrievalIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..classifiers.target import TargetClassifierSet

__all__ = ["PreparedTarget", "PreparedSource"]


@dataclasses.dataclass
class PreparedTarget:
    """Target-side state shared by every run against one target schema.

    Built by :meth:`MatchEngine.prepare`; treat as opaque and immutable.
    ``standard_config`` and ``policy`` record the configuration the
    artifacts were derived under — the engine refuses to run against a
    prepared target built under a different configuration, since the index
    and classifiers would silently disagree with the run's matcher.

    Attributes
    ----------
    target:
        The target database the artifacts were derived from.
    index:
        The standard matcher's pre-profiled target index.
    categorical:
        Categorical attributes of every target table under ``policy`` —
        the condition space available when this schema acts as the
        conditioned side (role-reversed matching, diagnostics).
    runs:
        Number of engine runs served so far (diagnostic).
    """

    target: Database
    index: TargetIndex
    standard_config: StandardMatchConfig
    policy: CategoricalPolicy
    categorical: dict[str, tuple[str, ...]]
    #: The matching system whose ``build_target_index`` produced ``index``;
    #: the engine's compatibility check compares against it.
    matcher: MatchingSystem | None = None
    runs: int = 0
    #: Lazily-trained per-domain classifiers of ``TgtClassInfer``; shared
    #: across runs because training is deterministic given the target.
    target_classifiers: "TargetClassifierSet | None" = None
    #: Shared (type family, value) -> target-column tag memo.
    tag_cache: dict = dataclasses.field(default_factory=dict)
    #: Hybrid candidate-retrieval prefilter over ``index``
    #: (:mod:`repro.retrieval`).  Built only where it can prune: the
    #: matching system supports target subsets and the target has more
    #: attributes than the preparing engine's ``retrieval_top_k``.  None
    #: otherwise; a run whose own ``retrieval_top_k`` is below the
    #: attribute count then builds a run-local index and leaves this
    #: field None.
    retrieval: RetrievalIndex | None = None

    @classmethod
    def build(cls, target: Database, index: TargetIndex,
              standard_config: StandardMatchConfig,
              policy: CategoricalPolicy,
              matcher: MatchingSystem | None = None, *,
              retrieval_top_k: int) -> "PreparedTarget":
        categorical = {
            relation.name: tuple(categorical_attributes(relation, policy))
            for relation in target
        }
        retrieval = (RetrievalIndex.build(index, target)
                     if matcher is not None
                     and RetrievalIndex.supports(matcher, index)
                     and len(index.samples) > retrieval_top_k else None)
        return cls(target=target, index=index,
                   standard_config=standard_config, policy=policy,
                   categorical=categorical, matcher=matcher,
                   retrieval=retrieval)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.target)

    def __str__(self) -> str:
        return (f"PreparedTarget({self.target.name!r}, "
                f"{len(self.table_names)} tables, "
                f"{len(self.index.samples)} attributes, runs={self.runs})")


@dataclasses.dataclass
class PreparedSource:
    """Source-side state shared by every run of one source schema.

    Built by :meth:`MatchEngine.prepare_source`; treat as opaque.  The
    carried :class:`~repro.profiling.ProfileStore` accumulates column
    profiles and family partitions lazily during runs — every cached entry
    is a pure function of the source instance and ``standard_config``, so
    reuse skips recomputation without changing results.  The engine
    refuses to run a prepared source built under a different standard
    configuration or matcher zoo, since its profiles would silently
    disagree with the run's scorer.

    Attributes
    ----------
    source:
        The source database the profiles describe.
    store:
        Profile/partition cache keyed per (table, attribute, matcher),
        with reuse counters surfaced in stage reports.
    standard_config:
        The standard-matcher configuration the profiles are valid under.
    matcher:
        The matching system the store was built for; the engine's
        compatibility check compares against it.
    runs:
        Number of engine runs served so far (diagnostic).
    """

    source: Database
    store: ProfileStore
    standard_config: StandardMatchConfig
    matcher: MatchingSystem | None = None
    runs: int = 0

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.source)

    def __str__(self) -> str:
        return (f"PreparedSource({self.source.name!r}, "
                f"{len(self.table_names)} tables, "
                f"{len(self.store)} cached profiles, runs={self.runs})")
