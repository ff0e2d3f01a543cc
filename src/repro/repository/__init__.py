"""Schema-repository matching: one source routed against N prepared hubs.

Enterprises rarely match a source against a single known target — they
match it against a *repository* of hub schemas and want the best-ranked
home for each attribute set.  This package is that layer, built on the
engine's reusable prepared artifacts:

* :mod:`repro.repository.core` —
  :class:`~repro.repository.core.TargetRepository` (many
  :class:`~repro.engine.prepared.PreparedTarget` hubs, in-memory or
  :class:`~repro.store.ArtifactStore`-backed, keyed by content token),
  :meth:`~repro.repository.core.TargetRepository.match_one` /
  :meth:`~repro.repository.core.TargetRepository.route_many` (shared
  :class:`~repro.engine.prepared.PreparedSource`, M×K pairs fanned
  through the :class:`~repro.engine.executor.MatchExecutor` as one
  chunked batch per hub), and the comparable
  :class:`~repro.repository.core.HubScore` /
  :class:`~repro.repository.core.RepositoryResult` ranking types with
  deterministic tie-breaks, and
  :meth:`~repro.repository.core.TargetRepository.append_rows`, which
  grows one hub's tables and re-prepares it with ``prepare()`` — the
  only way a prepared hub is built;
* :mod:`repro.repository.serialize` — JSON wire shapes for rankings
  (the ``POST /match-repository`` route and ``repro match-repo --json``).

The serving layer wraps this as
:meth:`~repro.service.core.MatchService.match_repository` (warm-LRU
hubs, repository counters in ``/report``).
"""

from .core import (HubScore, RepositoryResult, TargetRepository,
                   rank_hub_scores, score_hub)
from .serialize import hub_score_to_dict, repository_result_to_dict

__all__ = [
    "TargetRepository",
    "RepositoryResult",
    "HubScore",
    "rank_hub_scores",
    "score_hub",
    "hub_score_to_dict",
    "repository_result_to_dict",
]
