"""Service-side diagnostics: request latency and cache effectiveness.

A long-lived ``repro serve`` process answers many requests; what matters
operationally is the latency distribution under concurrent load and
whether the warm caches actually absorb the hub-and-spoke workload (one
store load per target per process, everything after that an LRU hit).
:class:`ServiceReport` is the snapshot the ``/report`` endpoint returns
and the latency benchmark records: request/error counts per endpoint,
latency percentiles over a sliding window, LRU hit/miss/eviction/load
counters, the artifact store's own counters, and the executor backend in
use.  Like the engine's :class:`~repro.engine.report.RunReport` it is
pure data — ``to_dict``/``from_dict`` round-trip it losslessly.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

__all__ = ["ServiceReport", "latency_summary", "percentile",
           "service_report_to_dict", "service_report_from_dict"]


def percentile(values: list[float], q: float) -> float:
    """The *q*-th percentile (0-100) of *values* by linear interpolation
    between order statistics; 0.0 for an empty series."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def latency_summary(values: list[float]) -> dict[str, float]:
    """p50/p90/p99/mean/max summary of a latency series (milliseconds)."""
    if not values:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
                "mean": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "p90": percentile(values, 90.0),
        "p99": percentile(values, 99.0),
        "mean": sum(values) / len(values),
        "max": max(values),
    }


@dataclasses.dataclass
class ServiceReport:
    """One snapshot of a running match service.

    Attributes
    ----------
    version / store_path:
        The serving library version and the artifact store directory —
        every ``--json`` surface of the service carries both.
    uptime_seconds / requests / errors:
        Process-lifetime totals; ``endpoints`` breaks requests down per
        route.
    latency_ms:
        :func:`latency_summary` percentiles per endpoint, measured
        server-side over a sliding window of recent requests.
    lru:
        Warm prepared-target cache counters: ``hits`` / ``misses`` /
        ``evictions`` / ``loads`` (store deserializations this cache
        caused) plus current ``size`` and ``capacity``.  ``loads`` equal
        to the number of distinct targets served is the proof that each
        target was read from disk exactly once per process.
    store:
        The backing :class:`~repro.store.ArtifactStore` counters
        (saves, dedup_hits, loads, find hits/misses) and entry count.
    executor:
        Batch backend in use (``backend``, ``workers``) for
        ``/match-many`` requests.
    targets:
        Warm targets, most recently used first: content token, database
        name and the runs this service served against the token (a
        ``/match`` is one, a ``/match-many`` one per source, a
        ``/match-repository`` one per hub; pooled runs included).
    retrieval:
        Process-lifetime candidate-retrieval totals over every run this
        service answered: ``queries`` / ``pairs_considered`` /
        ``pairs_pruned`` / ``hits`` / ``missed`` and the derived
        ``recall`` (1.0 when nothing was prunable) — how much scoring
        work the :mod:`repro.retrieval` frontier saved, and whether it
        ever dropped an accepted match.
    repository:
        Cross-target routing totals for ``/match-repository`` requests:
        ``requests`` (sources routed) and ``pairs`` (source × hub match
        runs those requests fanned out to).
    token_cache:
        Process-lifetime q-gram cache totals over every run this service
        answered: the runs' summed ``token_cache_hits`` /
        ``token_cache_misses`` stage counts.  Each run tokenizes through
        its own :class:`~repro.matching.tokens.QGramCache`, so these are
        the hits within runs, not across them.
    """

    version: str
    store_path: str
    uptime_seconds: float
    requests: int
    errors: int
    endpoints: dict[str, int] = dataclasses.field(default_factory=dict)
    latency_ms: dict[str, dict[str, float]] = \
        dataclasses.field(default_factory=dict)
    lru: dict[str, int] = dataclasses.field(default_factory=dict)
    store: dict[str, int] = dataclasses.field(default_factory=dict)
    executor: dict[str, Any] = dataclasses.field(default_factory=dict)
    targets: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    retrieval: dict[str, Any] = dataclasses.field(default_factory=dict)
    repository: dict[str, int] = dataclasses.field(default_factory=dict)
    token_cache: dict[str, int] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceReport":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    def __str__(self) -> str:
        match = self.latency_ms.get("match", {})
        return (f"service up {self.uptime_seconds:.0f}s: "
                f"{self.requests} requests ({self.errors} errors), "
                f"match p50 {match.get('p50', 0.0):.1f}ms / "
                f"p99 {match.get('p99', 0.0):.1f}ms, "
                f"lru {self.lru.get('hits', 0)} hits / "
                f"{self.lru.get('misses', 0)} misses / "
                f"{self.lru.get('loads', 0)} store loads")


def service_report_to_dict(report: ServiceReport) -> dict[str, Any]:
    """Serialize a :class:`ServiceReport` (the ``/report`` JSON shape)."""
    return report.to_dict()


def service_report_from_dict(data: Mapping[str, Any]) -> ServiceReport:
    """Inverse of :func:`service_report_to_dict`."""
    return ServiceReport.from_dict(data)
