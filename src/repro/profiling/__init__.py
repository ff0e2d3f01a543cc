"""Columnar profiling — partition-once view scoring and profile reuse.

The ScoreMatch loop (paper Figure 5, lines 6-11) dominates runtime: every
candidate view used to be re-materialized (one predicate call and one dict
build per row, per view) and every source column re-profiled from raw
values, per matcher, per view — even though all member views of a
``ViewFamily`` are disjoint partitions of one base relation by one
categorical attribute.  This subsystem computes each reusable artifact
exactly once and keys it for reuse:

* :class:`PartitionIndex` — one pass over a base relation buckets its rows
  by the family's categorical attribute; every member view's rows (and any
  merged group's, by sorted cell merge) follow by list indexing;
* :class:`ColumnProfile` — the sample plus every matcher's profile of one
  (possibly view-restricted) column, computed once per (table, attribute,
  matcher);
* :class:`ProfileStore` — the keyed cache of both, with hit/miss/merge
  counters that pipeline stages surface in their
  :class:`~repro.engine.report.StageReport`; it builds the profiles of
  a partition's views of one attribute as one block.

Matchers whose profiles are additive implement
:meth:`~repro.matching.matchers.Matcher.merge_profiles`, so merged-group
view profiles compose from cached cell profiles without touching raw rows.
All fast paths are bit-identical to materialize-and-reprofile: the same
rows in the same order feed the same deterministic sampling, and profile
composition is only used where it is exact.

A :class:`~repro.engine.prepared.PreparedSource` carries a store across
engine runs, amortizing source-side profiling the way
:class:`~repro.engine.prepared.PreparedTarget` amortizes the target side.
"""

from .partition import PartitionIndex
from .profiles import (ColumnProfile, SampleDigest, build_column_profile,
                       merge_column_profiles)
from .store import ProfileStore

__all__ = [
    "PartitionIndex",
    "ColumnProfile",
    "SampleDigest",
    "build_column_profile",
    "merge_column_profiles",
    "ProfileStore",
]
