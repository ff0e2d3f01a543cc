"""Keyed, counted reuse of column profiles and partitions.

A :class:`ProfileStore` is the memo behind the profiling fast path: it
caches :class:`~repro.profiling.profiles.ColumnProfile` objects per
(table, attribute) — and per (base, partition attribute, value group,
attribute) for view-restricted columns — plus one
:class:`~repro.profiling.partition.PartitionIndex` per (base, attribute).
Everything cached is a pure function of the relation instances and the
store's matcher configuration, so sharing a store across pipeline stages
and across engine runs (via :class:`~repro.engine.prepared.PreparedSource`)
only skips recomputation, never changes results.

View profiles are built as blocks: :meth:`ProfileStore.view_profiles`
takes every group of one (base, partition attribute, attribute) that the
scoring stage needs, gathers the sampled rows of the missing ones in one
read of the base column and profiles them with one
:meth:`~repro.matching.matchers.Matcher.profile_many` call per matcher.
:meth:`ProfileStore.view_profile` is its one-group call.

Hit/miss/merge counters are cheap monotonic tallies; pipeline stages
snapshot them around their work and surface the deltas in each stage's
:class:`~repro.engine.report.StageReport`.  A block tallies its lookups
exactly as looking its groups up one at a time would, so the counters do
not depend on how the groups are batched.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable, Sequence

from ..matching.matchers import Matcher
from ..relational.conditions import Eq, In
from ..relational.instance import Relation
from ..relational.views import view_name
from .partition import PartitionIndex
from .profiles import (ColumnProfile, build_column_profile,
                       build_presampled_profiles, merge_column_profiles_many)

__all__ = ["ProfileStore"]

#: Counter keys a store reports (all monotonically non-decreasing).
_COUNTERS = ("profile_hits", "profile_misses", "partitions_built",
             "partition_hits", "profiles_merged")


@dataclasses.dataclass
class _BlockPlan:
    """The profiles one :meth:`ProfileStore.view_profiles` call builds:
    the keys it missed, those profiled from their own rows (``direct``)
    and those composed from cell profiles (``composed``, with the cells'
    keys)."""

    missed: set = dataclasses.field(default_factory=set)
    direct: list = dataclasses.field(default_factory=list)
    composed: list = dataclasses.field(default_factory=list)


class ProfileStore:
    """Profile and partition cache for one source database.

    Parameters
    ----------
    matchers:
        The matcher zoo profiles are computed under.  Must be the matchers
        of the :class:`~repro.matching.standard.StandardMatch` that will
        score the profiles — the engine enforces this for stores carried
        by a :class:`~repro.engine.prepared.PreparedSource`.
    sample_limit:
        The standard matcher's per-attribute sample cap (deterministic
        thinning above it), recorded so profiles are comparable only
        within one configuration.
    """

    def __init__(self, matchers: Sequence[Matcher], sample_limit: int | None):
        self.matchers = list(matchers)
        self.sample_limit = sample_limit
        self._profiles: dict[Hashable, ColumnProfile] = {}
        self._partitions: dict[tuple[str, str], PartitionIndex] = {}
        self.profile_hits = 0
        self.profile_misses = 0
        self.partitions_built = 0
        self.partition_hits = 0
        self.profiles_merged = 0

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def partition(self, relation: Relation, attribute: str) -> PartitionIndex:
        """The (cached) partition of *relation* by *attribute*."""
        key = (relation.name, attribute)
        index = self._partitions.get(key)
        if index is None:
            index = PartitionIndex(relation, attribute)
            self._partitions[key] = index
            self.partitions_built += 1
        else:
            self.partition_hits += 1
        return index

    # ------------------------------------------------------------------
    # Profiles
    # ------------------------------------------------------------------
    def base_profile(self, relation: Relation, attr_name: str) -> ColumnProfile:
        """The profile of a base-table column (cached per table/attribute)."""
        key = (relation.name, attr_name)
        profile = self._profiles.get(key)
        if profile is not None:
            self.profile_hits += 1
            return profile
        self.profile_misses += 1
        clean = relation.non_missing(attr_name)
        profile = build_column_profile(
            relation.name, relation.schema.attribute(attr_name),
            clean, self.matchers, self.sample_limit, values_clean=True)
        self._profiles[key] = profile
        return profile

    def peek_base_profile(self, relation_name: str,
                          attr_name: str) -> ColumnProfile | None:
        """The cached base-column profile, or None — *without* touching
        the hit/miss counters.

        Retrieval-frontier queries reuse already-built source profiles
        opportunistically; keeping them counter-neutral preserves the
        profile-counter baselines the golden tier pins exactly.
        """
        return self._profiles.get((relation_name, attr_name))

    def view_profile(self, base: Relation, partition_attr: str,
                     group: frozenset, attr_name: str) -> ColumnProfile:
        """The profile of one attribute of the view selecting *group*
        (:meth:`view_profiles` of one group)."""
        return self.view_profiles(base, partition_attr, [group],
                                  attr_name)[0]

    def view_profiles(self, base: Relation, partition_attr: str,
                      groups: Sequence[frozenset],
                      attr_name: str) -> list[ColumnProfile]:
        """The profiles of one attribute of the views selecting each of
        *groups*, built as one block.

        Singleton groups profile their partition cell directly; merged
        groups compose from the cached singleton-cell profiles via
        :meth:`Matcher.merge_profiles` wherever the profiles are additive
        and no thinning interferes, falling back to re-profiling the
        gathered union rows otherwise.  Either way no view is
        materialized.  Every cache lookup is tallied as looking the groups
        up one at a time in order would: a miss reads the partition once
        more, and a merged-group miss looks up each of its cells.  The
        profiles themselves are then built together — the sampled rows of
        every missing group in one gather, and one
        :meth:`~repro.matching.matchers.Matcher.profile_many` call per
        matcher for the directly profiled groups and one for the merged
        groups' non-additive matchers.
        """
        plan = _BlockPlan()
        keys = [self._plan_view(plan, base, partition_attr, group, attr_name)
                for group in groups]
        direct, composed = plan.direct, plan.composed
        if direct or composed:
            index = self._partitions[(base.name, partition_attr)]
            attribute = base.schema.attribute(attr_name)
            sampled = [index.sampled_present_rows(attr_name, key[2],
                                                  self.sample_limit)
                       for key in direct]
            values = index.gather_many(attr_name,
                                       [rows for rows, _ in sampled])
            built = build_presampled_profiles(
                attribute,
                [(self._view_table(base.name, partition_attr, key[2]),
                  column, thinned)
                 for key, column, (_, thinned) in zip(direct, values,
                                                      sampled)],
                self.matchers)
            self._profiles.update(zip(direct, built))
            merged = merge_column_profiles_many(
                attribute,
                [(self._view_table(base.name, partition_attr, key[2]),
                  [self._profiles[cell] for cell in cells])
                 for key, cells in composed],
                self.matchers, self.sample_limit,
                lambda wanted: index.gather_many(
                    attr_name, [index.present_rows(attr_name,
                                                   composed[n][0][2])
                                for n in wanted]))
            for (key, _), (profile, n_merged) in zip(composed, merged):
                self._profiles[key] = profile
                self.profiles_merged += n_merged
        return [self._profiles[key] for key in keys]

    def _plan_view(self, plan: "_BlockPlan", base: Relation,
                   partition_attr: str, group: frozenset,
                   attr_name: str) -> tuple:
        """Look up one view profile, tallied as a one-view lookup is: a
        hit, or a miss that reads the partition once more and, for a
        merged group that can compose, looks up each of its cells.  A miss
        is queued on *plan* to be built; returns the profile's key."""
        key = (base.name, partition_attr, group, attr_name)
        if key in self._profiles or key in plan.missed:
            self.profile_hits += 1
            return key
        self.profile_misses += 1
        plan.missed.add(key)
        index = self.partition(base, partition_attr)
        # Merged groups compose from cell profiles only when the union can
        # not be thinned (total rows within the sample limit guarantees
        # every cell and the union are unthinned); otherwise — and for
        # singletons — profile the partition-restricted column directly.
        if len(group) > 1 and (self.sample_limit is None
                               or index.group_size(group)
                               <= self.sample_limit):
            cells = [self._plan_view(plan, base, partition_attr,
                                     frozenset({v}), attr_name)
                     for v in sorted(group, key=repr) if index.has_cell(v)]
            if cells:
                plan.composed.append((key, cells))
                return key
        plan.direct.append(key)
        return key

    @staticmethod
    def _view_table(base: str, partition_attr: str, group: frozenset) -> str:
        """The deterministic name of the member view selecting *group* —
        identical to ``ViewFamily.condition_for`` naming, so cached profiles
        carry the ``source.table`` a materialized view (``View.evaluate``)
        reports."""
        if len(group) == 1:
            condition = Eq(partition_attr, next(iter(group)))
        else:
            condition = In(partition_attr, sorted(group, key=repr))
        return view_name(base, condition)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def counters(self) -> dict[str, int]:
        """Snapshot of the monotonic reuse counters."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def counters_since(self, before: dict[str, int]) -> dict[str, int]:
        """Counter deltas relative to an earlier :meth:`counters` snapshot."""
        return {name: getattr(self, name) - before.get(name, 0)
                for name in _COUNTERS}

    def __len__(self) -> int:
        return len(self._profiles)

    def __repr__(self) -> str:
        return (f"<ProfileStore {len(self._profiles)} profiles, "
                f"{len(self._partitions)} partitions, "
                f"hits={self.profile_hits} misses={self.profile_misses}>")
