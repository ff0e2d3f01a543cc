"""The per-view rescoring path that view blocks replaced, kept as the
reference.

``ScoreMatch`` now profiles and scores the member views of a partition
as blocks: :meth:`ProfileStore.view_profiles` builds every view's profile
of one attribute in one batch, and
:meth:`StandardMatch.score_column_profiles` scores all of them against
the attribute's frontier at once.  This module keeps the path it
replaced, one view at a time, so the tests can pin the block path
against it:

* :class:`ReferenceStore` profiles one view per call, as
  ``ProfileStore.view_profile`` did: a merged-group miss recurses into its
  cells, and every profile is one :meth:`Matcher.profile` or
  :meth:`Matcher.merge_profiles` call, with the same five counters;
* :func:`score_profiled` scores one profile against its frontier as
  ``StandardMatch._score_profiled`` did: one ``applicable`` call per
  target, one ``score_profiles`` call per applicable target, a Φ fit per
  matcher and evidence for the kept targets;
* :func:`score_families` rescores a relation's families view by view
  from :class:`ReferenceStore` profiles.

It also keeps ScoreMatch as the paper states it (§2.3; Figure 5, line
10), with the standard matcher called on each candidate view's restricted
sample: :func:`score_views` materializes every unseen view
(``View.evaluate``) and scores its columns with
:meth:`StandardMatch.score_attribute`.  :func:`per_view_stages` puts it,
and a standard-match stage that profiles raw columns without a store, in
an engine pipeline, so whole runs can be pinned against the default one.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.context.model import CandidateScore
from repro.engine.stages import (ConjunctiveRefineStage, InferViewsStage,
                                 PipelineState, SelectStage, Stage)
from repro.matching import AttributeMatch, MatcherEvidence, combine_evidence
from repro.matching.matchers import AttributeSample
from repro.matching.normalize import confidence_under, fit_normal
from repro.profiling import ColumnProfile, PartitionIndex
from repro.relational.conditions import Eq, In
from repro.relational.schema import AttributeRef
from repro.relational.views import view_name
from repro.sampling import systematic_thin


def _sample(table, attribute, clean, limit) -> AttributeSample:
    return AttributeSample(
        table, attribute,
        tuple(systematic_thin(clean, limit) if limit is not None else clean))


def profile_column(table, attribute, clean: Sequence[Any], matchers,
                   limit) -> ColumnProfile:
    """Every matcher's profile of one clean column, sampled under
    *limit*."""
    sample = _sample(table, attribute, list(clean), limit)
    return ColumnProfile(
        table=table, attribute=attribute, n_values=len(sample.values),
        thinned=limit is not None and len(clean) > limit,
        profiles={m.name: m.profile(sample) for m in matchers},
        sample=sample)


def merge_profiles(table, attribute, parts: Sequence[ColumnProfile],
                   matchers, limit,
                   gather_values: Callable[[], Sequence[Any]],
                   ) -> tuple[ColumnProfile, int]:
    """The union profile of disjoint cells, one group at a time."""
    total = sum(p.n_values for p in parts)
    if any(p.thinned for p in parts) or (limit is not None
                                         and total > limit):
        return profile_column(table, attribute, list(gather_values()),
                              matchers, limit), 0
    mergeable = [m for m in matchers if m.mergeable]
    if len(mergeable) == len(matchers):
        return ColumnProfile(
            table=table, attribute=attribute, n_values=total,
            thinned=False,
            profiles={m.name: m.merge_profiles([p.profiles[m.name]
                                                for p in parts])
                      for m in matchers},
            sample=None), len(matchers)
    sample = _sample(table, attribute, list(gather_values()), limit)
    profiles = {m.name: (m.merge_profiles([p.profiles[m.name]
                                           for p in parts])
                         if m.mergeable else m.profile(sample))
                for m in matchers}
    return ColumnProfile(table=table, attribute=attribute,
                         n_values=len(sample.values), thinned=False,
                         profiles=profiles, sample=sample), len(mergeable)


class ReferenceStore:
    """Partitions and view profiles, one view per lookup."""

    def __init__(self, matchers, sample_limit):
        self.matchers = list(matchers)
        self.sample_limit = sample_limit
        self._profiles: dict = {}
        self._partitions: dict = {}
        self.profile_hits = self.profile_misses = 0
        self.partitions_built = self.partition_hits = 0
        self.profiles_merged = 0

    def partition(self, relation, attribute) -> PartitionIndex:
        key = (relation.name, attribute)
        index = self._partitions.get(key)
        if index is None:
            index = self._partitions[key] = PartitionIndex(relation,
                                                           attribute)
            self.partitions_built += 1
        else:
            self.partition_hits += 1
        return index

    def view_profile(self, base, partition_attr, group: frozenset,
                     attr_name) -> ColumnProfile:
        key = (base.name, partition_attr, group, attr_name)
        profile = self._profiles.get(key)
        if profile is not None:
            self.profile_hits += 1
            return profile
        self.profile_misses += 1
        index = self.partition(base, partition_attr)
        attribute = base.schema.attribute(attr_name)
        condition = (Eq(partition_attr, next(iter(group))) if len(group) == 1
                     else In(partition_attr, sorted(group, key=repr)))
        table = view_name(base.name, condition)
        limit = self.sample_limit
        compose = len(group) > 1 and (limit is None
                                      or index.group_size(group) <= limit)
        cells = []
        if compose:
            cells = [self.view_profile(base, partition_attr,
                                       frozenset({v}), attr_name)
                     for v in sorted(group, key=repr) if v in index.cells]
        if compose and cells:
            profile, merged = merge_profiles(
                table, attribute, cells, self.matchers, limit,
                lambda: index.restricted_present_column(attr_name, group))
            self.profiles_merged += merged
        else:
            profile = profile_column(
                table, attribute,
                index.restricted_present_column(attr_name, group),
                self.matchers, limit)
        self._profiles[key] = profile
        return profile

    def counters(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in (
            "profile_hits", "profile_misses", "partitions_built",
            "partition_hits", "profiles_merged")}


def score_profiled(matchers, profile: ColumnProfile, index,
                   positions: Sequence[int] | None = None,
                   keep: Sequence[int] | None = None,
                   ) -> list[AttributeMatch]:
    """One profile's matches against the frontier *positions* (None =
    every target), for the *keep* positions (None = all)."""
    sample = profile.sample_view()
    target_ids = (range(len(index.samples)) if positions is None
                  else positions)
    target_samples = [index.samples[i] for i in target_ids]
    slots = (range(len(target_samples)) if keep is None else
             [slot for slot, i in enumerate(target_ids) if i in set(keep)])
    evidence: list[list[MatcherEvidence]] = [[] for _ in slots]
    for matcher in matchers:
        targets = index.profiles[matcher.name]
        source = profile.profiles[matcher.name]
        raw = [matcher.score_profiles(source, targets[i])
               if matcher.applicable(sample, t) else None
               for i, t in zip(target_ids, target_samples)]
        fit = fit_normal(raw)
        for found, slot in zip(evidence, slots):
            if raw[slot] is not None:
                found.append(MatcherEvidence(
                    matcher=matcher.name, weight=matcher.weight,
                    raw_score=raw[slot],
                    confidence=confidence_under(raw[slot], fit)))
    matches = []
    for found, slot in zip(evidence, slots):
        combined = combine_evidence(found)
        if combined is None:
            continue
        target = target_samples[slot]
        matches.append(AttributeMatch(
            source=AttributeRef(profile.table, profile.attribute.name),
            target=AttributeRef(target.table, target.name),
            score=combined.score, confidence=combined.confidence,
            evidence=combined.evidence))
    return matches


def score_families(families, base, accepted, matchers, index,
                   store: ReferenceStore, *, min_view_rows: int = 2,
                   frontier=None) -> list[CandidateScore]:
    """Every unseen member view of *families*, rescored view by view."""
    by_attr: dict[str, list[AttributeMatch]] = {}
    for match in accepted:
        if match.source.table == base.name:
            by_attr.setdefault(match.source.attribute, []).append(match)
    seen = set()
    results = []
    for family in families:
        for group, view in zip(family.groups, family.views()):
            if view in seen:
                continue
            seen.add(view)
            view_rows = store.partition(base, family.attribute) \
                .group_size(group)
            if view_rows < min_view_rows:
                continue
            for attr_name, matches in by_attr.items():
                profile = store.view_profile(base, family.attribute, group,
                                             attr_name)
                positions = (None if frontier is None
                             else frontier.positions_for(attr_name))
                keep = [index.positions[(m.target.table, m.target.attribute)]
                        for m in matches]
                scored = {(m.target.table, m.target.attribute): m
                          for m in score_profiled(matchers, profile, index,
                                                  positions, keep)}
                for match in matches:
                    rescored = scored.get((match.target.table,
                                           match.target.attribute))
                    if rescored is not None:
                        results.append(CandidateScore(
                            view=view, family=family, base_match=match,
                            rescored=rescored, view_rows=view_rows))
    return results


def score_views(families, base, accepted, matcher, index, *,
                min_view_rows: int = 2) -> list[CandidateScore]:
    """Every unseen member view of *families*, materialized and rescored
    through ``score_attribute`` one view at a time."""
    by_attr: dict[str, list[AttributeMatch]] = {}
    for match in accepted:
        if match.source.table == base.name:
            by_attr.setdefault(match.source.attribute, []).append(match)
    seen = set()
    results = []
    for family in families:
        for view in family.views():
            if view in seen:
                continue
            seen.add(view)
            restricted = view.evaluate(base)
            if len(restricted) < min_view_rows:
                continue
            for attr_name, matches in by_attr.items():
                scored = {(m.target.table, m.target.attribute): m
                          for m in matcher.score_attribute(
                              view.name, restricted.column(attr_name),
                              restricted.schema.attribute(attr_name),
                              index)}
                for match in matches:
                    rescored = scored.get((match.target.table,
                                           match.target.attribute))
                    if rescored is not None:
                        results.append(CandidateScore(
                            view=view, family=family, base_match=match,
                            rescored=rescored, view_rows=len(restricted)))
    return results


class PerViewStandardMatchStage(Stage):
    """Accepted prototype matches scored from raw columns, without the
    run's profile store."""

    name = "standard-match"

    def run(self, state: PipelineState) -> dict[str, int]:
        for relation in state.source:
            scored = state.matcher.score_relation(relation,
                                                  state.prepared.index)
            accepted = [m for m in scored
                        if state.matcher.accept(m, state.config.tau)]
            state.accepted[relation.name] = accepted
            state.result.standard_matches.extend(accepted)
        return {"relations": len(state.accepted),
                "accepted": len(state.result.standard_matches)}


class PerViewScoreCandidatesStage(Stage):
    """RL from :func:`score_views`, against every target attribute."""

    name = "score-candidates"

    def run(self, state: PipelineState) -> dict[str, int]:
        for relation in state.source:
            state.result.candidates.extend(score_views(
                state.families.get(relation.name, []), relation,
                state.accepted.get(relation.name, []), state.matcher,
                state.prepared.index,
                min_view_rows=state.config.min_view_rows))
        return {"candidates": len(state.result.candidates)}


def per_view_stages() -> list[Stage]:
    """The five-stage pipeline with standard-match and score-candidates
    replaced by their per-view references."""
    return [PerViewStandardMatchStage(), InferViewsStage(),
            PerViewScoreCandidatesStage(), SelectStage(),
            ConjunctiveRefineStage()]
