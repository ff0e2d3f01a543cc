"""Re-scoring prototype matches against candidate views — ``ScoreMatch``
(Figure 5, lines 6-11).

For each candidate view ``Vc`` the sample of the base table is restricted by
``c`` and every accepted prototype match from that table is re-evaluated by
the (black-box) standard matcher.  Confidences are re-normalized against the
distribution of the restricted sample's scores across all target attributes,
exactly as the strawman discussion prescribes ("estimated using the new
score s'_i and the distribution of scores seen for RS.s across the sample").

Which path scores a view depends on the matching system:

* a system that exposes the profiling interface (``supports_profile_store``,
  as :class:`~repro.matching.standard.StandardMatch` does) takes the
  block path (:func:`score_relation_candidates`): the engine hands it a
  :class:`~repro.profiling.ProfileStore`, which buckets the base rows by
  each family's categorical attribute exactly once
  (:class:`~repro.profiling.PartitionIndex`).  The unseen member views of
  all of a relation's families are then scored per (partition attribute,
  source attribute) block: the store builds every view's
  :class:`~repro.profiling.ColumnProfile` of the attribute in one batch
  (:meth:`~repro.profiling.ProfileStore.view_profiles`, composing
  merged-group profiles from cell profiles where the matchers are
  additive), and the matching system scores all of them against the
  attribute's frontier in one
  :meth:`~repro.matching.standard.StandardMatch.score_column_profiles`
  call;
* any other :class:`~repro.matching.standard.MatchingSystem` is a black
  box (§2.3): each view is materialized via ``View.evaluate`` and its
  columns go through ``score_attribute`` (:func:`score_view_candidates`).

The two paths are bit-identical for a standard matcher: the same rows in
the same order feed the same deterministic sampling and scoring, which
the tests pin by running ``StandardMatch`` behind a wrapper that hides
its profiling interface.

In a block, the standard matcher scores the views against the frontier
with one :meth:`~repro.matching.matchers.base.Matcher.score_views` call
per matcher (numpy CSR kernels for the q-gram and overlap matchers, one
source vector at a time), and work that does not depend on the view runs
once per (attribute, frontier): the view-invariant name and type
matchers' scores, Φ fits and evidence, and the ``applicable`` masks.
Every frontier target's raw score enters the Φ fit, but only the
prototype targets' rescorings enter RL, so the block path names those
targets (``keep``) and the matcher builds evidence for them alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..matching.standard import AttributeMatch, MatchingSystem, TargetIndex
from ..relational.instance import Relation
from ..relational.views import View, ViewFamily
from .model import CandidateScore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiling import ProfileStore
    from ..retrieval import ScoringFrontier

__all__ = ["score_view_candidates", "score_family_candidates",
           "score_relation_candidates"]


def _accepted_by_attribute(accepted: Sequence[AttributeMatch],
                           base_name: str) -> dict[str, list[AttributeMatch]]:
    """The base table's accepted prototype matches grouped by attribute."""
    by_attr: dict[str, list[AttributeMatch]] = {}
    for match in accepted:
        if match.source.table == base_name:
            by_attr.setdefault(match.source.attribute, []).append(match)
    return by_attr


def _pair_candidates(view: View, family: ViewFamily,
                     matches: Sequence[AttributeMatch],
                     scored: Sequence[AttributeMatch],
                     view_rows: int) -> list[CandidateScore]:
    """Join one attribute's rescorings back to its prototype matches."""
    by_target = {(m.target.table, m.target.attribute): m for m in scored}
    results: list[CandidateScore] = []
    for match in matches:
        rescored = by_target.get((match.target.table, match.target.attribute))
        if rescored is None:
            continue
        results.append(CandidateScore(
            view=view, family=family, base_match=match,
            rescored=rescored, view_rows=view_rows))
    return results


def _prototype_positions(matches: Sequence[AttributeMatch],
                         index: TargetIndex) -> list[int]:
    """The target-index positions of *matches*' targets — the only
    rescorings :func:`_pair_candidates` reads.  Prototype matches were
    scored against this index, so every target has a position."""
    return [index.positions[(m.target.table, m.target.attribute)]
            for m in matches]


def _frontier_positions(frontier: "ScoringFrontier | None",
                        attr_name: str, *, views: int = 1,
                        ) -> tuple[int, ...] | None:
    """The target subset to rescore *attr_name* against in *views* views
    (None = all)."""
    if frontier is None:
        return None
    return frontier.positions_for(attr_name, views=views)


def score_view_candidates(view: View, family: ViewFamily, base: Relation,
                          accepted: Sequence[AttributeMatch],
                          matcher: MatchingSystem, index: TargetIndex,
                          *, min_view_rows: int = 2,
                          frontier: "ScoringFrontier | None" = None,
                          ) -> list[CandidateScore]:
    """Evaluate one candidate view against the accepted matches of its base.

    Returns one :class:`CandidateScore` per (view, prototype match) pair —
    the entries added to RL.  Views whose restricted sample is smaller than
    ``min_view_rows`` are skipped: they cannot be scored meaningfully.
    With a :class:`~repro.retrieval.ScoringFrontier` each attribute is
    rescored only against its retrieved target positions.
    """
    restricted = view.evaluate(base)
    if len(restricted) < min_view_rows:
        return []
    by_attr = _accepted_by_attribute(accepted, base.name)
    results: list[CandidateScore] = []
    for attr_name, matches in by_attr.items():
        attribute = restricted.schema.attribute(attr_name)
        positions = _frontier_positions(frontier, attr_name)
        if positions is None:
            scored = matcher.score_attribute(
                view.name, restricted.column(attr_name), attribute, index)
        else:
            scored = matcher.score_attribute(
                view.name, restricted.column(attr_name), attribute, index,
                positions=positions)
        results.extend(_pair_candidates(view, family, matches, scored,
                                        len(restricted)))
    return results


def score_family_candidates(family: ViewFamily, base: Relation,
                            accepted: Sequence[AttributeMatch],
                            matcher: MatchingSystem, index: TargetIndex,
                            *, min_view_rows: int = 2,
                            seen_views: set[View] | None = None,
                            store: "ProfileStore | None" = None,
                            frontier: "ScoringFrontier | None" = None,
                            ) -> list[CandidateScore]:
    """Score every member view of one family
    (:func:`score_relation_candidates` of one family)."""
    return score_relation_candidates(
        [family], base, accepted, matcher, index,
        min_view_rows=min_view_rows, seen_views=seen_views, store=store,
        frontier=frontier)


def score_relation_candidates(families: Sequence[ViewFamily],
                              base: Relation,
                              accepted: Sequence[AttributeMatch],
                              matcher: MatchingSystem, index: TargetIndex,
                              *, min_view_rows: int = 2,
                              seen_views: set[View] | None = None,
                              store: "ProfileStore | None" = None,
                              frontier: "ScoringFrontier | None" = None,
                              ) -> list[CandidateScore]:
    """Score every member view of *families*, all over one base relation
    (the loop body of Figure 5).

    Distinct families frequently share member views (a merged family keeps
    the singleton views it did not merge), so each distinct view is scored
    exactly once — duplicates would otherwise inflate the per-view
    confidence totals used by ``QualTable``.  ``seen_views`` carries the
    views already scored across calls, and gains the views scored here.

    With a :class:`~repro.profiling.ProfileStore` (and a matching system
    that opts in via ``supports_profile_store``) the member views are
    scored as blocks instead of being individually materialized: for each
    (partition attribute, source attribute), the store builds every
    view's profile in one batch and the matching system scores all of
    them against the attribute's frontier at once.  Results are
    bit-identical either way, in the same order: family, view, attribute,
    prototype match.

    A :class:`~repro.retrieval.ScoringFrontier` (built per relation by the
    scoring stage) restricts each attribute's rescoring to its retrieved
    target positions and tallies considered/pruned pair counts per (view,
    attribute); None — or a counting-only frontier — keeps the exhaustive
    behaviour.
    """
    use_store = (store is not None
                 and getattr(matcher, "supports_profile_store", False))
    by_attr = _accepted_by_attribute(accepted, base.name)
    # (family, group, view) of every view to score, in scoring order.
    seen = seen_views if seen_views is not None else set()
    members: list[tuple[ViewFamily, frozenset, View]] = []
    for family in families:
        for group, view in zip(family.groups, family.views()):
            if view not in seen:
                seen.add(view)
                members.append((family, group, view))
    # The store path's blocks: partition attribute -> member numbers of
    # the views large enough to score, and each member's row count.
    # Members of families over another table take the per-view path.
    blocks: dict[str, list[int]] = {}
    view_rows: dict[int, int] = {}
    per_view: set[int] = set()
    for n, (family, group, _) in enumerate(members):
        if not (use_store and family.table == base.name):
            per_view.add(n)
            continue
        rows = store.partition(base, family.attribute).group_size(group)
        if rows >= min_view_rows:
            blocks.setdefault(family.attribute, []).append(n)
            view_rows[n] = rows
    scored: dict[tuple[int, str], list[AttributeMatch]] = {}
    for partition_attr, block in blocks.items():
        groups = [members[n][1] for n in block]
        for attr_name, matches in by_attr.items():
            positions = _frontier_positions(frontier, attr_name,
                                            views=len(block))
            profiles = store.view_profiles(base, partition_attr, groups,
                                           attr_name)
            rescored = matcher.score_column_profiles(
                profiles, index, positions=positions,
                keep=_prototype_positions(matches, index))
            for n, view_scores in zip(block, rescored):
                scored[(n, attr_name)] = view_scores
    results: list[CandidateScore] = []
    for n, (family, _, view) in enumerate(members):
        if n in view_rows:
            for attr_name, matches in by_attr.items():
                results.extend(_pair_candidates(
                    view, family, matches, scored[(n, attr_name)],
                    view_rows[n]))
        elif n in per_view:
            results.extend(score_view_candidates(
                view, family, base, accepted, matcher, index,
                min_view_rows=min_view_rows, frontier=frontier))
    return results
