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
  partition-once path: the engine hands it a
  :class:`~repro.profiling.ProfileStore`, which buckets the base rows by
  the family's categorical attribute exactly once
  (:class:`~repro.profiling.PartitionIndex`), derives every member view's
  column samples from partition cells, and reuses cached
  :class:`~repro.profiling.ColumnProfile` objects — composing merged-group
  profiles from cell profiles where the matchers are additive;
* any other :class:`~repro.matching.standard.MatchingSystem` is a black
  box (§2.3): each view is materialized via ``View.evaluate`` and its
  columns go through ``score_attribute`` (:func:`score_view_candidates`).

The two paths are bit-identical for a standard matcher: the same rows in
the same order feed the same deterministic sampling and scoring, which
the tests pin by running ``StandardMatch`` behind a wrapper that hides
its profiling interface.

Either path hands each (view, attribute) to the matching system once; the
standard matcher then scores that column against its whole frontier with
one :meth:`~repro.matching.matchers.base.Matcher.score_block` call per
matcher over the target index's prepared blocks (numpy CSR kernels for
the q-gram and overlap matchers), not one call per target attribute.
Every frontier target's raw score enters the Φ fit, but only the
prototype targets' rescorings enter RL, so the partition-once path names
those targets (``keep``) and the matcher builds evidence for them alone.
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

__all__ = ["score_view_candidates", "score_family_candidates"]


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
                        attr_name: str) -> tuple[int, ...] | None:
    """The target subset to rescore *attr_name* against (None = all)."""
    if frontier is None:
        return None
    return frontier.positions_for(attr_name)


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


def _score_group_candidates(view: View, group: frozenset,
                            family: ViewFamily, base: Relation,
                            by_attr: dict[str, list[AttributeMatch]],
                            matcher: MatchingSystem, index: TargetIndex,
                            store: "ProfileStore", min_view_rows: int,
                            frontier: "ScoringFrontier | None" = None,
                            ) -> list[CandidateScore]:
    """Partition-once scoring of one member view (fast path)."""
    partition = store.partition(base, family.attribute)
    view_rows = partition.group_size(group)
    if view_rows < min_view_rows:
        return []
    results: list[CandidateScore] = []
    for attr_name, matches in by_attr.items():
        profile = store.view_profile(base, family.attribute, group, attr_name)
        positions = _frontier_positions(frontier, attr_name)
        keep = _prototype_positions(matches, index)
        if positions is None:
            scored = matcher.score_column_profile(profile, index, keep=keep)
        else:
            scored = matcher.score_column_profile(
                profile, index, positions=positions, keep=keep)
        results.extend(_pair_candidates(view, family, matches, scored,
                                        view_rows))
    return results


def score_family_candidates(family: ViewFamily, base: Relation,
                            accepted: Sequence[AttributeMatch],
                            matcher: MatchingSystem, index: TargetIndex,
                            *, min_view_rows: int = 2,
                            seen_views: set[View] | None = None,
                            store: "ProfileStore | None" = None,
                            frontier: "ScoringFrontier | None" = None,
                            ) -> list[CandidateScore]:
    """Score every member view of a family (the loop body of Figure 5).

    Distinct families frequently share member views (a merged family keeps
    the singleton views it did not merge), so callers pass ``seen_views``
    to score each distinct view exactly once — duplicates would otherwise
    inflate the per-view confidence totals used by ``QualTable``.

    With a :class:`~repro.profiling.ProfileStore` (and a matching system
    that opts in via ``supports_profile_store``) the member views are
    scored from one shared partition of the base relation instead of being
    individually materialized; results are bit-identical either way.

    A :class:`~repro.retrieval.ScoringFrontier` (built per relation by the
    scoring stage) restricts each attribute's rescoring to its retrieved
    target positions and tallies considered/pruned pair counts; None — or
    a counting-only frontier — keeps the exhaustive behaviour.
    """
    use_store = (store is not None
                 and getattr(matcher, "supports_profile_store", False)
                 and family.table == base.name)
    by_attr = (_accepted_by_attribute(accepted, base.name)
               if use_store else None)
    results: list[CandidateScore] = []
    for group, view in zip(family.groups, family.views()):
        if seen_views is not None:
            if view in seen_views:
                continue
            seen_views.add(view)
        if use_store:
            results.extend(_score_group_candidates(
                view, group, family, base, by_attr, matcher, index,
                store, min_view_rows, frontier))
        else:
            results.extend(score_view_candidates(
                view, family, base, accepted, matcher, index,
                min_view_rows=min_view_rows, frontier=frontier))
    return results
