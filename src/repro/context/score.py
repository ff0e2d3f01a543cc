"""Re-scoring prototype matches against candidate views — ``ScoreMatch``
(Figure 5, lines 6-11).

For each candidate view ``Vc`` the sample of the base table is restricted by
``c`` and every accepted prototype match from that table is re-evaluated by
the (black-box) standard matcher.  Confidences are re-normalized against the
distribution of the restricted sample's scores across all target attributes,
exactly as the strawman discussion prescribes ("estimated using the new
score s'_i and the distribution of scores seen for RS.s across the sample").

No view is materialized: the run's :class:`~repro.profiling.ProfileStore`
buckets the base rows by each family's categorical attribute exactly once
(:class:`~repro.profiling.PartitionIndex`), and the unseen member views
of all of a relation's families are scored per (partition attribute,
source attribute) block (:func:`score_relation_candidates`).  The store
builds every view's :class:`~repro.profiling.ColumnProfile` of the
attribute in one batch (:meth:`~repro.profiling.ProfileStore.view_profiles`,
composing merged-group profiles from cell profiles where the matchers are
additive), and the standard matcher scores all of them against the
attribute's frontier in one
:meth:`~repro.matching.standard.StandardMatch.score_column_profiles`
call.  The scores are bit-identical to materializing each view
(``View.evaluate``) and scoring its columns one by one, since the same
rows in the same order feed the same deterministic sampling and scoring;
the tests keep that per-view path as their reference.

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

from ..matching.standard import AttributeMatch, StandardMatch, TargetIndex
from ..relational.instance import Relation
from ..relational.views import View, ViewFamily
from .model import CandidateScore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiling import ProfileStore
    from ..retrieval import ScoringFrontier

__all__ = ["score_relation_candidates"]


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


def score_relation_candidates(families: Sequence[ViewFamily],
                              base: Relation,
                              accepted: Sequence[AttributeMatch],
                              matcher: StandardMatch, index: TargetIndex,
                              *, store: "ProfileStore",
                              min_view_rows: int = 2,
                              seen_views: set[View] | None = None,
                              frontier: "ScoringFrontier | None" = None,
                              ) -> list[CandidateScore]:
    """Score every member view of *families*, all over one base relation
    (the loop body of Figure 5).

    Returns one :class:`CandidateScore` per (view, prototype match) pair —
    the entries added to RL.  Views whose restricted sample is smaller than
    ``min_view_rows`` are skipped: they cannot be scored meaningfully.

    Distinct families frequently share member views (a merged family keeps
    the singleton views it did not merge), so each distinct view is scored
    exactly once — duplicates would otherwise inflate the per-view
    confidence totals used by ``QualTable``.  ``seen_views`` carries the
    views already scored across calls, and gains the views scored here.

    For each (partition attribute, source attribute), *store* (built for
    *matcher*) builds every view's profile in one batch and *matcher*
    scores all of them against the attribute's frontier at once.  Results
    come in order: family, view, attribute, prototype match.

    A :class:`~repro.retrieval.ScoringFrontier` (built per relation by the
    scoring stage) restricts each attribute's rescoring to its retrieved
    target positions and tallies considered/pruned pair counts per (view,
    attribute); None — or a counting-only frontier — keeps the exhaustive
    behaviour.
    """
    by_attr = _accepted_by_attribute(accepted, base.name)
    # (family, group, view) of every view to score, in scoring order.
    seen = seen_views if seen_views is not None else set()
    members: list[tuple[ViewFamily, frozenset, View]] = []
    for family in families:
        for group, view in zip(family.groups, family.views()):
            if view not in seen:
                seen.add(view)
                members.append((family, group, view))
    # The blocks: partition attribute -> member numbers of the views
    # large enough to score, and each member's row count.
    blocks: dict[str, list[int]] = {}
    view_rows: dict[int, int] = {}
    for n, (family, group, _) in enumerate(members):
        rows = store.partition(base, family.attribute).group_size(group)
        if rows >= min_view_rows:
            blocks.setdefault(family.attribute, []).append(n)
            view_rows[n] = rows
    scored: dict[tuple[int, str], list[AttributeMatch]] = {}
    for partition_attr, block in blocks.items():
        groups = [members[n][1] for n in block]
        for attr_name, matches in by_attr.items():
            positions = (None if frontier is None else
                         frontier.positions_for(attr_name, views=len(block)))
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
    return results
