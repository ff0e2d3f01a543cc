"""Conjunctive condition search (paper Section 3.5).

``ContextMatch`` is re-run with the views selected at stage *i* acting as
base tables at stage *i + 1*: only those views are considered for further
partitioning, and attributes already mentioned in a view's condition are
excluded.  A high-quality k-condition is thus found whenever one of its
(k-1)-sub-conditions was found at the previous stage — the paper's heuristic
for avoiding the exponential enumeration of conjunctions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..matching.standard import AttributeMatch, StandardMatch, TargetIndex
from ..relational.instance import Database
from ..relational.schema import AttributeRef
from ..relational.views import View, ViewFamily
from .candidates import CandidateViewGenerator, InferenceContext
from .model import CandidateScore, ContextualMatch
from .score import score_relation_candidates
from .select import qual_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profiling import ProfileStore

__all__ = ["refine_conjunctive"]


def refine_conjunctive(matches: Sequence[ContextualMatch], source: Database,
                       generator: CandidateViewGenerator,
                       matcher: StandardMatch, index: TargetIndex,
                       ctx: InferenceContext, store: "ProfileStore",
                       ) -> tuple[list[ContextualMatch], list[ViewFamily],
                                  list[CandidateScore]]:
    """One extra ContextMatch stage over the currently selected views.

    Returns the refined match list plus the families and candidate scores
    evaluated during this stage (for diagnostics).  *store* profiles the
    per-stage rescoring; the restricted stage relations carry unique view
    names, so cached profiles stay per-view.  Callers should pass a
    stage-scoped store (see
    :class:`~repro.engine.stages.ConjunctiveRefineStage`): the restricted
    relations materialized here are per-selection artifacts, and caching
    them in a long-lived :class:`~repro.engine.prepared.PreparedSource`
    store would pin their row data for the store's lifetime.
    """
    config = ctx.config
    refined: list[ContextualMatch] = [m for m in matches if not m.is_contextual]
    families_out: list[ViewFamily] = []
    candidates_out: list[CandidateScore] = []

    # Group the contextual matches by the view they originate from.
    by_view: dict[str, tuple[View, list[ContextualMatch]]] = {}
    for match in matches:
        if match.view is None:
            continue
        entry = by_view.setdefault(match.view.name, (match.view, []))
        entry[1].append(match)

    for view_name in sorted(by_view):
        view, view_matches = by_view[view_name]
        base_relation = source.relation(view.base)
        restricted = view.evaluate(base_relation)
        if len(restricted) < max(4, 2 * config.min_view_rows):
            refined.extend(view_matches)
            continue
        # The stage's prototype matches: this view's matches re-rooted at
        # the view, so the generator and selector see it as a base table.
        prototypes = [
            AttributeMatch(
                source=AttributeRef(view.name, m.source.attribute),
                target=m.target, score=m.score, confidence=m.confidence)
            for m in view_matches
        ]
        exclude = frozenset(view.condition.attributes())
        families = generator.infer(restricted, prototypes, ctx,
                                   exclude_attributes=exclude)
        families_out.extend(families)
        stage_candidates = score_relation_candidates(
            families, restricted, prototypes, matcher, index,
            min_view_rows=config.min_view_rows, store=store)
        candidates_out.extend(stage_candidates)
        selected = qual_table(prototypes, stage_candidates,
                              omega=config.omega,
                              early_disjuncts=config.early_disjuncts)
        by_target = {(m.source.attribute, m.target.table, m.target.attribute): m
                     for m in view_matches}
        for sel in selected:
            parent = by_target.get((sel.source.attribute, sel.target.table,
                                    sel.target.attribute))
            if parent is None:
                continue
            if not sel.is_contextual:
                refined.append(parent)
                continue
            conjunct = view.condition.and_(sel.condition)
            refined.append(ContextualMatch(
                source=AttributeRef(view.base, sel.source.attribute),
                target=sel.target,
                condition=conjunct,
                score=sel.score,
                confidence=sel.confidence,
                view=View(view.base, conjunct)))
    return refined, families_out, candidates_out
