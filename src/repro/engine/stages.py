"""Composable pipeline stages — Algorithm ContextMatch (Figure 5) unrolled.

The monolithic driver loop is decomposed into five explicit stages so
deployments can instrument, replace, or extend individual steps (modern
matching systems are configurable multi-stage processes, not monoliths):

1. :class:`StandardMatchStage` — accepted prototype matches per source
   relation (``StandardMatch(RS, RT, τ)``, line 4);
2. :class:`InferViewsStage` — candidate view families
   (``InferCandidateViews``, line 5);
3. :class:`ScoreCandidatesStage` — re-score every prototype against every
   candidate view, accumulating RL (``ScoreMatch``, lines 6-11);
4. :class:`SelectStage` — the matches to present
   (``SelectContextualMatches``, line 12);
5. :class:`ConjunctiveRefineStage` — iterate over selected views for
   conjunctive conditions (Section 3.5).

Stages communicate through a mutable :class:`PipelineState` and run in
list order; each returns diagnostic counts for its
:class:`~repro.engine.report.StageReport`.  The decomposition is
result-preserving: the only randomized step is view inference, and the
stage-major order issues its RNG draws in exactly the relation order the
original fused loop did.
"""

from __future__ import annotations

import abc
import dataclasses

from ..context.candidates import CandidateViewGenerator, InferenceContext
from ..context.conjunctive import refine_conjunctive
from ..context.model import ContextMatchConfig, MatchResult
from ..context.score import score_relation_candidates
from ..context.select import select_matches
from ..matching.matchers import AttributeSample
from ..matching.standard import AttributeMatch, StandardMatch
from ..matching.tokens import token_cache_counters
from ..profiling import ProfileStore
from ..relational.instance import Database, Relation
from ..relational.views import ViewFamily
from ..retrieval import RetrievalIndex, ScoringFrontier
from .prepared import PreparedTarget


def _token_counters_since(before: dict[str, int]) -> dict[str, int]:
    """The run's q-gram cache deltas for one stage's work."""
    now = token_cache_counters()
    return {key: now[key] - before.get(key, 0) for key in now}


__all__ = ["PipelineState", "Stage", "StandardMatchStage",
           "InferViewsStage", "ScoreCandidatesStage", "SelectStage",
           "ConjunctiveRefineStage", "default_stages"]


@dataclasses.dataclass
class PipelineState:
    """Everything one run reads and writes, shared by all stages.

    ``result`` is the :class:`MatchResult` under construction; the keyed
    intermediates (``accepted``, ``families``) let later stages look up
    per-relation products of earlier ones without re-deriving them.
    """

    source: Database
    prepared: PreparedTarget
    config: ContextMatchConfig
    matcher: StandardMatch
    generator: CandidateViewGenerator
    ctx: InferenceContext
    result: MatchResult
    #: Source-side profile/partition cache (:mod:`repro.profiling`).
    #: Long-lived when the run was given a
    #: :class:`~repro.engine.prepared.PreparedSource`, per-run otherwise.
    store: ProfileStore
    #: Accepted prototype matches keyed by source relation name.
    accepted: dict[str, list[AttributeMatch]] = dataclasses.field(
        default_factory=dict)
    #: Inferred view families keyed by source relation name.
    families: dict[str, list[ViewFamily]] = dataclasses.field(
        default_factory=dict)


class Stage(abc.ABC):
    """One step of the matching pipeline.

    Stages must be stateless across runs (one stage list may serve many
    concurrent-in-time runs of the same engine); all per-run state lives
    in the :class:`PipelineState`.
    """

    name: str = "stage"

    @abc.abstractmethod
    def run(self, state: PipelineState) -> dict[str, int]:
        """Execute the stage, mutating ``state``; returns the diagnostic
        counts recorded in this stage's :class:`StageReport`."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class StandardMatchStage(Stage):
    """Accepted prototype matches from the black-box standard matcher.

    Source columns are scored from the run store's cached
    :class:`~repro.profiling.ColumnProfile` objects — a run against a
    :class:`~repro.engine.prepared.PreparedSource` reports all
    ``profile_hits`` here from its second run on.
    """

    name = "standard-match"

    def run(self, state: PipelineState) -> dict[str, int]:
        before = state.store.counters()
        tokens_before = token_cache_counters()
        for relation in state.source:
            scored = state.matcher.score_relation(
                relation, state.prepared.index, store=state.store)
            accepted = [m for m in scored
                        if state.matcher.accept(m, state.config.tau)]
            state.accepted[relation.name] = accepted
            state.result.standard_matches.extend(accepted)
        return {"relations": len(state.accepted),
                "accepted": len(state.result.standard_matches),
                **state.store.counters_since(before),
                **_token_counters_since(tokens_before)}


class InferViewsStage(Stage):
    """Candidate view families per source relation (``InferCandidateViews``).

    The inference hot path: classifier work runs through the vectorized
    batch core, and the stage counts surface it — ``values_classified`` /
    ``batch_calls`` / ``merges_without_retrain`` from the run's
    :class:`~repro.context.candidates.InferenceStats` plus the run's
    q-gram cache's ``token_cache_hits`` / ``token_cache_misses`` deltas.
    """

    name = "infer-views"

    def run(self, state: PipelineState) -> dict[str, int]:
        stats_before = state.ctx.stats.snapshot()
        tokens_before = token_cache_counters()
        for relation in state.source:
            families = state.generator.infer(
                relation, state.accepted.get(relation.name, []), state.ctx)
            state.families[relation.name] = families
            state.result.families.extend(families)
        n_views = sum(len(f.views()) for fs in state.families.values()
                      for f in fs)
        return {"families": len(state.result.families), "views": n_views,
                **state.ctx.stats.since(stats_before),
                **_token_counters_since(tokens_before)}


class ScoreCandidatesStage(Stage):
    """Re-score every prototype match against the candidate views (RL).

    The ScoreMatch hot path: through the run's profile store each base
    relation is partitioned once per family attribute, and the unseen
    member views of all its families are scored as blocks — per
    (partition attribute, source attribute), every view's profile is built
    from partition cells in one batch (merged groups composing additive
    profiles from cell profiles) and scored against the attribute's
    frontier at once — instead of materializing and re-profiling every
    view.  The stage's counts surface the cache economics:
    ``partitions_built`` / ``partition_hits`` and ``profile_hits`` /
    ``profile_misses`` / ``profiles_merged``.

    With ``config.use_retrieval`` (the default) the target side of every
    rescoring is pruned to the :class:`~repro.retrieval.RetrievalIndex`
    frontier: each source attribute is queried once per relation and its
    retrieved top-k positions — always widened by the attribute's accepted
    prototype targets, so no RL entry is lost — bound the Φ-normalization
    pool.  Where ``retrieval_top_k`` covers the target every frontier is
    the identity, built from the target index's positions without an
    index.  Where it does not and the prepared target carries no index
    (it was prepared at a k that covered it), the first such run builds
    one for the artifact
    (:meth:`~repro.engine.prepared.PreparedTarget.run_local_retrieval`),
    kept for later runs of the process and never written onto the
    artifact.  The
    pruning economics land in the stage counts (``pairs_considered`` /
    ``pairs_pruned`` / ``retrieval_queries`` / ``retrieval_hits`` /
    ``retrieval_missed`` / ``retrieval_recall``); exhaustive runs report
    the same keys with zero pruning.  The run's q-gram cache deltas
    (``token_cache_hits`` / ``token_cache_misses``) credit the stage's
    view profiling and frontier queries.
    """

    name = "score-candidates"

    @staticmethod
    def _source_qgrams(state: PipelineState, relation: Relation,
                       attr_name: str):
        """The q-gram bag of one source column for frontier queries —
        from the run's profile store when already built (via the
        counter-neutral peek, keeping golden counter baselines stable),
        re-profiled from the raw column otherwise."""
        profile = state.store.peek_base_profile(relation.name, attr_name)
        if profile is not None:
            grams = profile.profiles.get("qgram")
            if grams is not None:
                return grams
        qgram_matcher = next(
            (m for m in state.matcher.matchers if m.name == "qgram"), None)
        if qgram_matcher is None:
            return None
        sample = AttributeSample.from_relation(
            relation, relation.schema.attribute(attr_name),
            limit=state.prepared.standard_config.sample_limit)
        return qgram_matcher.profile(sample)

    def _build_frontier(self, state: PipelineState,
                        retrieval: RetrievalIndex | None, relation: Relation,
                        ) -> tuple[ScoringFrontier, int, int, int]:
        """(frontier, queries, hits, missed) for one source relation;
        without *retrieval* (k covers the target) every attribute's
        retrieved set is the whole target."""
        index = state.prepared.index
        n_targets = len(index.samples)
        by_attr: dict[str, set[tuple[str, str]]] = {}
        for match in state.accepted.get(relation.name, []):
            by_attr.setdefault(match.source.attribute, set()).add(
                (match.target.table, match.target.attribute))
        positions: dict[str, tuple[int, ...]] = {}
        queries = hits = missed = 0
        for attribute in relation.schema:
            targets = by_attr.get(attribute.name)
            if targets is None:
                continue
            if retrieval is None:
                retrieved = set(range(n_targets))
            else:
                grams = self._source_qgrams(state, relation, attribute.name)
                retrieved = set(retrieval.query(
                    attribute, grams, state.config.retrieval_top_k))
            queries += 1
            accepted_positions = {index.positions[target]
                                  for target in targets
                                  if target in index.positions}
            hits += len(accepted_positions & retrieved)
            missed += len(accepted_positions - retrieved)
            positions[attribute.name] = tuple(
                sorted(retrieved | accepted_positions))
        return (ScoringFrontier(n_targets, positions),
                queries, hits, missed)

    def run(self, state: PipelineState) -> dict[str, int]:
        before = state.store.counters()
        tokens_before = token_cache_counters()
        index = state.prepared.index
        n_targets = len(index.samples)
        use_retrieval = (state.config.use_retrieval
                         and RetrievalIndex.supports(index))
        retrieval = None
        if use_retrieval and state.config.retrieval_top_k < n_targets:
            retrieval = state.prepared.retrieval
            if retrieval is None:
                # Prepared at a k that covers the target.
                retrieval = state.prepared.run_local_retrieval()
        queries = hits = missed = 0
        pairs_considered = pairs_pruned = 0
        for relation in state.source:
            if use_retrieval:
                frontier, q, h, m = self._build_frontier(
                    state, retrieval, relation)
                queries += q
                hits += h
                missed += m
            else:
                # Counting-only frontier: exhaustive scoring with the same
                # pairs_considered accounting, zero pruning.
                frontier = ScoringFrontier(n_targets)
            state.result.candidates.extend(score_relation_candidates(
                state.families.get(relation.name, []), relation,
                state.accepted.get(relation.name, []), state.matcher,
                state.prepared.index,
                min_view_rows=state.config.min_view_rows,
                store=state.store, frontier=frontier))
            pairs_considered += frontier.pairs_considered
            pairs_pruned += frontier.pairs_pruned
        recall = hits / (hits + missed) if (hits + missed) else 1.0
        return {"candidates": len(state.result.candidates),
                "pairs_considered": pairs_considered,
                "pairs_pruned": pairs_pruned,
                "retrieval_queries": queries,
                "retrieval_hits": hits,
                "retrieval_missed": missed,
                "retrieval_recall": recall,
                **state.store.counters_since(before),
                **_token_counters_since(tokens_before)}


class SelectStage(Stage):
    """Choose the matches to present (``SelectContextualMatches``)."""

    name = "select"

    def run(self, state: PipelineState) -> dict[str, int]:
        config = state.config
        state.result.matches = select_matches(
            state.result.standard_matches, state.result.candidates,
            selection=config.selection, omega=config.omega,
            early_disjuncts=config.early_disjuncts)
        contextual = sum(1 for m in state.result.matches if m.is_contextual)
        return {"selected": len(state.result.matches),
                "contextual": contextual}


class ConjunctiveRefineStage(Stage):
    """Iterate ContextMatch over selected views for conjunctive conditions.

    Runs ``conjunctive_stages - 1`` refinement iterations; with the default
    configuration (``conjunctive_stages=1``) it is a timed no-op, so the
    stage still appears in every :class:`RunReport`.

    Refinement profiles *restricted* stage relations (views selected this
    run), which are per-selection artifacts — so the stage uses its own
    stage-scoped :class:`~repro.profiling.ProfileStore` rather than the
    run's (possibly :class:`~repro.engine.prepared.PreparedSource`-backed)
    store, whose lifetime would pin every materialized stage relation.
    A stage that iterates reports the stage-local cache counters and the
    run's q-gram cache deltas of the refinement's inference and rescoring
    in its counts.
    """

    name = "conjunctive-refine"

    def run(self, state: PipelineState) -> dict[str, int]:
        iterations = 0
        tokens_before = token_cache_counters()
        store = ProfileStore(state.store.matchers, state.store.sample_limit)
        for _stage in range(1, state.config.conjunctive_stages):
            matches, families, candidates = refine_conjunctive(
                state.result.matches, state.source, state.generator,
                state.matcher, state.prepared.index, state.ctx,
                store=store)
            state.result.matches = matches
            state.result.families.extend(families)
            state.result.candidates.extend(candidates)
            iterations += 1
        counts = {"iterations": iterations,
                  "matches": len(state.result.matches)}
        if iterations:
            counts.update(store.counters())
            counts.update(_token_counters_since(tokens_before))
        return counts


def default_stages() -> list[Stage]:
    """The paper's five-stage ContextMatch pipeline, in order."""
    return [StandardMatchStage(), InferViewsStage(), ScoreCandidatesStage(),
            SelectStage(), ConjunctiveRefineStage()]
