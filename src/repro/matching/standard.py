"""The standard (non-contextual) schema matching system (Section 2.3).

:class:`StandardMatch` runs the matcher zoo over every (source attribute,
target attribute) pair, converts raw scores into confidences by normalizing
each matcher's score distribution across *all* target attributes
(:mod:`repro.matching.normalize`), and combines matcher confidences with
static weights (:mod:`repro.matching.combiner`).

The contextual layer treats this system as a black box through two entry
points:

* :meth:`StandardMatch.match` — accepted matches above a confidence
  threshold τ (the ``StandardMatch(RS, RT, τ)`` call of Figure 5, line 4);
* :meth:`StandardMatch.score_attribute` — re-score one source attribute
  sample (possibly view-restricted) against a prepared
  :class:`TargetIndex` (the ``ScoreMatch`` call of Figure 5, line 10).

Systems that opt into the profiling interface are also handed prepared
column profiles: :meth:`StandardMatch.score_column_profiles` scores the
profiles of one source attribute in many candidate views as one block.
Every entry point — base columns, black-box samples and view blocks —
scores through that one block scorer.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol, Sequence

from ..errors import MatchingError
from ..relational.instance import Database, Relation
from ..relational.schema import AttributeRef
from .combiner import MatcherEvidence, combine_evidence
from .matchers import AttributeSample, Matcher, default_matchers
from .normalize import confidence_under, confidences_from_scores, fit_normal

if TYPE_CHECKING:  # pragma: no cover - typing only (profiling sits above)
    from ..profiling import ColumnProfile, ProfileStore

__all__ = ["AttributeMatch", "StandardMatchConfig", "TargetIndex",
           "StandardMatch", "MatchingSystem"]

#: Ceiling on the target-side (reverse) confidence boost: relative-best
#: evidence alone never makes a match more confident than this.
_TARGET_SIDE_CAP = 0.85


@dataclasses.dataclass(frozen=True)
class AttributeMatch:
    """A scored pairing of a source attribute with a target attribute.

    ``source.table`` names a base table for standard matches and a view for
    contextual ones; ``score`` is the average matcher raw score (s_i in the
    strawman discussion) and ``confidence`` the combined confidence (f_i).
    """

    source: AttributeRef
    target: AttributeRef
    score: float
    confidence: float
    evidence: tuple[MatcherEvidence, ...] = ()

    def key(self) -> tuple[str, str, str, str]:
        return (self.source.table, self.source.attribute,
                self.target.table, self.target.attribute)

    def flipped(self) -> "AttributeMatch":
        """The same scored pairing seen from the other schema's viewpoint
        (role-reversed matching reports diagnostics in the caller's frame)."""
        return AttributeMatch(source=self.target, target=self.source,
                              score=self.score, confidence=self.confidence,
                              evidence=self.evidence)

    def __str__(self) -> str:
        return (f"{self.source} -> {self.target} "
                f"(score={self.score:.3f}, conf={self.confidence:.3f})")


@dataclasses.dataclass(frozen=True)
class StandardMatchConfig:
    """Knobs of the standard matching system.

    Parameters
    ----------
    sample_limit:
        Cap on the number of values profiled per attribute; larger samples
        are thinned deterministically.  Keeps repeated view re-scoring cheap.
    use_name_evidence:
        When False, only instance/type matchers run — used by experiments
        that must not let attribute names give the answer away.
    score_floor:
        Minimum combined raw score for a pair to be *accepted* by
        :meth:`StandardMatch.match`.  The Φ-normalized confidences grade on
        a curve (half of all pairs sit above 0.5 per matcher by
        construction), so acceptance requires absolute evidence too: a pair
        must look genuinely similar, not merely less dissimilar than its
        neighbours.
    """

    sample_limit: int = 400
    use_name_evidence: bool = True
    score_floor: float = 0.25

    def build_matchers(self) -> list[Matcher]:
        matchers = default_matchers()
        if not self.use_name_evidence:
            matchers = [m for m in matchers if m.name != "name"]
        return matchers


class TargetIndex:
    """Pre-profiled target schema: one profile per (matcher, target attr).

    Building the index once per ``ContextMatch`` run amortizes target-side
    profiling across the hundreds of candidate-view re-scorings.

    ``blocks`` maps each matcher to its
    :meth:`~repro.matching.matchers.base.Matcher.target_block` of the
    profiles (for the q-gram and overlap matchers, CSR rows over a target
    vocabulary), so ``ScoreMatch`` scores a source column against the
    whole frontier in one call per matcher.  ``positions`` maps each
    target attribute's ``(table, attribute)`` to its position in
    ``samples``, so a caller can name the targets whose matches it reads.
    Both are derived data: they are built eagerly, dropped on pickle and
    rebuilt on load, so a pickled index (a store blob, an executor chunk)
    carries only the samples and profiles.
    """

    def __init__(self, database: Database, matchers: Sequence[Matcher],
                 sample_limit: int):
        self.database = database
        self.matchers = list(matchers)
        self.samples: list[AttributeSample] = []
        for relation in database:
            for attribute in relation.schema:
                self.samples.append(AttributeSample.from_relation(
                    relation, attribute, limit=sample_limit))
        if not self.samples:
            raise MatchingError("target schema has no attributes to match")
        self.profiles: dict[str, list[object]] = {
            m.name: [m.profile(s) for s in self.samples] for m in self.matchers
        }
        self._derive()

    def _derive(self) -> None:
        self.blocks: dict[str, object] = {
            m.name: m.target_block(self.profiles[m.name])
            for m in self.matchers}
        self.positions: dict[tuple[str, str], int] = {
            (s.table, s.name): i for i, s in enumerate(self.samples)}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["blocks"], state["positions"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    def refs(self) -> list[AttributeRef]:
        return [AttributeRef(s.table, s.name) for s in self.samples]


class MatchingSystem(Protocol):
    """The black-box interface the contextual layer depends on.

    Implementations may additionally opt into the profiling fast path by
    setting ``supports_profile_store = True`` and providing
    ``score_column_profiles(profiles, index, *, keep)`` (the profiles of
    one attribute's views, scored as one block) plus ``matchers`` /
    ``config`` attributes (see :class:`StandardMatch`); the contextual
    layer falls back to :meth:`score_attribute` per view otherwise.  Setting
    ``supports_target_subset = True`` additionally opts into the retrieval
    frontier: the scoring entry points then accept a ``positions`` keyword
    restricting the target side.  Systems without the flag are always
    scored exhaustively.
    """

    def match(self, source: Database, target: Database,
              tau: float) -> list[AttributeMatch]:
        """Accepted matches with confidence >= tau."""
        ...

    def accept(self, match: AttributeMatch, tau: float) -> bool:
        """Whether a scored pair clears the acceptance thresholds."""
        ...

    def score_relation(self, relation: Relation,
                       index: "TargetIndex") -> list[AttributeMatch]:
        """Scores from every attribute of one source relation."""
        ...

    def build_target_index(self, target: Database) -> TargetIndex:
        """Prepare the reusable target-side profiles."""
        ...

    def score_attribute(self, table: str, sample_values: Sequence,
                        attribute, index: TargetIndex) -> list[AttributeMatch]:
        """Score one (possibly view-restricted) source attribute sample
        against every target attribute."""
        ...


class StandardMatch:
    """Multi-matcher instance-based schema matcher."""

    #: This scorer can consume :class:`~repro.profiling.ColumnProfile`
    #: objects and exposes ``matchers``/``config`` for
    #: :meth:`~repro.profiling.ProfileStore.for_matcher`.
    supports_profile_store = True

    #: This scorer accepts the ``positions`` keyword on its scoring entry
    #: points — a retrieval frontier may restrict rescoring to a subset of
    #: target attributes.  Custom :class:`MatchingSystem` implementations
    #: without the flag are never passed a frontier.
    supports_target_subset = True

    def __init__(self, config: StandardMatchConfig | None = None,
                 matchers: Sequence[Matcher] | None = None):
        self.config = config or StandardMatchConfig()
        #: True when the zoo is the pure function of ``config`` that
        #: ``build_matchers`` produces — only then are two instances with
        #: equal configs guaranteed to profile identically.  An explicit
        #: ``matchers`` list may carry arbitrary parameterization that the
        #: matcher names/types do not expose, so such instances are only
        #: interchangeable with themselves.
        self.default_zoo = matchers is None
        self.matchers = list(matchers) if matchers is not None \
            else self.config.build_matchers()
        if not self.matchers:
            raise MatchingError("StandardMatch needs at least one matcher")

    # ------------------------------------------------------------------
    # Black-box interface
    # ------------------------------------------------------------------
    def build_target_index(self, target: Database) -> TargetIndex:
        return TargetIndex(target, self.matchers, self.config.sample_limit)

    def score_attribute(self, table: str, sample_values: Sequence,
                        attribute, index: TargetIndex,
                        *, positions: Sequence[int] | None = None,
                        ) -> list[AttributeMatch]:
        """All-target scores for one source attribute sample.

        ``table`` may name a base table or a candidate view; ``attribute``
        is the :class:`~repro.relational.schema.Attribute` being scored and
        ``sample_values`` the bag of values from the (restricted) sample.
        ``positions`` restricts scoring to those target-index positions (a
        retrieval frontier); None scores against every target attribute.
        """
        sample = AttributeSample.from_column(
            table, attribute, list(sample_values),
            limit=self.config.sample_limit)
        profiles = {m.name: m.profile(sample) for m in self.matchers}
        return self._score_block(attribute, [sample], [profiles], index,
                                 positions=positions)[0]

    def score_column_profile(self, profile: "ColumnProfile",
                             index: TargetIndex,
                             *, positions: Sequence[int] | None = None,
                             keep: Sequence[int] | None = None,
                             ) -> list[AttributeMatch]:
        """:meth:`score_column_profiles` of one prepared column profile
        (the standard-match stage's base columns)."""
        return self.score_column_profiles([profile], index,
                                          positions=positions, keep=keep)[0]

    def score_column_profiles(self, profiles: Sequence["ColumnProfile"],
                              index: TargetIndex,
                              *, positions: Sequence[int] | None = None,
                              keep: Sequence[int] | None = None,
                              ) -> list[list[AttributeMatch]]:
        """Batch entry point: score prepared profiles of one source
        attribute (e.g. every member view of a partition) against every
        target attribute, or against the frontier subset in
        ``positions``; one match list per profile, in order.

        ``keep`` names the target positions whose matches the caller
        reads; None keeps every scored position.  Every scored position
        still enters each matcher's Φ fit, so a kept match equals, bit for
        bit, the match an all-positions call returns for that target.

        The profiles (from a :class:`~repro.profiling.ProfileStore`) must
        have been built under this scorer's matchers and sample limit; the
        scores are then bit-identical to :meth:`score_attribute` over the
        same column values.
        """
        if not profiles:
            return []
        return self._score_block(
            profiles[0].attribute, [p.sample_view() for p in profiles],
            [p.profiles for p in profiles], index, positions=positions,
            keep=keep)

    def _score_block(self, attribute, samples: Sequence,
                     profiles: Sequence, index: TargetIndex,
                     *, positions: Sequence[int] | None = None,
                     keep: Sequence[int] | None = None,
                     ) -> list[list[AttributeMatch]]:
        """The one scoring path: matcher raws -> Φ confidences -> combined
        evidence, for the views of one source attribute (``samples[v]``
        with per-matcher ``profiles[v]``) against one target subset.

        ``positions`` narrows the target side to a frontier subset; the
        Φ normalization then runs over that subset's score distribution
        (the whole point of pruning).  With ``positions=None`` — or a
        frontier covering every position — the arithmetic is exactly the
        historical exhaustive loop.  Raw scores are computed for every
        scored position, since each one enters the fit, but confidences,
        evidence and matches only for those in ``keep`` (None = all).

        ``applicable`` reads only declared types and sample sizes, so
        each matcher's mask is computed once per distinct sample size and
        the views sharing a mask are scored in one
        :meth:`~repro.matching.matchers.base.Matcher.score_views` call.  A
        view-invariant matcher's scores, Φ fit and evidence are the same
        for every view with that mask, so they are computed once.  The
        fit, the confidences and the combination stay scalar Python in
        matcher order, as for a single column.
        """
        target_ids = (range(len(index.samples)) if positions is None
                      else positions)
        target_samples = [index.samples[i] for i in target_ids]
        if keep is None:
            slots = range(len(target_samples))
        else:
            wanted = set(keep)
            slots = [slot for slot, i in enumerate(target_ids)
                     if i in wanted]
        # evidence[v][n] collects MatcherEvidence of view v for
        # target_ids[slots[n]].
        evidence: list[list[list[MatcherEvidence]]] = [
            [[] for _ in slots] for _ in samples]
        for matcher in self.matchers:
            masks: dict[int, tuple[bool, ...]] = {}
            by_mask: dict[tuple[bool, ...], list[int]] = {}
            for v, sample in enumerate(samples):
                mask = masks.get(len(sample))
                if mask is None:
                    mask = masks[len(sample)] = tuple(
                        matcher.applicable_many(sample, target_samples))
                by_mask.setdefault(mask, []).append(v)
            block = index.blocks[matcher.name]
            for mask, views in by_mask.items():
                ids = [i for i, ok in zip(target_ids, mask) if ok]
                if not ids:
                    continue  # the matcher abstains on every target
                if matcher.view_invariant:
                    found = self._matcher_evidence(
                        matcher, mask, matcher.score_block(
                            profiles[views[0]][matcher.name], block, ids),
                        slots)
                    found_by_view = [found] * len(views)
                else:
                    found_by_view = [
                        self._matcher_evidence(matcher, mask, scores, slots)
                        for scores in matcher.score_views(
                            [profiles[v][matcher.name] for v in views],
                            block, ids)]
                for v, found in zip(views, found_by_view):
                    for kept, item in zip(evidence[v], found):
                        if item is not None:
                            kept.append(item)
        targets = [AttributeRef(target_samples[slot].table,
                                target_samples[slot].name) for slot in slots]
        results: list[list[AttributeMatch]] = []
        for sample, found_by_slot in zip(samples, evidence):
            source_ref = AttributeRef(sample.table, attribute.name)
            matches: list[AttributeMatch] = []
            for found, target_ref in zip(found_by_slot, targets):
                combined = combine_evidence(found)
                if combined is None:
                    continue
                matches.append(AttributeMatch(
                    source=source_ref, target=target_ref,
                    score=combined.score,
                    confidence=combined.confidence,
                    evidence=combined.evidence))
            results.append(matches)
        return results

    @staticmethod
    def _matcher_evidence(matcher: Matcher, mask: Sequence[bool],
                          scores: Sequence[float], slots: Sequence[int],
                          ) -> list[MatcherEvidence | None]:
        """One matcher's evidence for each kept slot (None where it
        abstains): *scores* fill the applicable positions of *mask* in
        order, and the Φ fit runs over all of them."""
        found = iter(scores)
        raw = [next(found) if ok else None for ok in mask]
        fit = fit_normal(raw)
        return [None if raw[slot] is None else MatcherEvidence(
                    matcher=matcher.name, weight=matcher.weight,
                    raw_score=raw[slot],
                    confidence=confidence_under(raw[slot], fit))
                for slot in slots]

    # ------------------------------------------------------------------
    # Whole-schema matching
    # ------------------------------------------------------------------
    def score_all(self, source: Database, target: Database,
                  *, index: TargetIndex | None = None) -> list[AttributeMatch]:
        """Scores for every (source attribute, target attribute) pair."""
        index = index or self.build_target_index(target)
        matches: list[AttributeMatch] = []
        for relation in source:
            matches.extend(self.score_relation(relation, index))
        return matches

    def score_relation(self, relation: Relation, index: TargetIndex,
                       *, store: "ProfileStore | None" = None,
                       ) -> list[AttributeMatch]:
        """Scores from every attribute of one source relation.

        When *store* is given (a :class:`~repro.profiling.ProfileStore`
        built for this scorer), per-attribute profiles are fetched from it
        instead of being rebuilt from raw column values — the
        :class:`~repro.engine.prepared.PreparedSource` fast path, which
        amortizes source-side profiling across engine runs with
        bit-identical scores.

        Confidences are *bidirectional*: the source-side percentile (how a
        target attribute ranks among all targets for this source attribute)
        is combined, by max, with the target-side percentile (how the
        source attribute ranks among this relation's attributes for that
        target).  A pair that is the clear best explanation of a target
        column is a confident match even when sibling target columns crowd
        it out on the source side — e.g. ``grade -> grade1`` whose mean is
        the most extreme of five sibling grade columns (the false-negative
        hazard of Section 3).

        The target-side boost is capped below 1: being *relatively* the
        best partner of a column is weaker evidence than being absolutely
        similar, so rescued matches remain tenuous — they survive moderate
        pruning thresholds but are the first to go as τ rises (the Figure
        21 behaviour).
        """
        matches: list[AttributeMatch] = []
        per_attr: list[list[AttributeMatch]] = []
        for attribute in relation.schema:
            if store is not None:
                per_attr.append(self.score_column_profile(
                    store.base_profile(relation, attribute.name), index))
            else:
                per_attr.append(self.score_attribute(
                    relation.name, relation.column(attribute.name),
                    attribute, index))
        # Target-side normalization across this relation's source attrs.
        by_target: dict[tuple[str, str], list[tuple[int, int]]] = {}
        for i, attr_matches in enumerate(per_attr):
            for j, match in enumerate(attr_matches):
                key = (match.target.table, match.target.attribute)
                by_target.setdefault(key, []).append((i, j))
        adjusted: dict[tuple[int, int], float] = {}
        for key, locations in by_target.items():
            raw = [per_attr[i][j].score for i, j in locations]
            for (i, j), conf in zip(locations, confidences_from_scores(raw)):
                adjusted[(i, j)] = conf if conf is not None else 0.0
        for i, attr_matches in enumerate(per_attr):
            for j, match in enumerate(attr_matches):
                target_side = min(adjusted.get((i, j), 0.0),
                                  _TARGET_SIDE_CAP)
                if target_side > match.confidence:
                    match = dataclasses.replace(match,
                                                confidence=target_side)
                matches.append(match)
        return matches

    def accept(self, match: AttributeMatch, tau: float) -> bool:
        """Acceptance test: relative confidence >= tau AND absolute raw
        score >= the configured floor."""
        return (match.confidence >= tau
                and match.score >= self.config.score_floor)

    def match(self, source: Database, target: Database,
              tau: float = 0.5) -> list[AttributeMatch]:
        """Accepted matches: confidence >= tau and score >= score_floor."""
        if not 0.0 <= tau <= 1.0:
            raise MatchingError(f"tau must be in [0,1], got {tau}")
        return [m for m in self.score_all(source, target)
                if self.accept(m, tau)]
