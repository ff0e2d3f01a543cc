"""Result model and configuration for contextual matching.

A contextual match is a triple ``(RS.s, RT.t, c)`` (paper Section 2.1); we
carry the inferred :class:`~repro.relational.views.View` alongside so the
mapping layer can treat matches as view-attribute correspondences.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Literal

from ..matching.standard import AttributeMatch, StandardMatchConfig
from ..relational.conditions import Condition
from ..relational.schema import AttributeRef
from ..relational.views import View, ViewFamily

if TYPE_CHECKING:  # pragma: no cover - avoids a context <-> engine cycle
    from ..engine.report import RunReport

__all__ = ["ContextualMatch", "CandidateScore", "MatchResult",
           "ContextMatchConfig", "InferenceKind", "SelectionKind"]

InferenceKind = Literal["naive", "src", "tgt"]
SelectionKind = Literal["multitable", "qualtable"]


@dataclasses.dataclass(frozen=True)
class ContextualMatch:
    """An accepted match ``(source.s, target.t, condition)``.

    ``source`` names the *base* table; ``view`` is None exactly when the
    match is standard (condition true).  ``condition_on`` records which
    side the condition restricts: ``"source"`` for the paper's default
    (Section 3 considers source contextual matches), ``"target"`` when the
    roles were reversed via :meth:`ContextMatch.run_reversed`.
    """

    source: AttributeRef
    target: AttributeRef
    condition: Condition
    score: float
    confidence: float
    view: View | None = None
    condition_on: str = "source"

    @property
    def is_contextual(self) -> bool:
        return not self.condition.is_true()

    @property
    def source_name(self) -> str:
        """The relation the match edge originates from (view or base)."""
        if self.view is not None and self.condition_on == "source":
            return self.view.name
        return self.source.table

    def flipped(self) -> "ContextualMatch":
        """The same correspondence seen from the other schema's viewpoint;
        the condition side flips with the roles."""
        return ContextualMatch(
            source=self.target, target=self.source,
            condition=self.condition, score=self.score,
            confidence=self.confidence, view=self.view,
            condition_on="target" if self.condition_on == "source"
            else "source")

    def __str__(self) -> str:
        if self.condition.is_true():
            where = ""
        else:
            side = "" if self.condition_on == "source" else " [on target]"
            where = f" WHERE {self.condition.to_sql()}{side}"
        return (f"{self.source} -> {self.target}{where} "
                f"(conf={self.confidence:.3f})")


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """One re-scored prototype match against a candidate view (the pairs
    accumulated in RL on lines 8-11 of Figure 5).

    ``view_rows`` records how many sample rows satisfied the view's
    condition — the selection stage prefers views that explain more of the
    data when improvements are statistically tied.
    """

    view: View
    family: ViewFamily
    base_match: AttributeMatch
    rescored: AttributeMatch
    view_rows: int = 0

    @property
    def improvement(self) -> float:
        return self.rescored.confidence - self.base_match.confidence


@dataclasses.dataclass
class MatchResult:
    """Output of :class:`~repro.context.contextmatch.ContextMatch`.

    Attributes
    ----------
    matches:
        The selected contextual (and standard) matches M.
    standard_matches:
        The accepted prototype matches from ``StandardMatch`` (before any
        condition was attached) — useful for diagnostics and evaluation.
    families:
        Every well-clustered view family the inference step proposed.
    candidates:
        Every (view, match) rescoring performed, for explanation.
    elapsed_seconds:
        Wall-clock duration of the run.
    report:
        Per-stage timings and counts of the engine run that produced this
        result (:class:`~repro.engine.report.RunReport`); None for results
        assembled outside the engine.
    """

    matches: list[ContextualMatch] = dataclasses.field(default_factory=list)
    standard_matches: list[AttributeMatch] = dataclasses.field(default_factory=list)
    families: list[ViewFamily] = dataclasses.field(default_factory=list)
    candidates: list[CandidateScore] = dataclasses.field(default_factory=list)
    elapsed_seconds: float = 0.0
    report: "RunReport | None" = None

    @property
    def contextual_matches(self) -> list[ContextualMatch]:
        """Only the matches that originate from views ("only edges
        originating from views are considered" — Section 5)."""
        return [m for m in self.matches if m.is_contextual]

    def views(self) -> list[View]:
        seen: dict[str, View] = {}
        for match in self.matches:
            if match.view is not None and match.view.name not in seen:
                seen[match.view.name] = match.view
        return list(seen.values())


@dataclasses.dataclass
class ContextMatchConfig:
    """All knobs of Algorithm ContextMatch (Figure 5) and its subroutines.

    Parameters
    ----------
    tau:
        Confidence threshold of ``StandardMatch`` (paper default 0.5).
    omega:
        Improvement threshold for accepting a view in ``QualTable``,
        expressed as *percent* improvement of the total match confidence
        between the view and the target table over the base table
        (paper default 5).
    early_disjuncts:
        ``EarlyDisjuncts`` control parameter: True allows disjunctive
        conditions during candidate generation and selects a single best
        view per target table; False (``LateDisjuncts``) considers only
        simple conditions and selects every view clearing ``omega``.
    inference:
        Candidate-view generator: ``"naive"``, ``"src"`` or ``"tgt"``.
    selection:
        ``"qualtable"`` (paper's recommended) or ``"multitable"`` (strawman).
    significance_threshold:
        T of the well-clustered significance test (default 0.95).
    train_fraction:
        Fraction of the sample used for classifier training in
        ``ClusteredViewGen``; the rest is the testing set.
    max_train / max_test:
        Caps (deterministic thinning) on classifier training/testing sizes.
    min_view_rows:
        Candidate views with fewer sample rows are skipped — too little
        data to score.
    conjunctive_stages:
        Number of ``ContextMatch`` iterations for conjunctive conditions
        (Section 3.5); 1 disables conjunctive search.
    seed:
        Seed for the train/test partitioning RNG.
    use_retrieval:
        Gate candidate-view rescoring on the hybrid retrieval frontier
        (:mod:`repro.retrieval`): each source attribute is rescored only
        against its top-``retrieval_top_k`` retrieved target attributes
        (always including its accepted prototype targets), instead of
        against the whole target schema.  False forces exhaustive
        rescoring — the equivalence reference.  Pruning shrinks the
        Φ-normalization pool of rejected alternatives, so results are
        bit-identical whenever ``retrieval_top_k`` covers the target's
        attribute count (the default does for every golden scenario).
    retrieval_top_k:
        Frontier size per source attribute when ``use_retrieval`` is on.
        ``MatchEngine.prepare`` builds a retrieval index only for a
        target with more attributes than this.
    standard:
        Configuration of the underlying standard matching system.
    """

    tau: float = 0.5
    omega: float = 5.0
    early_disjuncts: bool = True
    inference: InferenceKind = "tgt"
    selection: SelectionKind = "qualtable"
    significance_threshold: float = 0.95
    train_fraction: float = 0.5
    max_train: int = 250
    max_test: int = 250
    min_view_rows: int = 2
    conjunctive_stages: int = 1
    seed: int = 0
    use_retrieval: bool = True
    retrieval_top_k: int = 16
    standard: StandardMatchConfig = dataclasses.field(
        default_factory=StandardMatchConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0,1], got {self.tau}")
        if self.omega < 0.0:
            raise ValueError(f"omega must be >= 0, got {self.omega}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0,1)")
        if self.inference not in ("naive", "src", "tgt"):
            raise ValueError(f"unknown inference kind {self.inference!r}")
        if self.selection not in ("multitable", "qualtable"):
            raise ValueError(f"unknown selection kind {self.selection!r}")
        if self.conjunctive_stages < 1:
            raise ValueError("conjunctive_stages must be >= 1")
        if self.retrieval_top_k < 1:
            raise ValueError(
                f"retrieval_top_k must be >= 1, got {self.retrieval_top_k}")
