"""Algorithm ContextMatch (paper Figure 5) — backward-compatible facade.

The driver logic lives in :mod:`repro.engine`: the five steps of Figure 5
(standard-match → infer-views → score-candidates → select →
conjunctive-refine) are explicit :class:`~repro.engine.stages.Stage`
objects run by :class:`~repro.engine.engine.MatchEngine`, which also
supports preparing a target once and matching many sources against it.

:class:`ContextMatch` is kept as a thin facade over a private engine so
existing code and the paper-oriented reading of the API keep working:
``ContextMatch(config).run(source, target)`` is exactly
``MatchEngine(config).match(source, target)``.
"""

from __future__ import annotations

from ..engine.engine import MatchEngine
from ..relational.instance import Database
from .model import ContextMatchConfig, MatchResult

__all__ = ["ContextMatch"]


class ContextMatch:
    """Contextual schema matcher (facade over :class:`MatchEngine`).

    Parameters
    ----------
    config:
        All thresholds and policy switches; see
        :class:`~repro.context.model.ContextMatchConfig`.

    Example
    -------
    >>> from repro.datagen import make_retail_workload
    >>> workload = make_retail_workload(target="ryan", seed=7)
    >>> result = ContextMatch().run(workload.source, workload.target)
    >>> any(m.is_contextual for m in result.matches)
    True
    """

    def __init__(self, config: ContextMatchConfig | None = None):
        self.engine = MatchEngine(config=config)

    @property
    def config(self) -> ContextMatchConfig:
        return self.engine.config

    def run(self, source: Database, target: Database) -> MatchResult:
        """Execute ContextMatch over sampled instances of both schemas."""
        return self.engine.match(source, target)

    def run_reversed(self, source: Database, target: Database) -> MatchResult:
        """Discover matches with conditions on the *target* tables.

        Section 3: "it is generally straightforward to reverse the role of
        source and target tables to discover matches involving conditions
        on the target table."  The matcher runs with the roles swapped and
        the result is flipped back into this call's frame: matches carry
        ``condition_on="target"`` with views over the target table, and the
        ``standard_matches`` diagnostics are flipped to source -> target
        orientation.
        """
        return self.engine.match_reversed(source, target)
