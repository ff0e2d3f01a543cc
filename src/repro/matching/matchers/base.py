"""Matcher interface (paper Section 2.3).

The standard matching system "employs a variety of matching algorithms,
referred to as *matchers*, to compute similarity scores between a pair of
attributes".  A :class:`Matcher` sees an :class:`AttributeSample` — the
attribute plus the bag of values from the current sample — for each side and
returns a raw similarity in ``[0, 1]``.

To keep re-scoring of view-restricted samples cheap (``ScoreMatch`` is
called once per candidate view per match), matchers expose a two-phase API:
:meth:`Matcher.profile` digests a sample into a reusable profile (target
profiles are cached by :class:`~repro.matching.standard.StandardMatch`),
and :meth:`Matcher.score_profiles` compares two profiles.

``ScoreMatch`` scores one source profile against many target profiles,
so matchers also expose a batch form: :meth:`Matcher.target_block` turns
the target profiles into scoring state once per
:class:`~repro.matching.standard.TargetIndex`, and
:meth:`Matcher.score_block` scores one source profile against a subset of
that block's targets in one call.  The defaults keep the block as the
profile list and loop :meth:`Matcher.score_profiles`; matchers with a
vectorized kernel override both and must return exactly the same floats.

Matchers whose profiles are *additive* — token, n-gram or value counts,
where the profile of a union of disjoint samples is a pure function of the
member profiles — additionally set :attr:`Matcher.mergeable` and implement
:meth:`Matcher.merge_profiles`.  The profiling subsystem
(:mod:`repro.profiling`) uses the hook to compose the profile of a merged
view (a union of partition cells) from cached cell profiles without
touching raw rows.

``ScoreMatch`` rescores one source attribute in many candidate views (the
member views of a partition) against the same frontier, so matchers also
work on a *view block*: :meth:`Matcher.profile_many` profiles the views'
samples of one attribute together and :meth:`Matcher.score_views` scores
their profiles against one target subset.  The defaults loop
:meth:`Matcher.profile` and :meth:`Matcher.score_block`, so a matcher
without a view kernel scores exactly as it would one view at a time.
A matcher whose profile reads only the attribute (its name or declared
type, never the values) sets :attr:`Matcher.view_invariant`: every view of
the attribute then shares one profile, and the standard matcher scores,
fits and weighs that matcher once per (attribute, frontier) instead of
once per view.

:meth:`Matcher.applicable` may read only the declared types and the
sample sizes of the pair — the slice of a sample a
:class:`~repro.profiling.SampleDigest` carries — so the standard matcher
evaluates it, against the whole frontier at once
(:meth:`Matcher.applicable_many`), once per distinct source sample size
in a view block.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any, Sequence

from ...relational.schema import Attribute
from ...relational.types import is_missing
from ...sampling import systematic_thin

__all__ = ["AttributeSample", "Matcher"]


@dataclasses.dataclass(frozen=True)
class AttributeSample:
    """An attribute together with the bag of values ``v(R.a)`` from the
    current sample (missing values already removed)."""

    table: str
    attribute: Attribute
    values: tuple[Any, ...]

    @classmethod
    def from_column(cls, table: str, attribute: Attribute,
                    values: Sequence[Any], *, limit: int | None = None) -> "AttributeSample":
        clean = [v for v in values if not is_missing(v)]
        if limit is not None:
            clean = systematic_thin(clean, limit)
        return cls(table, attribute, tuple(clean))

    @classmethod
    def from_relation(cls, relation: "Any", attribute: Attribute, *,
                      limit: int | None = None) -> "AttributeSample":
        """Sample one relation column — semantically identical to
        ``from_column(relation.name, attribute, relation.column(...))`` but
        the missing-value filter runs on the typed column store, so the
        full column is never materialized as Python objects."""
        clean = relation.non_missing(attribute.name)
        if limit is not None:
            clean = systematic_thin(clean, limit)
        return cls(relation.name, attribute, tuple(clean))

    @property
    def name(self) -> str:
        return self.attribute.name

    def __len__(self) -> int:
        return len(self.values)


class Matcher(abc.ABC):
    """A single similarity algorithm over attribute pairs.

    Subclasses define :attr:`name`, :attr:`weight` (relative voice in the
    combined confidence, Section 2.3), :meth:`applicable`,
    :meth:`profile` and :meth:`score_profiles`.
    """

    #: Unique short identifier, used in explanations and weighting tables.
    name: str = "matcher"
    #: Relative weight when combining matcher confidences.
    weight: float = 1.0
    #: True when :meth:`merge_profiles` composes the profile of a union of
    #: disjoint samples exactly (bit-identically) from the member profiles.
    #: Requires profiles independent of value order and of the sample's
    #: table name.
    mergeable: bool = False
    #: True when :meth:`profile` reads only the sample's attribute (its
    #: name or declared type), never its table or values: every view of
    #: one attribute then has the same profile and the same scores.
    view_invariant: bool = False

    def applicable(self, source: AttributeSample, target: AttributeSample) -> bool:
        """Whether this matcher produces a meaningful score for the pair.

        Inapplicable matchers abstain: they contribute neither score nor
        confidence for the pair.  The answer may depend only on the two
        declared types and sample sizes.
        """
        return True

    def applicable_many(self, source: AttributeSample,
                        targets: Sequence[AttributeSample]) -> list[bool]:
        """``[applicable(source, t) for t in targets]``; overrides must
        return the same answers."""
        if type(self).applicable is Matcher.applicable:
            return [True] * len(targets)
        return [self.applicable(source, target) for target in targets]

    @abc.abstractmethod
    def profile(self, sample: AttributeSample) -> Any:
        """Digest a sample into a reusable comparison profile."""

    @abc.abstractmethod
    def score_profiles(self, source: Any, target: Any) -> float:
        """Raw similarity in [0, 1] between two profiles."""

    def target_block(self, profiles: Sequence[Any]) -> Any:
        """Scoring state derived from one index's target profiles, built
        once per :class:`~repro.matching.standard.TargetIndex`.  It must
        be a pure function of *profiles* and hold no reference to the
        index.  The default is the profile list itself."""
        return profiles

    def score_block(self, source: Any, block: Any,
                    positions: Sequence[int]) -> list[float]:
        """``score_profiles(source, profiles[i])`` for each ``i`` in
        *positions*, in order, where *block* is
        ``target_block(profiles)``.  Overrides must return the same
        floats, bit for bit."""
        return [self.score_profiles(source, block[i]) for i in positions]

    def profile_many(self, samples: Sequence[AttributeSample]) -> list[Any]:
        """``[profile(s) for s in samples]`` for samples of one attribute
        (the views of a block).  A view-invariant matcher profiles the
        first sample and shares that profile.  Overrides must return
        equal profiles."""
        if self.view_invariant and samples:
            return [self.profile(samples[0])] * len(samples)
        return [self.profile(sample) for sample in samples]

    def score_views(self, sources: Sequence[Any], block: Any,
                    positions: Sequence[int]) -> list[list[float]]:
        """``score_block(source, block, positions)`` for each of
        *sources* (the profiles of one attribute's views), in order.
        Overrides must return the same floats, bit for bit."""
        return [self.score_block(source, block, positions)
                for source in sources]

    def merge_profiles(self, profiles: Sequence[Any]) -> Any:
        """The profile of the union of the disjoint samples behind
        *profiles*.  Only meaningful when :attr:`mergeable` is True; the
        result must equal :meth:`profile` of the concatenated samples."""
        raise NotImplementedError(
            f"{self.name!r} profiles are not additive and cannot be merged")

    def score(self, source: AttributeSample, target: AttributeSample) -> float:
        """One-shot convenience: profile both sides and compare."""
        return self.score_profiles(self.profile(source), self.profile(target))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} w={self.weight}>"
