"""Per-(table, attribute, matcher) column profiles.

A :class:`ColumnProfile` bundles everything the scoring half of the
standard matcher needs about one source column: the deterministic
:class:`~repro.matching.matchers.AttributeSample` and the profile every
matcher derived from it.  Profiles are computed once per column (or per
view-restricted column) and reused across matchers' hundreds of
re-scorings, replacing the ad-hoc rebuild
``StandardMatch.score_attribute`` used to perform on every call.

Merged-group views compose where possible:
:func:`merge_column_profiles` builds the union profile of disjoint
partition cells, delegating to :meth:`Matcher.merge_profiles` for
additive matchers (q-gram counts, value sets, metadata profiles) so the
merged profile never touches raw rows for them, and re-profiling the
gathered union sample only for the rest.  Both paths are bit-identical to
profiling the materialized view: composition is only attempted when no
deterministic thinning is in play, and the in-tree additive profiles are
order-independent integer/set structures.

Both builders work on blocks — the views of one attribute that a scoring
pass needs: :func:`build_presampled_profiles` and
:func:`merge_column_profiles_many` profile every column of a block with
one :meth:`Matcher.profile_many` call per matcher, which counts a whole
block's q-grams in one ``np.unique`` and profiles a view-invariant
matcher once.  The one-column functions are their one-element calls.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping, Sequence

from ..matching.matchers import AttributeSample, Matcher
from ..relational.schema import Attribute
from ..relational.types import is_missing
from ..sampling import systematic_thin

__all__ = ["SampleDigest", "ColumnProfile", "build_column_profile",
           "build_presampled_profiles", "merge_column_profiles",
           "merge_column_profiles_many"]


@dataclasses.dataclass(frozen=True)
class SampleDigest:
    """Shape summary of a sample whose values were never gathered.

    Duck-types the slice of :class:`AttributeSample` the matchers'
    ``applicable`` checks read — declared type and sample size — for
    profiles composed purely via :meth:`Matcher.merge_profiles`.
    """

    table: str
    attribute: Attribute
    size: int

    @property
    def name(self) -> str:
        return self.attribute.name

    def __len__(self) -> int:
        return self.size


@dataclasses.dataclass(frozen=True)
class ColumnProfile:
    """One column's sample plus every matcher's profile of it.

    Attributes
    ----------
    table:
        Base-table or view name the column belongs to (the ``source.table``
        of the matches scored from this profile).
    attribute:
        The attribute being profiled.
    n_values:
        Sample size after missing-value removal and deterministic thinning.
    thinned:
        True when the clean column exceeded the sample limit, so the sample
        is a systematic thinning of it.  Thinned profiles never participate
        in merge composition (the thinning of a union is not the union of
        thinnings).
    profiles:
        Matcher name -> profile, for every matcher of the owning store.
    sample:
        The underlying sample; None when the profile was composed entirely
        from cell profiles without gathering values.
    """

    table: str
    attribute: Attribute
    n_values: int
    thinned: bool
    profiles: Mapping[str, Any]
    sample: AttributeSample | None = None

    @property
    def name(self) -> str:
        return self.attribute.name

    def sample_view(self) -> AttributeSample | SampleDigest:
        """What the matchers' ``applicable`` checks should see."""
        if self.sample is not None:
            return self.sample
        return SampleDigest(self.table, self.attribute, self.n_values)


def _drop_missing(values: Sequence[Any]) -> list[Any]:
    """``[v for v in values if not is_missing(v)]``, testing each distinct
    value once — the predicate is a pure function of the value, and view
    cells are filtered long before thinning caps the sample."""
    try:
        missing = {v for v in set(values) if is_missing(v)}
    except TypeError:  # unhashable values — per-row fallback
        return [v for v in values if not is_missing(v)]
    if not missing:
        return list(values)
    return [v for v in values if v not in missing]


def _thin(clean: Sequence[Any], limit: int | None) -> tuple[list[Any], bool]:
    """``(sample values, thinned)`` of a clean column under *limit*."""
    thinned = limit is not None and len(clean) > limit
    return (systematic_thin(clean, limit) if limit is not None
            else list(clean)), thinned


def build_column_profile(table: str, attribute: Attribute,
                         values: Sequence[Any], matchers: Sequence[Matcher],
                         limit: int | None,
                         *, values_clean: bool = False) -> ColumnProfile:
    """Profile one column under every matcher (sampling as
    ``AttributeSample.from_column`` does).

    ``values_clean`` asserts the caller already removed missing values
    (e.g. via a memoized presence mask) — the filtering pass is skipped.
    """
    clean = list(values) if values_clean else _drop_missing(values)
    sample_values, thinned = _thin(clean, limit)
    return build_presampled_profiles(
        attribute, [(table, sample_values, thinned)], matchers)[0]


def build_presampled_profiles(attribute: Attribute,
                              columns: Sequence[tuple[str, Sequence[Any],
                                                      bool]],
                              matchers: Sequence[Matcher],
                              ) -> list[ColumnProfile]:
    """Profile columns of one attribute — ``(table, sample values,
    thinned)`` each, whose clean, thinned samples the caller already
    gathered (e.g. through :meth:`PartitionIndex.sampled_present_rows`,
    which thins in index space before touching row data) — with one
    :meth:`~repro.matching.matchers.Matcher.profile_many` call per
    matcher."""
    samples = [AttributeSample(table, attribute, tuple(values))
               for table, values, _ in columns]
    by_matcher = [(m.name, m.profile_many(samples)) for m in matchers]
    return [ColumnProfile(
                table=sample.table, attribute=attribute,
                n_values=len(sample.values), thinned=thinned,
                profiles={name: profiles[n] for name, profiles in by_matcher},
                sample=sample)
            for n, (sample, (_, _, thinned)) in enumerate(zip(samples,
                                                              columns))]


def merge_column_profiles(table: str, attribute: Attribute,
                          parts: Sequence[ColumnProfile],
                          matchers: Sequence[Matcher], limit: int | None,
                          gather_values: Callable[[], Sequence[Any]],
                          ) -> tuple[ColumnProfile, int]:
    """The profile of the union of the disjoint cells behind *parts*.

    Returns ``(profile, n_composed)`` where ``n_composed`` counts the
    matcher profiles composed via :meth:`Matcher.merge_profiles` instead of
    being recomputed from values.  *gather_values* lazily materializes the
    union column (in base-row order, missing values already removed) and
    is only called when some matcher profile — or the union sample itself,
    when thinning applies — cannot be composed.
    """
    return merge_column_profiles_many(
        attribute, [(table, parts)], matchers, limit,
        lambda wanted: [gather_values() for _ in wanted])[0]


def merge_column_profiles_many(
        attribute: Attribute,
        groups: Sequence[tuple[str, Sequence[ColumnProfile]]],
        matchers: Sequence[Matcher], limit: int | None,
        gather: Callable[[Sequence[int]], Sequence[Sequence[Any]]],
        ) -> list[tuple[ColumnProfile, int]]:
    """:func:`merge_column_profiles` of each ``(table, parts)`` of
    *groups* (unions of cells of one attribute), as one block.

    ``gather(wanted)`` materializes the union columns of the groups
    numbered *wanted* (base-row order, missing values removed); it is
    called at most once.  The profiles computed from values — whole
    profiles of groups that cannot be composed, and the non-additive
    matchers' profiles of those that can — take one
    :meth:`~repro.matching.matchers.Matcher.profile_many` call per
    matcher.
    """
    mergeable = [m for m in matchers if m.mergeable]
    results: list[tuple[ColumnProfile, int] | None] = [None] * len(groups)
    rebuild: list[int] = []
    mixed: list[int] = []
    for n, (table, parts) in enumerate(groups):
        total = sum(p.n_values for p in parts)
        if any(p.thinned for p in parts) or (limit is not None
                                             and total > limit):
            # Thinning of the union differs from the union of (possibly
            # thinned) cells: rebuild from the gathered rows for exactness.
            rebuild.append(n)
        elif len(mergeable) == len(matchers):
            # Pure composition: no raw row is touched.
            profiles = {m.name: m.merge_profiles([p.profiles[m.name]
                                                  for p in parts])
                        for m in matchers}
            results[n] = (ColumnProfile(table=table, attribute=attribute,
                                        n_values=total, thinned=False,
                                        profiles=profiles, sample=None),
                          len(matchers))
        else:
            mixed.append(n)
    if rebuild or mixed:
        gathered = dict(zip(rebuild + mixed, gather(rebuild + mixed)))
        rebuilt = build_presampled_profiles(
            attribute, [(groups[n][0], *_thin(list(gathered[n]), limit))
                        for n in rebuild], matchers)
        for n, profile in zip(rebuild, rebuilt):
            results[n] = (profile, 0)
        # Mixed: gather the union sample once for the non-additive
        # matchers, compose the rest from cell profiles.
        samples = [AttributeSample(groups[n][0], attribute,
                                   tuple(_thin(list(gathered[n]), limit)[0]))
                   for n in mixed]
        computed = {m.name: m.profile_many(samples)
                    for m in matchers if not m.mergeable}
        for k, (n, sample) in enumerate(zip(mixed, samples)):
            parts = groups[n][1]
            profiles = {
                m.name: (m.merge_profiles([p.profiles[m.name] for p in parts])
                         if m.mergeable else computed[m.name][k])
                for m in matchers
            }
            results[n] = (ColumnProfile(table=sample.table,
                                        attribute=attribute,
                                        n_values=len(sample.values),
                                        thinned=False, profiles=profiles,
                                        sample=sample), len(mergeable))
    return results
