"""Gaussian classifier for numeric attributes.

"If h is a numeric attribute, a statistical classifier is used instead"
(Section 3.2.3).  Each label gets a univariate normal fitted to its training
values; classification maximizes prior x likelihood.  A variance floor
keeps degenerate (constant) classes usable.

The batch path (:meth:`GaussianClassifier.classify_many` /
:meth:`~GaussianClassifier.log_posteriors_many`) keeps the scalar kernel —
floating-point exponentiation (``** 2``) is not reproducible across numpy
and libm at the ulp level, and the equivalence contract is bit-identity —
and instead amortizes: the per-label fit happens once per batch and each
*distinct* value is evaluated once (numeric columns repeat values heavily).
:meth:`~GaussianClassifier.group_scorer` fits a label group from its
members' values re-interleaved into teach order (positions are recorded at
teach time), with the same fit and kernel, so a merged group's column
equals a from-scratch retrain bit-for-bit.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from operator import itemgetter
from typing import Any, Hashable, Sequence

import numpy as np

from .base import (Classifier, GroupColumn, GroupScorer, label_key,
                   value_key)

__all__ = ["GaussianClassifier"]

#: Variance floor relative to the global spread of the training data.
_VARIANCE_FLOOR_FRACTION = 1e-4


def _variance_floor(all_values: list[float]) -> float:
    """The variance floor for a classifier's training values: a fraction
    of the spread of the finite ones.  A NaN or an infinity must not make
    it NaN or infinite: ``max(0.0, nan)`` is 0.0, so a NaN floor would
    hand a zero-variance label to ``math.log(0)``."""
    finite = [v for v in all_values if math.isfinite(v)]
    if finite:
        lo, hi = min(finite), max(finite)
        global_spread = (hi - lo) or max(abs(hi), 1.0)
    else:
        global_spread = 1.0
    return max(global_spread * _VARIANCE_FLOOR_FRACTION, 1e-9)


def _fit_values(values: list[float], floor: float) -> tuple[float, float]:
    """(mean, floored variance) of one label's values, in teach order."""
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean, max(variance, floor)


def _normal_terms(mean: float, variance: float, count: int,
                  total: int) -> tuple[float, float, float]:
    """(2·variance, normal log-norm term, log prior) of one fitted label:
    the constants of :func:`_log_posterior`."""
    return (2.0 * variance, -0.5 * math.log(2.0 * math.pi * variance),
            math.log(count / total))


def _log_posterior(number: float, mean: float, twice_var: float,
                   log_norm: float, log_prior: float) -> float:
    """The scalar kernel: log prior plus the normal log likelihood."""
    return log_prior + (log_norm - (number - mean) ** 2 / twice_var)


def _as_number(value: Any) -> float | None:
    """*value* as a float; None for garbage and for an int too large for
    any float (an exactly read 400-digit INTEGER field)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return None


class GaussianClassifier(Classifier):
    """Per-label univariate Gaussian, maximum a-posteriori prediction."""

    def __init__(self):
        self._values: dict[Hashable, list[float]] = defaultdict(list)
        #: Global teach-order index of each stored value, parallel to
        #: ``_values`` — lets :meth:`group_scorer` interleave merged lists
        #: in the exact order a retrain would have taught them.
        self._positions: dict[Hashable, list[int]] = defaultdict(list)
        self._label_counts: Counter = Counter()
        self._taught = 0
        self._fitted: dict[Hashable, tuple[float, float]] | None = None
        #: Per-label constants of the posterior formula, derived from the
        #: fit: (label, mean, 2*variance, normal log-norm term, log prior,
        #: label count).  Rebuilt with the fit.
        self._terms: list[tuple[Hashable, float, float, float, float, int]] | None = None

    def teach(self, value: Any, label: Hashable) -> None:
        number = _as_number(value)
        if number is None:
            return  # non-numeric garbage carries no signal for this model
        self._values[label].append(number)
        self._positions[label].append(self._taught)
        self._taught += 1
        self._label_counts[label] += 1
        self._fitted = None
        self._terms = None

    @property
    def labels(self) -> frozenset[Hashable]:
        return frozenset(self._label_counts)

    def _fit(self) -> dict[Hashable, tuple[float, float]]:
        if self._fitted is not None:
            return self._fitted
        floor = _variance_floor(
            [v for vs in self._values.values() for v in vs])
        self._fitted = {label: _fit_values(values, floor)
                        for label, values in self._values.items()}
        return self._fitted

    def _posterior_terms(self) -> list[tuple[Hashable, float, float, float,
                                             float, int]]:
        """Per-label constants of the posterior formula, cached with the
        fit — the ``math.log`` calls happen once per fit, not once per
        classified value.  Each term reproduces the textbook expression's
        exact floats, so posteriors assembled from them are bit-identical
        to computing everything inline."""
        if self._terms is None:
            fitted = self._fit()
            total = sum(self._label_counts.values())
            self._terms = [
                (label, mean,
                 *_normal_terms(mean, variance, self._label_counts[label],
                                total),
                 self._label_counts[label])
                for label, (mean, variance) in fitted.items()
            ]
        return self._terms

    def log_posteriors(self, value: Any) -> dict[Hashable, float]:
        number = _as_number(value)
        if number is None:
            return {}
        return {
            label: _log_posterior(number, mean, twice_var, log_norm,
                                  log_prior)
            for label, mean, twice_var, log_norm, log_prior, _
            in self._posterior_terms()
        }

    def classify(self, value: Any) -> Hashable | None:
        number = _as_number(value)
        terms = self._posterior_terms()
        if number is None or not terms:
            # Fall back to the prior for unparseable inputs, if trained.
            if self._label_counts:
                return max(self._label_counts,
                           key=lambda lab: (self._label_counts[lab],
                                            label_key(lab)))
            return None
        # Single pass tracking the best posterior; the (count, label_key)
        # tie-break only engages on exact posterior ties, exactly like
        # max(posteriors, key=(posterior, count, label_key)).
        best_posterior: float | None = None
        ties: list[tuple[Hashable, int]] = []
        for label, mean, twice_var, log_norm, log_prior, count in terms:
            posterior = _log_posterior(number, mean, twice_var, log_norm,
                                       log_prior)
            if best_posterior is None or posterior > best_posterior:
                best_posterior = posterior
                ties = [(label, count)]
            elif posterior == best_posterior:
                ties.append((label, count))
        if len(ties) == 1:
            return ties[0][0]
        return max(ties, key=lambda lc: (lc[1], label_key(lc[0])))[0]

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def log_posteriors_many(self, values: Sequence[Any]
                            ) -> list[dict[Hashable, float]]:
        """Batch log posteriors: one fit, one evaluation per distinct
        value, bit-identical to :meth:`log_posteriors`."""
        self._fit()
        memo: dict[tuple, dict[Hashable, float]] = {}
        out: list[dict[Hashable, float]] = []
        for value in values:
            key = value_key(value)
            if key is None:
                out.append(self.log_posteriors(value))
                continue
            cached = memo.get(key)
            if cached is None:
                cached = memo[key] = self.log_posteriors(value)
            out.append(dict(cached))
        return out

    def classify_many(self, values: Sequence[Any]) -> list[Hashable | None]:
        """Batch classification, bit-identical to :meth:`classify`."""
        self._fit()
        memo: dict[tuple, Hashable | None] = {}
        out: list[Hashable | None] = []
        for value in values:
            key = value_key(value)
            if key is None:
                out.append(self.classify(value))
                continue
            if key not in memo:
                memo[key] = self.classify(value)
            out.append(memo[key])
        return out

    def group_scorer(self, values: Sequence[Any]) -> GroupScorer:
        """Posteriors of label groups over *values*: one row per distinct
        value, plus one shared row for unparseable values."""
        return _GaussianGroupScorer(self, values)


class _GaussianGroupScorer(GroupScorer):
    """:class:`GroupScorer` over one batch for the Gaussian classifier.

    A group's column refits the group from its members' values merged back
    into teach order, so the order-sensitive sums of :func:`_fit_values`
    see the sequence a retrain would.  The variance floor is the taught
    classifier's: a retrain lists its values group by group, but ``min``
    / ``max`` over the finite values are order-free, so the floor does
    not depend on the grouping.
    Unparseable values share the last row, scored 0.0 by every group, so
    the tie rule picks the prior's choice exactly as :meth:`classify`
    does.
    """

    def __init__(self, gaussian: GaussianClassifier,
                 values: Sequence[Any]):
        self.labels = tuple(gaussian._label_counts)
        self._taught = {label: list(zip(gaussian._positions[label],
                                        gaussian._values[label]))
                        for label in self.labels}
        self._floor = _variance_floor(
            [v for vs in gaussian._values.values() for v in vs])
        self._total = sum(gaussian._label_counts.values())
        row_of: dict[tuple, int] = {}
        self._numbers: list[float] = []
        unparseable: list[int] = []
        rows: list[int] = []
        for i, value in enumerate(values):
            key = value_key(value)
            row = row_of.get(key) if key is not None else None
            if row is None:
                number = _as_number(value)
                if number is None:
                    unparseable.append(i)
                    rows.append(-1)
                    continue
                row = len(self._numbers)
                self._numbers.append(number)
                if key is not None:
                    row_of[key] = row
            rows.append(row)
        self.rows = np.array(rows, dtype=np.intp)
        self.rows[unparseable] = len(self._numbers)

    def column(self, members: Sequence[Hashable]) -> GroupColumn:
        taught = sorted((pair for label in members
                         for pair in self._taught[label]), key=itemgetter(0))
        values = [value for _, value in taught]
        mean, variance = _fit_values(values, self._floor)
        twice_var, log_norm, log_prior = _normal_terms(
            mean, variance, len(values), self._total)
        scores = [_log_posterior(number, mean, twice_var, log_norm, log_prior)
                  for number in self._numbers]
        scores.append(0.0)
        return GroupColumn(np.array(scores, dtype=np.float64), len(values))
