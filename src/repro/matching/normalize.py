"""Raw-score to confidence conversion (paper Section 2.3).

"For a single matcher m and source attribute a, the distribution of scores
to all target attributes are treated as samples of a normal distribution,
allowing the raw scores given by m for a to be converted into confidence
scores using standard statistical techniques."

Concretely: given the raw scores of one matcher from one source attribute to
*every* target attribute, each score's confidence is Φ((s − µ)/σ) — the
probability, under the fitted normal, that a random target attribute scores
lower.  A score equal to the mean therefore has confidence 0.5, which is why
the paper's default acceptance threshold is τ = 0.5.
"""

from __future__ import annotations

from typing import Sequence

from ..mathutil import mean_std, phi

__all__ = ["confidences_from_scores", "fit_normal", "confidence_under",
           "STD_EPSILON"]

#: Below this spread the score distribution is considered degenerate.
STD_EPSILON = 1e-9


def fit_normal(raw_scores: Sequence[float | None]
               ) -> tuple[float, float] | None:
    """The normal fitted to one matcher's raw score distribution: (µ, σ)
    of the present scores, or None when the distribution is degenerate
    (fewer than two scores, or zero spread).  ``None`` entries mark target
    attributes the matcher abstained on and do not contribute."""
    present = [s for s in raw_scores if s is not None]
    if len(present) < 2:
        return None
    mu, sigma = mean_std(present)
    if sigma < STD_EPSILON:
        return None
    return mu, sigma


def confidence_under(score: float, fit: tuple[float, float] | None) -> float:
    """Φ((s − µ)/σ) under a :func:`fit_normal` result; a degenerate fit
    maps every score to 0.5: with no variation there is no evidence any
    pairing is better than another."""
    if fit is None:
        return 0.5
    mu, sigma = fit
    return phi((score - mu) / sigma)


def confidences_from_scores(raw_scores: Sequence[float | None]) -> list[float | None]:
    """Convert one matcher's raw score distribution into confidences.

    ``None`` entries mark target attributes the matcher abstained on; they
    stay ``None`` and do not contribute to the fitted distribution.
    Callers that need only some of the confidences fit once with
    :func:`fit_normal` and apply :func:`confidence_under` to those.
    """
    fit = fit_normal(raw_scores)
    return [None if s is None else confidence_under(s, fit)
            for s in raw_scores]
