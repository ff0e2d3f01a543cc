"""Small shared numeric helpers (normal CDF, mean/std).

Both the matcher-confidence normalization (Section 2.3) and the
well-clustered view family significance test (Section 3.2.2) convert a
z-score through the standard normal CDF Φ; keeping Φ here avoids a scipy
dependency for one function.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["phi", "mean_std"]


def phi(z: float) -> float:
    """Standard normal cumulative distribution function Φ(z)."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation; (0, 0) for empty input."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean, math.sqrt(variance)
