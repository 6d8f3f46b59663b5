"""Point estimators with confidence intervals, and a normality check.

The variance estimator is the biased (divisor n) sample variance; its
confidence interval comes from the delta method, whose driving quantity is
the fourth central moment minus the squared second central moment.  All
moments are computed in two passes (center first, then powers) because the
fourth-moment combination is catastrophically cancellation-prone in
one-pass form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import InvalidArgument

Z_95 = 1.96

# distribution-free one-sample Kolmogorov-Smirnov critical values c(alpha):
# reject when D_n > c(alpha) / sqrt(n)
KS_CRITICAL = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a symmetric confidence interval."""

    point: float
    lo: float
    hi: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0


def _central_moments(samples):
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise InvalidArgument("need at least 2 one-dimensional samples")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    return x, m2, m4


def variance_estimate(samples) -> EstimateWithCI:
    """Biased sample variance with a 95% delta-method interval.

    half-width = 1.96 / sqrt(n) * sqrt(m4 - m2^2) with central moments m2,
    m4 of the samples.
    """
    x, m2, m4 = _central_moments(samples)
    hw = float(Z_95 / np.sqrt(len(x)) * np.sqrt(max(m4 - m2**2, 0.0)))
    return EstimateWithCI(point=m2, lo=m2 - hw, hi=m2 + hw, n=len(x))


def mean_estimate(samples) -> EstimateWithCI:
    """Sample mean with a 95% normal interval (biased sd, divisor n)."""
    x, m2, _ = _central_moments(samples)
    point = float(x.mean())
    hw = float(Z_95 / np.sqrt(len(x)) * np.sqrt(m2))
    return EstimateWithCI(point=point, lo=point - hw, hi=point + hw, n=len(x))


def normality_check(samples, mu: float, sigma_sq: float, alpha: float = 0.05):
    """One-sample Kolmogorov-Smirnov statistic against N(mu, sigma_sq).

    Returns (statistic, passed) with passed = statistic < c(alpha)/sqrt(n).
    """
    if sigma_sq <= 0.0:
        raise InvalidArgument("sigma_sq must be positive")
    if alpha not in KS_CRITICAL:
        raise InvalidArgument(f"unsupported alpha {alpha}; choose from {sorted(KS_CRITICAL)}")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 100:
        raise InvalidArgument("normality check needs at least 100 samples")
    cdf = ndtr((x - mu) / np.sqrt(sigma_sq))
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    return stat, stat < KS_CRITICAL[alpha] / np.sqrt(n)
