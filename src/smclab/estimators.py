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

# distribution-free one-sample Kolmogorov-Smirnov critical value at the 5%
# level: reject when D_n > KS_CRITICAL / sqrt(n)
KS_CRITICAL = 1.358


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


def _centered(samples):
    """The samples and their deviations from the sample mean."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise InvalidArgument("need at least 2 one-dimensional samples")
    return x, x - x.mean()


def variance_estimate(samples) -> EstimateWithCI:
    """Biased sample variance with a 95% delta-method interval.

    half-width = 1.96 / sqrt(n) * sqrt(m4 - m2^2) with central moments m2,
    m4 of the samples.
    """
    x, centered = _centered(samples)
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    hw = float(Z_95 / np.sqrt(len(x)) * np.sqrt(max(m4 - m2**2, 0.0)))
    return EstimateWithCI(point=m2, lo=m2 - hw, hi=m2 + hw, n=len(x))


def mean_estimate(samples) -> EstimateWithCI:
    """Sample mean with a 95% normal interval (biased sd, divisor n)."""
    x, centered = _centered(samples)
    m2 = float(np.mean(centered**2))
    point = float(x.mean())
    hw = float(Z_95 / np.sqrt(len(x)) * np.sqrt(m2))
    return EstimateWithCI(point=point, lo=point - hw, hi=point + hw, n=len(x))


def normality_check(samples, mu: float, sigma_sq: float):
    """One-sample Kolmogorov-Smirnov statistic against N(mu, sigma_sq).

    Returns (statistic, passed) with passed = statistic <
    KS_CRITICAL / sqrt(n): the test at the 5% level.
    """
    if sigma_sq <= 0.0:
        raise InvalidArgument("sigma_sq must be positive")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 100:
        raise InvalidArgument("normality check needs at least 100 samples")
    cdf = ndtr((x - mu) / np.sqrt(sigma_sq))
    grid = np.arange(1, n + 1) / n
    stat = float(np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n))))
    return stat, stat < KS_CRITICAL / np.sqrt(n)
