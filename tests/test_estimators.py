import math

import numpy as np
import pytest

from smclab import (
    InvalidArgument,
    mean_estimate,
    normality_check,
    variance_estimate,
)


def test_variance_estimate_examples():
    est = variance_estimate(np.full(10, 3.3))
    assert est.point == 0.0 and est.half_width == 0.0
    est = variance_estimate(np.array([0.0, 1.0]))
    assert est.point == pytest.approx(0.25, abs=1e-15)
    with pytest.raises(InvalidArgument):
        variance_estimate(np.array([1.0]))


def test_variance_matches_biased_sample_variance(rng):
    x = rng.normal(2.0, 1.5, 10_000)
    est = variance_estimate(x)
    assert est.point == pytest.approx(float(np.var(x)), abs=1e-12)
    assert est.lo <= est.point <= est.hi


def test_variance_estimate_large_normal(rng):
    x = rng.normal(0.0, 1.0, 1_000_000)
    est = variance_estimate(x)
    assert est.point == pytest.approx(1.0, abs=0.006)
    # width ~ 1.96 sqrt(2)/1000 for standard normals
    assert est.half_width == pytest.approx(1.96 * math.sqrt(2.0) / 1000.0, rel=0.05)


def test_mean_estimate_examples():
    est = mean_estimate(np.full(5, 4.2))
    assert (est.point, est.lo, est.hi) == (4.2, 4.2, 4.2)
    assert mean_estimate(np.array([0.0, 1.0, 2.0, 3.0])).point == pytest.approx(1.5)
    with pytest.raises(InvalidArgument):
        mean_estimate(np.array([7.0]))


def test_ci_width_shrinks_like_sqrt_n(rng):
    widths = []
    for n in (1_000, 10_000, 100_000):
        x = rng.gamma(2.0, 1.0, n)
        widths.append(variance_estimate(x).half_width)
    assert widths[0] > widths[1] > widths[2]
    assert widths[0] / widths[1] == pytest.approx(math.sqrt(10.0), rel=0.35)
    assert widths[1] / widths[2] == pytest.approx(math.sqrt(10.0), rel=0.35)


def test_quick_coverage(rng):
    hits_mean = 0
    hits_var = 0
    reps = 200
    for _ in range(reps):
        x = rng.random(600)
        m = mean_estimate(x)
        hits_mean += m.lo <= 0.5 <= m.hi
        v = variance_estimate(x)
        hits_var += v.lo <= 1.0 / 12.0 <= v.hi
    assert 0.89 <= hits_mean / reps <= 0.99
    assert 0.89 <= hits_var / reps <= 0.99


def test_normality_check_calibration(rng):
    passes = 0
    reps = 150
    for _ in range(reps):
        x = rng.normal(1.0, 2.0, 800)
        _, ok = normality_check(x, 1.0, 4.0)
        passes += ok
    assert passes / reps >= 0.9
    # gross mismatch fails
    stat, ok = normality_check(rng.random(2_000), 0.0, 1.0)
    assert not ok and stat > 0.3


def test_normality_check_errors(rng):
    with pytest.raises(InvalidArgument):
        normality_check(rng.normal(size=500), 0.0, 0.0)
    with pytest.raises(InvalidArgument):
        normality_check(rng.normal(size=50), 0.0, 1.0)


def test_ks_statistic_against_scipy(rng):
    from scipy.stats import kstest
    x = rng.normal(0.3, 1.1, 500)
    stat, _ = normality_check(x, 0.3, 1.1**2)
    ref = kstest(x, "norm", args=(0.3, 1.1)).statistic
    assert stat == pytest.approx(ref, abs=1e-12)
