"""Small numerical helpers: snapped fractional parts, compensated sums, quadrature nodes."""

import functools

import numpy as np

# Fractional parts within this distance of an integer are treated as exact.
# The stratum bookkeeping is discontinuous at integers, so boundary values
# produced by float cancellation must land deterministically.
SNAP_TOL = 1e-12


def snapped_frac(x):
    """Fractional part with values within SNAP_TOL of an integer snapped to 0."""
    x = np.asarray(x, dtype=float)
    f = x - np.floor(x)
    f = np.where((f > 1.0 - SNAP_TOL) | (f < SNAP_TOL), 0.0, f)
    return f if f.shape else float(f)


def kahan_cumsum(values):
    """Compensated running sums of a 1-d array (Ogita, Rump & Oishi, 2005),
    named after the Kahan loop they replaced: the ``numerics.kahan_cumsum`` metric
    reads the name.  ``np.cumsum`` adds left to right, so TwoSum gives each step's
    error ``e`` exactly; ``s + cumsum(e)`` is as accurate as sums in twice the
    working precision, rounded once."""
    v = np.asarray(values, dtype=float)
    s = np.cumsum(v)
    prev = np.concatenate([[0.0], s[:-1]])
    b = s - prev
    e = (prev - (s - b)) + (v - b)
    return s + np.cumsum(e)


@functools.cache
def gauss_legendre(n):
    """Nodes and weights on [0, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0
