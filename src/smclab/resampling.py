"""Stratified resampling, baselines, and exact conditional-variance identities.

Given M particles with positive potential values g_i, the normalized weights
are w_i = M g_i / sum(g) and S_i = w_1 + ... + w_i are their running sums
(so S_M = M).  Stratified selection draws one uniform U_m per stratum
m = 1..M and picks the ancestor l with S_{l-1} < m - U_m <= S_l.

Two quantities of the running sums drive everything downstream: the
fractional parts u_i = {S_i} and the integer offsets mu_i = floor(S_i) + 1
(with u_0 = 0, mu_0 = 1 by convention).  They give the exact conditional
law of the selected sample:

    P(Y_m = X_i | positions) = q_{m,i} 1{mu_{i-1} <= m <= mu_i}

with q built from (u, mu, w) -- see :func:`selection_coefficients` -- and an
exact expression for the conditional variance of M^{-1/2} sum_m f(Y_m) in
terms of the beta kernels of :mod:`smclab.variance` -- see
:func:`conditional_variance_exact`.  The q-matrix route
(:func:`conditional_variance_oracle`) recomputes the same variance directly
from the conditional law and serves as an independent cross-check.

Every scheme samples through :func:`resample`: stratified (the paper's
scheme), systematic, multinomial and residual draw their query points and
map them to ancestors with the one right-closed search :func:`ancestors`,
which also serves the engine's row-wise selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from ._numerics import SNAP_TOL, kahan_cumsum
from .errors import InvalidArgument, InvalidModel
from .variance import beta0, beta1

SCHEMES = ("stratified", "systematic", "multinomial", "residual")


@dataclass(frozen=True)
class WeightProfile:
    """Normalized weights plus exact cumulative bookkeeping.

    w:   (M,) normalized weights, sum(w) = M
    cum: (M,) running sums S_i computed with compensated summation;
         cum[-1] is pinned to M exactly so the last stratum always finds
         an ancestor.
    u:   (M+1,) fractional parts {S_i} with u[0] = 0 and u[M] = 0;
         values within SNAP_TOL of an integer are snapped to 0.
    mu:  (M+1,) integer offsets floor(S_i) + 1 with mu[0] = 1, mu[M] = M+1.

    Indexing follows the 1-based convention of the running sums: u[i] and
    mu[i] belong to S_i = cum[i-1].
    """

    w: np.ndarray
    cum: np.ndarray
    u: np.ndarray
    mu: np.ndarray

    @property
    def size(self) -> int:
        return len(self.w)


def weight_profile(g_values) -> WeightProfile:
    """Build the exact weight bookkeeping from positive potential values."""
    g = np.asarray(g_values, dtype=float)
    if g.ndim != 1 or len(g) < 1:
        raise InvalidArgument("potential values must be a non-empty 1-d array")
    if not np.all(g > 0.0) or not np.all(np.isfinite(g)):
        raise InvalidModel("potential values must be finite and strictly positive")
    m = len(g)
    with np.errstate(over="ignore", invalid="ignore"):
        w = m * g / g.sum()
    if not np.all(np.isfinite(w)):
        # some g_i > DBL_MAX / M: scale by the largest value first
        s = g / g.max()
        w = m * s / s.sum()
    cum = kahan_cumsum(w)
    cum[-1] = float(m)

    u = np.zeros(m + 1)
    mu = np.ones(m + 1, dtype=np.int64)
    fl = np.floor(cum)
    fr = cum - fl
    near_up = fr > 1.0 - SNAP_TOL
    near_down = fr < SNAP_TOL
    u[1:] = np.where(near_up | near_down, 0.0, fr)
    mu[1:] = np.where(near_up, fl + 2.0, fl + 1.0).astype(np.int64)
    u[m] = 0.0
    mu[m] = m + 1
    return WeightProfile(w=w, cum=cum, u=u, mu=mu)


def ancestors(cum, points) -> np.ndarray:
    """Ancestor of each query point, right-closed: S_{l-1} < p <= S_l.

    A 1-d ``cum`` is shared by every point.  A (rows, M) ``cum`` is searched
    row by row against (rows, K) ``points``.  Each row is its own search:
    shifting rows into disjoint ranges of one flat search would round a
    point just above a running sum onto it and pick the lower ancestor.
    """
    if cum.ndim == 1:
        return np.searchsorted(cum, points, side="left")
    return np.stack([np.searchsorted(c, p, side="left") for c, p in zip(cum, points)])


def resample(kind: str, profile: WeightProfile, rng: np.random.Generator,
             rows: Optional[int] = None) -> np.ndarray:
    """Ancestor indices (0-based) of one resampling scheme on a profile.

    stratified:  one uniform per stratum; the ancestor of stratum m solves
                 S_{l-1} < m - U_m <= S_l, so ancestors are non-decreasing.
    systematic:  a single shared uniform across all strata m - U.
    multinomial: M i.i.d. categorical draws with probabilities w_i / M.
    residual:    floor(w_i) deterministic copies of particle i, then the
                 remaining slots drawn i.i.d. from the fractional parts
                 {w_i} normalized (none when there is no remainder).

    Returns shape (M,), or (rows, M) when ``rows`` is given; row r consumes
    the r-th block of draws, so ``rows=n`` equals n successive single calls.
    """
    m = profile.size
    lead = () if rows is None else (rows,)
    strata = np.arange(1, m + 1, dtype=float)
    if kind == "stratified":
        return ancestors(profile.cum, strata - rng.random(lead + (m,)))
    if kind == "systematic":
        return ancestors(profile.cum, strata - rng.random(lead + (1,)))
    if kind == "multinomial":
        return ancestors(profile.cum, m * rng.random(lead + (m,)))
    if kind == "residual":
        copies = np.floor(profile.w).astype(np.int64)
        n_res = m - int(copies.sum())
        rcum = np.cumsum(profile.w - copies)
        rcum[-1] = float(n_res)
        extra = ancestors(rcum, n_res * rng.random(lead + (n_res,)))
        det = np.repeat(np.arange(m), copies)
        return np.concatenate([np.broadcast_to(det, lead + det.shape), extra], axis=-1)
    raise InvalidArgument(f"unknown resampling kind {kind!r} (expected one of {SCHEMES})")


# ---------------------------------------------------------------------------
# exact conditional law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionCoefficients:
    """Sparse (strata x particles) matrix of the conditional selection law.

    Row m gives the distribution of the stratum-m ancestor: entry (m, i) is
    P(Y_m = X_i | positions).  Rows sum to 1; column i sums to w_i; each row
    has at most ceil(1 + max(w)) non-zeros.
    """

    matrix: sparse.csr_matrix

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def max_row_nnz(self) -> int:
        return int(np.diff(self.matrix.indptr).max())


def selection_coefficients(profile: WeightProfile) -> SelectionCoefficients:
    """Exact conditional selection probabilities q_{m,i}.

    For each particle i (1-based) the non-zero strata are mu_{i-1}..mu_i:

      q = 1              for mu_{i-1} < m < mu_i
      q = 1 - u_{i-1}    for m = mu_{i-1}  (when mu_{i-1} < mu_i)
      q = u_i            for m = mu_i      (when mu_{i-1} < mu_i)
      q = w_i            for m = mu_{i-1} = mu_i

    Strata indices above M carry no mass and are dropped: for i = M the top
    stratum has u_M = 0, and when S_{M-1} snaps to M the last particle's
    single entry has w_M < SNAP_TOL.
    """
    m = profile.size
    u, mu, w = profile.u, profile.mu, profile.w
    # particle i owns the strata mu_{i-1}..mu_i, one block per particle
    count = mu[1:] - mu[:-1] + 1
    first = np.cumsum(count) - count
    cols = np.repeat(np.arange(m), count)
    rows = np.repeat(mu[:-1] - first, count) + np.arange(cols.size)
    vals = np.ones(cols.size)
    vals[first] = 1.0 - u[:-1]
    vals[first + count - 1] = u[1:]
    single = count == 1
    vals[first[single]] = w[single]
    keep = rows <= m
    rows, cols, vals = rows[keep] - 1, cols[keep], vals[keep]
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))
    return SelectionCoefficients(matrix=mat)


def conditional_mean(profile: WeightProfile, f_values) -> float:
    """Conditional expectation of M^{-1} sum_m f(Y_m): the weighted mean
    sum_i w_i f_i / M.  Unbiasedness of every resampling scheme here."""
    f = np.asarray(f_values, dtype=float)
    return float(np.dot(profile.w, f) / profile.size)


def live_windows(cum, k_max: int):
    """Yield (k, mid) for k = 1..k_max while some window of size k is live.

    ``cum`` holds running sums S_i of weights along its last axis; ``mid`` is
    the middle mass w_{i+1} + ... + w_{i+k-1} = S_{i+k-1} - S_i of every
    window start i.  The beta kernels vanish once the middle mass reaches 1.
    For a fixed start the middle mass is non-decreasing in k, also in
    floating point, so once no window of size k is live (mid < 1), no larger
    window is either, and the walk returns.
    """
    n = cum.shape[-1]
    for k in range(1, k_max + 1):
        mid = cum[..., k - 1:n - 1] - cum[..., :n - k]
        if not (mid < 1.0).any():
            return
        yield k, mid


def conditional_variance_exact(profile: WeightProfile, f_values) -> float:
    """Conditional variance of M^{-1/2} sum_m f(Y_m) for stratified selection.

    Exact closed form in the weight bookkeeping:

        (1/M) sum_i f_i^2 beta0(u_{i-1}, w_i)
      - (1/M) sum_{k>=1} sum_i f_i f_{i+k}
                 beta1(u_{i-1}, w_i, w_{i+1}+...+w_{i+k-1}, w_{i+k})

    The k-sum walks the windows of :func:`live_windows`, which stops once
    every middle mass reaches 1, where beta1 vanishes; this bounds k by
    ceil(max weight ratio) and by M - 1.
    """
    f = np.asarray(f_values, dtype=float)
    m = profile.size
    if len(f) != m:
        raise InvalidArgument("f_values length must match the profile size")
    w, cum, u = profile.w, profile.cum, profile.u
    total = float(np.sum(f**2 * beta0(u[:m], w)))
    for k, mid in live_windows(cum, m - 1):
        b1 = beta1(u[0:m - k], w[0:m - k], mid, w[k:])
        total -= float(np.sum(f[0:m - k] * f[k:] * b1))
    return total / m


def conditional_variance_oracle(coeffs: SelectionCoefficients, f_values) -> float:
    """Same conditional variance computed straight from the q-matrix:
    (1/M) sum_m [ E(f^2(Y_m)|.) - E(f(Y_m)|.)^2 ]."""
    f = np.asarray(f_values, dtype=float)
    m1 = coeffs.matrix @ f
    m2 = coeffs.matrix @ (f**2)
    return float(np.mean(m2 - m1**2))


# ---------------------------------------------------------------------------
# exact conditional variances of the baseline schemes (comparison oracles)
# ---------------------------------------------------------------------------

def multinomial_conditional_variance(profile: WeightProfile, f_values) -> float:
    """M i.i.d. categorical draws: the variance of one draw."""
    f = np.asarray(f_values, dtype=float)
    p = profile.w / profile.size
    mean = float(np.dot(p, f))
    return float(np.dot(p, f**2) - mean**2)


def residual_conditional_variance(profile: WeightProfile, f_values) -> float:
    """Deterministic copies carry no noise; the remainder is multinomial
    over the fractional parts."""
    f = np.asarray(f_values, dtype=float)
    m = profile.size
    resid = profile.w - np.floor(profile.w)
    n_res = m - int(np.floor(profile.w).sum())
    if n_res == 0:
        return 0.0
    p = resid / resid.sum()
    mean = float(np.dot(p, f))
    var_one = float(np.dot(p, f**2) - mean**2)
    return n_res * var_one / m


def systematic_conditional_variance(profile: WeightProfile, f_values) -> float:
    """Exact integral over the single shared uniform.

    The map U -> ancestor vector is piecewise constant with breakpoints at
    1 - u_i, so the conditional variance is a finite sum of interval
    contributions.
    """
    f = np.asarray(f_values, dtype=float)
    m = profile.size
    breaks = np.unique(1.0 - profile.u[(profile.u > 0.0)])
    edges = np.concatenate([[0.0], breaks[(breaks > 0.0) & (breaks < 1.0)], [1.0]])
    strata = np.arange(1, m + 1, dtype=float)
    mean = 0.0
    second = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        anc = ancestors(profile.cum, strata - mid)
        s = float(f[anc].sum()) / np.sqrt(m)
        mean += s * (b - a)
        second += s * s * (b - a)
    return second - mean**2
