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
map them to ancestors with the one right-closed search :func:`ancestors`.
On a frozen profile it counts the running sums below each point through a
guide table of the integer parts, with the tie rule of a left binary search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import InvalidArgument, InvalidModel
from .variance import beta0, beta1, snapped_frac

SCHEMES = ("stratified", "systematic", "multinomial", "residual")


@dataclass(frozen=True)
class WeightProfile:
    """Normalized weights plus exact cumulative bookkeeping.

    w:   (M,) normalized weights, sum(w) = M
    cum: (M,) running sums S_i, compensated: within a spacing of the exact
         sums, clamped to M so non-decreasing; cum[-1] is pinned to M exactly
         so the last stratum always finds an ancestor.
    u:   (M+1,) fractional parts {S_i} with u[0] = 0 and u[M] = 0;
         values within SNAP_TOL of an integer are snapped to 0.
    mu:  (M+1,) integer offsets S_i - u_i + 1, which is floor(S_i) + 1
         unless S_i snapped up to the next integer; mu[0] = 1, mu[M] = M+1.

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


def kahan_cumsum(values):
    """Compensated running sums of a 1-d array (Ogita, Rump & Oishi, 2005),
    named after the Kahan loop they replaced: the span tracer patches
    ``resampling.kahan_cumsum``, where :func:`weight_profile` looks it up, and
    its ``numerics.kahan_cumsum`` metric reads the name.  ``np.cumsum`` adds left to right, so TwoSum gives each step's
    error ``e`` exactly; ``s + cumsum(e)`` is as accurate as sums in twice the
    working precision, rounded once."""
    v = np.asarray(values, dtype=float)
    s = np.cumsum(v)
    prev = np.concatenate([[0.0], s[:-1]])
    b = s - prev
    e = (prev - (s - b)) + (v - b)
    return s + np.cumsum(e)


def weight_profile(g_values) -> WeightProfile:
    """Build the exact weight bookkeeping from positive potential values.

    The running sums are compensated and pinned to S_M = M; ``u`` is their
    snapped fractional parts and ``mu`` follows from ``u``, so the two
    always agree on which sums sit on an integer.
    """
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
    # rounding can leave the sums before a tail of tiny weights an ulp above
    # M; clamped, the pin below keeps cum non-decreasing
    np.minimum(cum, m, out=cum)
    cum[-1] = float(m)

    u = np.zeros(m + 1)
    u[1:] = snapped_frac(cum)
    # S_i - u_i is floor(S_i), or lies within SNAP_TOL of an integer where
    # u_i was snapped to 0: rint gives the integer the snap implies
    mu = np.ones(m + 1, dtype=np.int64)
    mu[1:] = np.rint(cum - u[1:]).astype(np.int64) + 1
    return WeightProfile(w=w, cum=cum, u=u, mu=mu)


def ancestors(cum, points) -> np.ndarray:
    """Ancestor of each query point, right-closed: S_{l-1} < p <= S_l.

    The ancestor of p is the number of running sums below p, which is
    ``np.searchsorted(cum, p, side="left")`` exactly, ties included.

    The 1-d ``cum`` (non-decreasing) is shared by every point, of any
    shape, which lies in [0, cum[-1]], so it is searched through a guide
    table (Chen & Asau, 1974): ``lo[b]`` counts the sums below the integer
    b, a point p starts at ``lo[floor(p)]``, and a branchless binary search
    adds the sums in [floor(p), p).  ``width``, the most sums one unit
    bucket holds, sets its ``width.bit_length()`` passes; the ``+inf``
    padding past the last sum keeps every probe in range and below no point.
    """
    if np.ndim(cum) != 1:
        raise InvalidArgument(f"running sums must be a 1-d array, got shape {np.shape(cum)}")
    lo = np.searchsorted(cum, np.arange(math.ceil(cum[-1]) + 2), side="left")
    width = int(np.diff(lo).max())
    pad = np.concatenate([cum, np.full(width + 1, np.inf)])
    anc = np.take(lo, points.astype(np.intp), mode="clip")
    step = 1 << width.bit_length()
    while step > 1:
        step >>= 1
        anc += step * (np.take(pad, anc + (step - 1)) < points)
    return anc


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


def _f_array(size: int, f_values) -> np.ndarray:
    """f_values as a float array of one value per particle, centred.

    A constant added to f leaves every conditional variance unchanged, but
    a large one cancels digits in the sums of f^2 and f_i f_j; so every
    variance of a profile sees f minus its plain mean.
    """
    f = np.asarray(f_values, dtype=float)
    if f.shape != (size,):
        raise InvalidArgument(
            f"f_values must hold one value per particle: {size}, got shape {f.shape}")
    return f - f.mean()


def live_windows(cum):
    """Yield (k, mid) for k = 1, 2, ... while some window of size k is live.

    ``cum`` holds running sums S_i of weights along its last axis; ``mid`` is
    the middle mass w_{i+1} + ... + w_{i+k-1} = S_{i+k-1} - S_i of every
    window start i.  The beta kernels vanish once the middle mass reaches 1.
    For a fixed start the middle mass is non-decreasing in k, also in
    floating point, so once no window of size k is live (mid < 1), no larger
    window is either, and the walk returns, at the latest after k = n - 1.
    It needs no cap: with potential bounds of ratio upper / lower, every
    normalized weight is at least 1 / ratio, so no k above ceil(ratio) is
    live (up to the rounding of the sums).
    """
    n = cum.shape[-1]
    for k in range(1, n):
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
    m = profile.size
    f = _f_array(m, f_values)
    w, cum, u = profile.w, profile.cum, profile.u
    total = float(np.sum(f**2 * beta0(u[:m], w)))
    for k, mid in live_windows(cum):
        b1 = beta1(u[0:m - k], w[0:m - k], mid, w[k:])
        total -= float(np.sum(f[0:m - k] * f[k:] * b1))
    return total / m


def conditional_variance_oracle(coeffs: SelectionCoefficients, f_values) -> float:
    """Same conditional variance computed straight from the q-matrix:
    (1/M) sum_m [ E(f^2(Y_m)|.) - E(f(Y_m)|.)^2 ]."""
    f = _f_array(coeffs.size, f_values)
    m1 = coeffs.matrix @ f
    m2 = coeffs.matrix @ (f**2)
    return float(np.mean(m2 - m1**2))


# ---------------------------------------------------------------------------
# exact conditional variances of the baseline schemes (comparison oracles)
# ---------------------------------------------------------------------------

def multinomial_conditional_variance(profile: WeightProfile, f_values) -> float:
    """M i.i.d. categorical draws: the variance of one draw."""
    f = _f_array(profile.size, f_values)
    p = profile.w / profile.size
    mean = float(np.dot(p, f))
    return float(np.dot(p, f**2) - mean**2)


def residual_conditional_variance(profile: WeightProfile, f_values) -> float:
    """Deterministic copies carry no noise; the remainder is multinomial
    over the fractional parts."""
    m = profile.size
    f = _f_array(m, f_values)
    resid = profile.w - np.floor(profile.w)
    n_res = m - int(np.floor(profile.w).sum())
    if n_res == 0:
        return 0.0
    p = resid / resid.sum()
    mean = float(np.dot(p, f))
    var_one = float(np.dot(p, f**2) - mean**2)
    return n_res * var_one / m


def systematic_conditional_variance(profile: WeightProfile, f_values) -> float:
    """Exact integral over the single shared uniform, in O(M log M).

    S(U) = M^{-1/2} sum_m f(Y_m) is piecewise constant in U.  Its breaks
    are U = 1 - u_l for l = 1..M-1 with u_l > 0: there the point of stratum
    mu_l crosses S_l, and that stratum's ancestor moves from l+1 down to l,
    so S jumps by (f_l - f_{l+1}) / sqrt(M).  The crossings within one
    stratum come in decreasing order of l, so each is a step by one index.
    Sorting the breaks and summing the jumps gives S up to a constant, which
    the centred variance does not see: no starting ancestor sum and no
    search.  Tied breaks leave zero-width cells, which add exactly 0, and a
    fractional part snapped to 0 gives no break.
    """
    m = profile.size
    f = _f_array(m, f_values)
    frac = profile.u[1:m]
    live = frac > 0.0
    breaks = 1.0 - frac[live]
    order = np.argsort(breaks, kind="stable")
    width = np.diff(np.concatenate([[0.0], breaks[order], [1.0]]))
    t = np.concatenate([[0.0], np.cumsum((f[:-1] - f[1:])[live][order])])
    t -= np.dot(width, t)
    return float(np.dot(width, t * t)) / m
