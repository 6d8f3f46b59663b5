import csv
import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from smclab import (
    InvalidArgument,
    beta0,
    beta1,
    build_model,
    correlation_window,
    mean_estimate,
    section7_constants,
    weight_profile,
)
from smclab._engine import window_kernel_terms
from smclab.experiments import CSV_COLUMNS, ReportRow
from smclab.model import gauss_legendre
from smclab.resampling import ancestors
from smclab.variance import _reference_g_mean

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces on the next run without stored state.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def model():
    return build_model("section7")


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def random_profile(rng, m_lo=4, m_hi=50, g_lo=1.0, g_hi=np.e):
    m = int(rng.integers(m_lo, m_hi + 1))
    g = rng.uniform(g_lo, g_hi, m)
    return weight_profile(g)


def selection_coefficients_loop(profile):
    """Entry-by-entry construction of the q-matrix CSR: the reference for the
    vectorized ``smclab.selection_coefficients``, which must emit the same
    triplets in the same order and hence the same bytes."""
    from scipy import sparse

    m = profile.size
    u, mu, w = profile.u, profile.mu, profile.w
    rows, cols, vals = [], [], []
    for i in range(1, m + 1):
        lo, hi = int(mu[i - 1]), int(mu[i])
        if lo == hi:
            entries = [(lo, w[i - 1])]
        else:
            entries = ([(lo, 1.0 - u[i - 1])] + [(mm, 1.0) for mm in range(lo + 1, hi)]
                       + [(hi, u[i])])
        for stratum, value in entries:
            if stratum <= m:
                rows.append(stratum - 1)
                cols.append(i - 1)
                vals.append(value)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(m, m))


def assert_same_csr(a, b):
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def conditional_mean(profile, f_values):
    """Conditional expectation of M^{-1} sum_m f(Y_m): the weighted mean
    sum_i w_i f_i / M, which every resampling scheme here is unbiased for."""
    return float(np.dot(profile.w, np.asarray(f_values, dtype=float)) / profile.size)


def max_row_nnz(coeffs):
    """Most non-zeros in one row (one stratum) of the q-matrix."""
    return int(np.diff(coeffs.matrix.indptr).max())


def ancestors_merge_walk(cum, points):
    """O(M) merge walk over sorted query points: an oracle for the binary
    search of ``smclab.resampling.ancestors``, resolving ties identically
    (right-closed, S_{l-1} < p <= S_l)."""
    anc = np.empty(len(points), dtype=np.int64)
    j = 0
    for i, p in enumerate(points):
        while cum[j] < p:
            j += 1
        anc[i] = j
    return anc


def rowwise_ancestors(cum, points):
    """Row r of (rows, K) ``points`` searched in row r of (rows, M) running
    sums ``cum`` with ``np.searchsorted(side="left")``, one row at a time:
    the oracle of the engine's ``batched_select``, which counts instead."""
    return np.stack([np.searchsorted(c, p, side="left") for c, p in zip(cum, points)])


def systematic_variance_by_intervals(profile, f_values):
    """Systematic conditional variance one interval of the shared uniform at
    a time: an independent route for
    ``smclab.systematic_conditional_variance``.

    The breaks 1 - u_i cut [0, 1] into intervals; each interval's ancestors
    come from ``ancestors`` at its midpoint, and the centred variance of the
    resulting step function is summed in exact rationals, so the one
    rounding is the final conversion to float.
    """
    m = profile.size
    f = [Fraction(v) for v in np.asarray(f_values, dtype=float).tolist()]
    # every float is an integer over a power of two: over the largest
    # denominator each interval's sum of f is an exact integer sum
    den = max(q.denominator for q in f)
    f_int = [int(q * den) for q in f]
    breaks = np.unique(1.0 - profile.u[profile.u > 0.0])
    edges = np.concatenate([[0.0], breaks[(breaks > 0.0) & (breaks < 1.0)], [1.0]])
    strata = np.arange(1, m + 1, dtype=float)
    widths, sums = [], []
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        anc = ancestors(profile.cum, strata - 0.5 * (a + b))
        widths.append(Fraction(b) - Fraction(a))
        sums.append(Fraction(sum(f_int[i] for i in anc.tolist()), den))
    mean = sum(w * s for w, s in zip(widths, sums))
    return float(sum(w * (s - mean) ** 2 for w, s in zip(widths, sums)) / m)


# ---------------------------------------------------------------------------
# window kernels: the closed form on one window, and an independent numeric
# integration of the kernels (acceptance criterion 2's second route)
# ---------------------------------------------------------------------------

def beta_window(k, u, y):
    """Window kernel over k+1 consecutive weights y = (y_0, ..., y_k).

    k = 0 gives beta0(u, y_0); k >= 1 gives -beta1(u, y_0, y_1+...+y_{k-1},
    y_k) with the empty middle sum equal to 0 for k = 1.
    """
    y = np.asarray(y, dtype=float)
    if k < 0:
        raise InvalidArgument(f"window size k must be >= 0, got {k}")
    if y.shape[-1] != k + 1:
        raise InvalidArgument(f"window kernel needs k+1 = {k + 1} weights, got {y.shape[-1]}")
    if k == 0:
        return beta0(u, y[..., 0])
    mid = y[..., 1:k].sum(axis=-1)
    return -beta1(u, y[..., 0], mid, y[..., k])


def window_integral_closed(k, f, y):
    """f_0 f_k int_0^1 beta_window(k, u, y) du from the engine's one
    closed-form evaluator, ``window_kernel_terms``, on a single window; 0.0
    for a k past the last live window, where the evaluator stops."""
    f = np.asarray(f, dtype=float)[None, :]
    y = np.asarray(y, dtype=float)[None, :]
    terms = list(window_kernel_terms(f, y))
    return float(terms[k][0, 0]) if k < len(terms) else 0.0


def cube_gap_unmasked(t):
    """(1-t)^3 1{t < 1} as a plain product, ``pow`` on every entry: the
    formula the engine's masked cube gap must reproduce bit for bit."""
    return (1.0 - t) ** 3 * (t < 1.0)


def window_kernel_terms_dense(fv, gt, k_max):
    """Every window term k = 0..k_max with the kernel evaluated on every
    entry of every term, unmasked and without an early stop: the reference
    that ``window_kernel_terms`` must equal on the terms it yields, and that
    is 0 on every term past them."""
    n = gt.shape[1]
    cum = np.cumsum(gt, axis=1)
    terms = [fv**2 * ((1.0 - cube_gap_unmasked(gt)) / 3.0)]
    for k in range(1, k_max + 1):
        y0, yk = gt[:, :n - k], gt[:, k:]
        mid = cum[:, k - 1:n - 1] - cum[:, :n - k]
        pair = -(cube_gap_unmasked(mid) - cube_gap_unmasked(mid + yk)
                 - cube_gap_unmasked(y0 + mid) + cube_gap_unmasked(y0 + mid + yk)) / 3.0
        terms.append(fv[:, :n - k] * fv[:, k:] * pair)
    return terms


def window_integral_breaks(k, y):
    """0, 1 and every u in (0, 1) where a fractional part or an indicator
    inside beta_window(k, u, y) switches, sorted."""
    y0 = y[0]
    mid = float(y[1:k].sum()) if k >= 1 else 0.0
    yk = y[k] if k >= 1 else 0.0

    cuts = {0.0, 1.0}

    def add(v):
        if 0.0 < v < 1.0:
            cuts.add(float(v))

    # frac(u + y0) wraps at u = 1 - {y0}
    add(1.0 - (y0 - math.floor(y0)))
    if k == 0:
        add(1.0 - y0)
    else:
        # indicators on v = frac(u + y0): v = 1 - mid and v = 1 - mid - yk
        for target in (1.0 - mid, 1.0 - mid - yk):
            if 0.0 <= target < 1.0:
                add((target - y0) - math.floor(target - y0))
        # indicators on u directly
        add(1.0 - y0 - mid)
        add(1.0 - y0 - mid - yk)
    return np.array(sorted(cuts))


def beta_window_u_integral_numeric(k, y):
    """Numeric u-integral of the window kernel, independent of the closed
    form: split [0, 1] at the break points, then 16-point Gauss-Legendre
    per piece (the pieces are quadratics, so this is exact to round-off)."""
    y = np.asarray(y, dtype=float)
    if y.shape != (k + 1,):
        raise InvalidArgument(f"numeric window integral needs a flat window of {k + 1} weights")
    edges = window_integral_breaks(k, y)
    nodes, weights = gauss_legendre(16)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        u = a + (b - a) * nodes
        total += (b - a) * float(np.dot(weights, beta_window(k, u, y)))
    return total


def sigma2_beta_mc(ref, n_samples, rng):
    """Step-0 selection-noise variance with every window kernel evaluated at
    one fresh uniform per tuple instead of integrated over it: the
    independent route that ``smclab.sigma2_sq`` is checked against."""
    model = build_model(ref)
    pot = model.potential(0)
    k_max = correlation_window(0, pot.ratio())
    x = model.sample_positions((n_samples, k_max + 1), rng)
    gt = pot(x) / _reference_g_mean(ref, 0)
    fv = np.asarray(model.f(x), dtype=float)
    mid_cum = np.cumsum(gt, axis=1)
    uu = rng.random(n_samples)
    per_k_samples = [fv[:, 0] ** 2 * beta0(uu, gt[:, 0])]
    for k in range(1, k_max + 1):
        mid = mid_cum[:, k - 1] - mid_cum[:, 0]
        per_k_samples.append(-fv[:, 0] * fv[:, k] * beta1(uu, gt[:, 0], mid, gt[:, k]))
    return mean_estimate(np.sum(per_k_samples, axis=0))


# ---------------------------------------------------------------------------
# built-in model: kernel action of the squared step-1 numerator function
# ---------------------------------------------------------------------------

def section7_pf1_sq(x):
    """Kernel action P(f_1^2) for the benchmark model, in closed form: the
    oracle of ``section7_constants(1)["mutation_variance"]``."""
    c = section7_constants(1)
    x = np.asarray(x, dtype=float)
    return (
        c["g_mean"] ** 2 * (np.exp(4.0 * (x + 1.0)) - np.exp(4.0 * x)) / 4.0
        + c["gf_mean"] ** 2 * (np.exp(2.0 * (x + 1.0)) - np.exp(2.0 * x)) / 2.0
        - 2.0 * c["g_mean"] * c["gf_mean"] * (np.exp(3.0 * (x + 1.0)) - np.exp(3.0 * x)) / 3.0
    )


# ---------------------------------------------------------------------------
# conjecture 2: the windowed statistic on one population, for general h, psi
# ---------------------------------------------------------------------------

def _window_views(values, count, width):
    """Sliding windows values[i:i+width] for i = 0..count-1, as columns."""
    return [values[j:j + count] for j in range(width)]


def conjecture2_lhs(x, prof, t, h, psi):
    """Windowed statistic of the population x with the *actual* weight
    bookkeeping of its profile:

    (1/M) sum_{m=1}^{M-t} h(X_m..X_{m+t}) psi(u_{m-1}, w_m, ..., w_{m+t})
    """
    m = len(x)
    count = m - t
    hv = np.asarray(h(*_window_views(x, count, t + 1)), dtype=float)
    psiv = np.asarray(psi(prof.u[:count], *_window_views(prof.w, count, t + 1)), dtype=float)
    return float((hv * psiv).sum() / m)


def conjecture2_rhs(x, gt, t, h, psi, u):
    """Same statistic with the weight arguments replaced by their limits:
    the one uniform ``u`` for every fractional part and the normalized
    potential values ``gt`` for the weights."""
    m = len(x)
    count = m - t
    hv = np.asarray(h(*_window_views(x, count, t + 1)), dtype=float)
    psiv = np.asarray(psi(np.full(count, u), *_window_views(gt, count, t + 1)), dtype=float)
    return float((hv * psiv).sum() / m)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def parse_report_csv(text):
    """Read a CSV report back into rows; the header must be CSV_COLUMNS."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert tuple(header) == CSV_COLUMNS, header
    return tuple(
        ReportRow(experiment=rec[0], quantity=rec[1], estimate=float(rec[2]),
                  ci_lo=float(rec[3]), ci_hi=float(rec[4]), n_samples=int(rec[5]),
                  particles=int(rec[6]), seed=int(rec[7]), wall_time_s=float(rec[8]))
        for rec in reader
    )
