"""Variance kernels and asymptotic-variance assembly for stratified selection.

The conditional variance of a stratified selection step is an exact
expression in two kernels beta0 and beta1 of the fractional parts and
weights (see :mod:`smclab.resampling`).  As the population grows, the
fractional parts become uniform and the weights decouple, so the limit
variance of M^{-1/2} sum_m f(Y_m) splits into

    sigma1_sq(f):  fluctuation of the weighted mean (common to every
                   resampling scheme), and
    sigma2_sq(f):  the stratified selection noise, a finite sum over window
                   sizes k of expectations of the beta kernels evaluated at
                   an independent uniform and i.i.d. draws.

Integrating the uniform out of the beta kernels has piecewise-polynomial
closed forms (:func:`beta0_u_integral`, :func:`beta_window_u_integral`);
the numeric route (:func:`beta_window_u_integral_numeric`) integrates the
kernels directly and is kept strictly independent as a cross-check.

For later filter steps the same window kernels, evaluated along sliding
windows of the mutated population, feed a recursive variance formula
(:func:`recursive_variance_step`); the stratum-overlap functions
(:func:`strata_overlap`) describe how consecutive strata land in the same
cumulative-weight intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _scipy_integrate

from ._numerics import gauss_legendre, snapped_frac
from .errors import InvalidArgument
from .estimators import EstimateWithCI, mean_estimate
from .model import ModelConfig, section7_constants, weighted_reference_mean


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def beta0(x, y1):
    """Single-stratum variance kernel.

    beta0(x, y) = {x+y}(1-{x+y}) + x(1-x) - 2x(1-x-y) 1{y < 1-x}

    where {.} is the fractional part.  Continuous in both arguments.
    """
    x = np.asarray(x, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    v = snapped_frac(x + y1)
    r = v * (1.0 - v) + x * (1.0 - x) - 2.0 * x * (1.0 - x - y1) * (y1 < 1.0 - x)
    return r if r.shape else float(r)


def beta1(x, y1, y2, y3):
    """Pair covariance kernel for strata separated by a middle mass y2.

    beta1(x, y1, y2, y3) = 2 [ {x+y1}(1-{x+y1}-y2)       1{y2 < 1-{x+y1}}
                             - {x+y1}(1-{x+y1}-y2-y3)    1{y2+y3 < 1-{x+y1}}
                             - x(1-x-y1-y2)              1{y1+y2 < 1-x}
                             + x(1-x-y1-y2-y3)           1{y1+y2+y3 < 1-x} ]

    Vanishes identically once y2 >= 1 (for x in [0,1), y1, y3 >= 0), which
    is what caps the interaction range of stratified selection.
    """
    x = np.asarray(x, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    y3 = np.asarray(y3, dtype=float)
    v = snapped_frac(x + y1)
    r = 2.0 * (
        v * (1.0 - v - y2) * (y2 < 1.0 - v)
        - v * (1.0 - v - y2 - y3) * (y2 + y3 < 1.0 - v)
        - x * (1.0 - x - y1 - y2) * (y1 + y2 < 1.0 - x)
        + x * (1.0 - x - y1 - y2 - y3) * (y1 + y2 + y3 < 1.0 - x)
    )
    return r if r.shape else float(r)


def beta_window(k: int, u, y):
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


# ---------------------------------------------------------------------------
# closed-form u-integrals of the kernels
# ---------------------------------------------------------------------------

def beta0_u_integral(y):
    """int_0^1 beta0(u, y) du = (1/3) (1 - (1-y)^3 1{y < 1})."""
    y = np.asarray(y, dtype=float)
    r = (1.0 - (1.0 - y) ** 3 * (y < 1.0)) / 3.0
    return r if r.shape else float(r)


def _cube_gap(t):
    # (1-t)^3 1{t < 1}
    return (1.0 - t) ** 3 * (t < 1.0)


def beta_pair_u_integral(y0, mid, yk):
    """int_0^1 -beta1(u, y0, mid, yk) du in closed form.

    Equals -(1/3) [ (1-mid)^3 1{mid<1} - (1-mid-yk)^3 1{mid+yk<1}
                    - (1-y0-mid)^3 1{y0+mid<1} + (1-y0-mid-yk)^3 1{tot<1} ].
    """
    y0 = np.asarray(y0, dtype=float)
    mid = np.asarray(mid, dtype=float)
    yk = np.asarray(yk, dtype=float)
    r = -(_cube_gap(mid) - _cube_gap(mid + yk) - _cube_gap(y0 + mid) + _cube_gap(y0 + mid + yk)) / 3.0
    return r if r.shape else float(r)


def beta_window_u_integral(k: int, y):
    """int_0^1 beta_window(k, u, y) du, closed form."""
    y = np.asarray(y, dtype=float)
    if y.shape[-1] != k + 1:
        raise InvalidArgument(f"window integral needs k+1 = {k + 1} weights, got {y.shape[-1]}")
    if k == 0:
        return beta0_u_integral(y[..., 0])
    return beta_pair_u_integral(y[..., 0], y[..., 1:k].sum(axis=-1), y[..., k])


def phi_k_closed(k: int, f_values, g_values):
    """f_0 f_k int_0^1 beta_window(k, u, g) du with both sequences of
    length k+1; the integrated pair kernel that replaces the uniform draw."""
    f = np.asarray(f_values, dtype=float)
    g = np.asarray(g_values, dtype=float)
    if f.shape[-1] != k + 1 or g.shape[-1] != k + 1:
        raise InvalidArgument(f"phi_k needs k+1 = {k + 1} values for f and g")
    return f[..., 0] * f[..., -1] * beta_window_u_integral(k, g)


def beta_window_u_integral_numeric(k: int, y, method: str = "piecewise"):
    """Numeric u-integral of the window kernel; independent of the closed form.

    ``piecewise`` splits [0, 1] at every point where a fractional part or an
    indicator inside the kernel switches, then applies 16-point
    Gauss-Legendre per piece (the pieces are quadratics, so this is exact to
    round-off).  ``quad`` uses adaptive Gauss-Kronrod with the same points
    as hints.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (k + 1,):
        raise InvalidArgument(f"numeric window integral needs a flat window of {k + 1} weights")
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
    edges = np.array(sorted(cuts))

    def integrand(u):
        return beta_window(k, u, y)

    if method == "quad":
        val, _ = _scipy_integrate.quad(integrand, 0.0, 1.0,
                                       points=list(edges[1:-1]), limit=200)
        return float(val)
    if method != "piecewise":
        raise InvalidArgument(f"unknown method {method!r}")
    nodes, weights = gauss_legendre(16)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b <= a:
            continue
        u = a + (b - a) * nodes
        total += (b - a) * float(np.dot(weights, integrand(u)))
    return total


# ---------------------------------------------------------------------------
# window sizes and stratum overlaps
# ---------------------------------------------------------------------------

def correlation_window(k: int, ratio: float) -> int:
    """ceil(ratio * (1 + k)): how far stratified-selection correlations
    reach when the weight ratio (upper/lower potential bound) is ``ratio``."""
    if ratio < 1.0:
        raise InvalidArgument(f"potential bound ratio must be >= 1, got {ratio}")
    if k < 0:
        raise InvalidArgument(f"k must be >= 0, got {k}")
    return int(math.ceil(ratio * (1 + k) - 1e-12))


def strata_overlap(s_indices, u: float, y, i_max: int) -> float:
    """Product of stratum/interval overlap lengths, summed over strata.

    With s_0 = 0 <= s_1 <= ... <= s_k (``s_indices`` holds s_1..s_k) and
    cumulative sums of y = (y_0, ..., y_{s_k}), computes

        sum_{i=1}^{i_max} prod_{q=0}^{k}
            | (i+q-1, i+q]  intersect  (u + sum_{j<s_q} y_j, u + sum_{j<=s_q} y_j] |

    i.e. the joint mass with which strata i, i+1, ..., i+k all land inside
    the prescribed cumulative-weight intervals.
    """
    s = [0] + [int(v) for v in s_indices]
    if any(b < a for a, b in zip(s, s[1:])):
        raise InvalidArgument("s_indices must be non-decreasing")
    y = np.asarray(y, dtype=float)
    if len(y) != s[-1] + 1:
        raise InvalidArgument(f"strata_overlap needs s_k + 1 = {s[-1] + 1} weights, got {len(y)}")
    cs = np.concatenate([[0.0], np.cumsum(y)])
    total = 0.0
    for i in range(1, i_max + 1):
        prod = 1.0
        for q, sq in enumerate(s):
            lo = u + cs[sq]
            hi = u + cs[sq + 1]
            seg = min(hi, i + q) - max(lo, i + q - 1)
            if seg <= 0.0:
                prod = 0.0
                break
            prod *= seg
        total += prod
    return total


# ---------------------------------------------------------------------------
# asymptotic variance components
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic variance split: deterministic first component, Monte Carlo
    second component with its per-window-size breakdown."""

    sigma1_sq: float
    sigma2_sq: EstimateWithCI
    per_k: tuple[EstimateWithCI, ...]

    @property
    def total(self) -> float:
        return self.sigma1_sq + self.sigma2_sq.point


def _reference_g_mean(model: ModelConfig, step: int) -> float:
    """Weighted reference mean of the step's potential (the normalizer of
    the limiting weights); closed form for the built-in model."""
    if model.name == "section7" and step in (0, 1, 2):
        return section7_constants(step)["g_mean"]
    return weighted_reference_mean(model, step, model.potential(step).fn)


def _step1_recursion_terms() -> tuple[float, float]:
    """Scale m_g^4 and mutation correction E[g_0 (P f^2 - (P f)^2)] /
    (m_g^4 m_{g,0}) of the built-in model's step-1 variance recursion."""
    c1 = section7_constants(1)
    c0 = section7_constants(0)
    scale = c1["g_mean"] ** 4
    return scale, c1["mutation_variance"] / (scale * c0["g_mean"])


def _initial_quad(model: ModelConfig, h: Callable, points: int = 256) -> float:
    if model.initial_density is None or model.dim != 1:
        raise NotImplementedError("quadrature needs a d = 1 model with an initial density")
    nodes, weights = gauss_legendre(points)
    lo, hi = model.initial_support
    x = lo + (hi - lo) * nodes
    return float((hi - lo) * np.dot(weights, model.initial_density(x) * np.asarray(h(x), dtype=float)))


def sigma1_sq(model: ModelConfig, f: Optional[Callable] = None) -> float:
    """Weighted-mean fluctuation variance at step 0.

    With gt = g_0 / E g_0 normalized under the initial law eta:

        sigma1_sq = E[ ( gt(X) (f(X) - E[f gt]) )^2 ]

    Closed form for the built-in model, Gauss-Legendre quadrature for any
    other d = 1 model with a density.
    """
    f = model.f if f is None else f
    if model.name == "section7" and f is model.f:
        return section7_constants(0)["sigma1_sq"]
    g = model.potential(0)
    g_mean = _initial_quad(model, g)
    fg_mean = _initial_quad(model, lambda x: np.asarray(f(x)) * g(x)) / g_mean
    return _initial_quad(model, lambda x: (g(x) / g_mean * (np.asarray(f(x)) - fg_mean)) ** 2)


def sigma2_sq(model: ModelConfig, method: str = "closed_form_mc",
              n_samples: int = 100_000, rng: Optional[np.random.Generator] = None,
              f: Optional[Callable] = None) -> VarianceReport:
    """Stratified selection-noise variance at step 0, by Monte Carlo.

    Draws i.i.d. tuples (X_1, ..., X_{K+1}) from the initial law, with
    K = ceil(upper/lower) for the step-0 potential, and averages

        sum_{k=0}^{K} f(X_1) f(X_{k+1}) B_k

    where B_k is either the closed-form u-integral of the window kernel
    (``closed_form_mc``; the uniform is integrated out exactly, which
    strictly reduces the sampler variance) or the kernel evaluated at a
    fresh uniform (``beta_mc``).  The normalized potential gt = g / E g
    enters the kernels.
    """
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    if method not in ("closed_form_mc", "beta_mc"):
        raise InvalidArgument(f"unknown sigma2 method {method!r}")
    f = model.f if f is None else f
    rng = np.random.default_rng(0) if rng is None else rng
    pot = model.potential(0)
    k_max = correlation_window(0, pot.ratio())

    x = model.sample_positions((n_samples, k_max + 1), rng)
    gt = pot(x) / _reference_g_mean(model, 0)
    fv = np.asarray(f(x), dtype=float)

    if method == "closed_form_mc":
        from ._engine import window_kernel_terms

        per_k_samples = [term[:, 0] for term in window_kernel_terms(fv, gt, k_max)]
    else:
        mid_cum = np.cumsum(gt, axis=1)
        uu = rng.random(n_samples)
        per_k_samples = [fv[:, 0] ** 2 * beta0(uu, gt[:, 0])]
        for k in range(1, k_max + 1):
            mid = mid_cum[:, k - 1] - mid_cum[:, 0]
            per_k_samples.append(-fv[:, 0] * fv[:, k] * beta1(uu, gt[:, 0], mid, gt[:, k]))

    per_k = tuple(mean_estimate(s) for s in per_k_samples)
    total_est = mean_estimate(np.sum(per_k_samples, axis=0))
    s1 = sigma1_sq(model, None if f is model.f else f)
    return VarianceReport(sigma1_sq=s1, sigma2_sq=total_est, per_k=per_k)


def recursive_variance_step(v_prev: float, model: ModelConfig, step: int,
                            mc_particles: int = 2000, mc_replicates: int = 2000,
                            seed: int = 0, workers: int = 1) -> float:
    """One step of the recursive limit-variance formula.

    ``v_prev`` must be the previous-step limit variance evaluated at the
    transformed test function P_n f_n, f_n = g_n (m_g f - m_gf) with m_g,
    m_gf the step-n weighted means of g_n and g_n f.  Then

        V_{n+1} = v_prev / m_g^4
                + E[g_{n-1} (P_n f_n^2 - (P_n f_n)^2)]_{n-1} / (m_g^4 m_{g,n-1})
                + E[ sliding-window mean of the aggregate window function ]

    where the last expectation is estimated by Monte Carlo over simulated
    particle systems of size ``mc_particles`` (the deterministic nested
    integral it represents grows super-exponentially in dimension and is
    out of reach beyond simulation).
    """
    if step < 1:
        raise InvalidArgument("recursive variance step needs step >= 1")
    from ._engine import WindowPhiSumTask, run_stream

    if model.name != "section7" or step != 1:
        raise NotImplementedError(
            "recursive variance step currently requires the built-in model at step 1"
        )
    m_g4, term2 = _step1_recursion_terms()
    task = WindowPhiSumTask(model_ref=model.spec, particles=mc_particles, step=step)
    (z,) = run_stream(task, mc_replicates, seed=seed, stream=90 + step, workers=workers)
    return v_prev / m_g4 + term2 + float(z.mean())
