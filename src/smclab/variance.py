"""Variance kernels and the deterministic parts of the limit variance.

The conditional variance of a stratified selection step is an exact
expression in two kernels beta0 and beta1 of the fractional parts and
weights (see :mod:`smclab.resampling`).  As the population grows, the
fractional parts become uniform and the weights decouple, so the limit
variance of M^{-1/2} sum_m f(Y_m) splits into

    sigma1_sq(f):  fluctuation of the weighted mean (common to every
                   resampling scheme), computed here in closed form or by
                   quadrature, and
    sigma2_sq(f):  the stratified selection noise, a finite sum over window
                   sizes k of expectations of the beta kernels evaluated at
                   an independent uniform and i.i.d. draws; a Monte Carlo
                   quantity, estimated in :mod:`smclab.experiments` on the
                   engine's streams.

Integrating the uniform out of the beta kernels has piecewise-polynomial
closed forms (:func:`beta0_u_integral` for one stratum,
:func:`beta_pair_u_integral` for a pair of strata k apart).  The engine's
``window_kernel_terms`` is the one evaluator that applies them along
windows; the tests check it against an independent numeric integration of
the kernels.  It walks the windows with ``resampling.live_windows``, as the
exact conditional variance does with beta1, so the limit and the exact
variance stop at the same test: no window's middle mass below 1.  That walk
takes no cap; :func:`correlation_window` is the one bound declared before
drawing (the step-0 tuple length, :func:`min_particles`).  The u-integrals
take one array path for 0-d and array arguments, so the bits agree.

The fractional parts {S_i} of running sums are taken here, by one rule,
:func:`snapped_frac`: a part within ``SNAP_TOL`` of an integer is 0.  The
kernels, the library's exact law (``resampling.weight_profile``) and the
engine's ``Conjecture2Task`` all call it, so one function decides what "on
an integer" means.

Everything here is deterministic.  The variance components take a model's
reference, not a built model; closed forms are chosen by the reference
``"section7"`` with its own f, never by a table's free-text name.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import InvalidArgument, InvalidModel
from .model import ModelConfig, build_model, section7_constants, weighted_reference_mean


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


# ---------------------------------------------------------------------------
# closed-form u-integrals of the kernels
# ---------------------------------------------------------------------------

def beta0_u_integral(y):
    """int_0^1 beta0(u, y) du = (1/3) (1 - (1-y)^3 1{y < 1}).

    Equal to 1/3 exactly once y >= 1, since the cube gap is then 0.
    """
    r = (1.0 - _cube_gap(np.asarray(y, dtype=float))) / 3.0
    return r if r.shape else float(r)


def _cube_gap(t):
    """(1-t)^3 1{t < 1}, with ``pow`` evaluated only where t < 1.

    ``pow`` is masked because numpy's ``pow`` is slow on the negative bases of
    dead entries (t >= 1), and most entries of the later window terms are
    dead.  A dead entry is written as +0.0 without calling ``pow``; a live one
    is the same ``pow(1 - t, 3)`` as in ``(1 - t)**3 * (t < 1)``, bit for bit.
    Where that product gave -0.0 (or NaN once the cube overflowed), this
    gives +0.0.

    A 0-d ``t`` takes the same array route, so a kernel has the same bits
    for one argument as for an array of them (a numpy scalar's ``pow`` is
    libm's, which differs from numpy's array loop in the last bit for some
    bases).
    """
    return np.power(1.0 - t, 3.0, out=np.zeros_like(t), where=t < 1.0)


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


# ---------------------------------------------------------------------------
# window sizes
# ---------------------------------------------------------------------------

def correlation_window(k: int, ratio: float) -> int:
    """ceil(ratio * (1 + k)): how far stratified-selection correlations
    reach when the weight ratio (upper/lower potential bound) is ``ratio``."""
    if not 1.0 <= ratio < math.inf:
        raise InvalidArgument(f"potential bound ratio must be finite and >= 1, got {ratio}")
    if k < 0:
        raise InvalidArgument(f"k must be >= 0, got {k}")
    return int(math.ceil(ratio * (1 + k) - 1e-12))


def min_particles(model: ModelConfig, steps: int) -> int:
    """1 + the largest ``correlation_window(0, ratio)`` of the potentials of
    steps 0..``steps``: the fewest particles the variance formulas of those
    steps assume, one window of the declared reach."""
    return 1 + max(correlation_window(0, model.potential(n).ratio()) for n in range(steps + 1))


# ---------------------------------------------------------------------------
# deterministic variance components
# ---------------------------------------------------------------------------

def _reference_g_mean(ref, step: int) -> float:
    """Weighted reference mean of the step's potential (the normalizer of
    the limiting weights); closed form for the built-in model."""
    if ref == "section7" and step in (0, 1, 2):
        return section7_constants(step)["g_mean"]
    model = build_model(ref)
    g_mean = weighted_reference_mean(model, step, model.potential(step).fn)
    if not g_mean > 0.0:
        raise InvalidModel(f"the step-{step} potential's weighted mean underflows double precision")
    return g_mean


def _step1_recursion_terms() -> tuple[float, float]:
    """Scale m_g^4 and mutation correction E[g_0 (P f^2 - (P f)^2)] /
    (m_g^4 m_{g,0}) of the built-in model's step-1 variance recursion."""
    c1 = section7_constants(1)
    c0 = section7_constants(0)
    scale = c1["g_mean"] ** 4
    return scale, c1["mutation_variance"] / (scale * c0["g_mean"])


def selected_mean(ref, f: Optional[Callable] = None) -> float:
    """E[f g_0] / E[g_0] under the initial law: the limit of the selected
    population's mean of f (the model's own when None) at step 0.  Closed
    form for the built-in model's f."""
    if ref == "section7" and f is None:
        return section7_constants(0)["selected_f_mean"]
    model = build_model(ref)
    f = model.f if f is None else f
    g = model.potential(0)
    return weighted_reference_mean(model, 0, lambda x: np.asarray(f(x)) * g(x)) / _reference_g_mean(ref, 0)


def sigma1_sq(ref, f: Optional[Callable] = None) -> float:
    """Weighted-mean fluctuation variance at step 0 of f (the model's own
    when None).

    With gt = g_0 / E g_0 normalized under the initial law eta:

        sigma1_sq = E[ ( gt(X) (f(X) - E[f gt]) )^2 ]

    Closed form for the built-in model's f, Gauss-Legendre quadrature for
    any other test function or d = 1 model.
    """
    if ref == "section7" and f is None:
        return section7_constants(0)["sigma1_sq"]
    model = build_model(ref)
    f = model.f if f is None else f
    g = model.potential(0)
    g_mean = _reference_g_mean(ref, 0)
    fg_mean = selected_mean(ref, f)
    fluct = lambda x: (g(x) / g_mean * (np.asarray(f(x)) - fg_mean)) ** 2
    return weighted_reference_mean(model, 0, fluct)
