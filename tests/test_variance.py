import math

import numpy as np
import pytest
from scipy.integrate import quad

from smclab import (
    InvalidArgument,
    beta0,
    beta0_u_integral,
    beta1,
    beta_window,
    beta_window_u_integral,
    beta_window_u_integral_numeric,
    build_custom_model,
    conditional_variance_exact,
    correlation_window,
    phi_k_closed,
    recursive_variance_step,
    sigma1_sq,
    sigma2_sq,
    strata_overlap,
    weight_profile,
)

E = math.e


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_beta0_point_values():
    assert beta0(0.0, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert beta0(0.25, 1.0) == pytest.approx(0.375, abs=1e-15)
    for x in np.linspace(0.0, 0.99, 23):
        assert beta0(x, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_beta1_point_values():
    assert beta1(0.2, 0.3, 0.1, 0.2) == pytest.approx(0.12, abs=1e-14)
    assert beta1(0.0, 0.5, 0.6, 0.3) == 0.0
    # y2 at least 1 - frac(y1) kills every term when x = 0
    assert beta1(0.0, 0.3, 0.8, 0.5) == 0.0
    assert beta1(0.0, 0.3, 1.4, 0.2) == 0.0


def test_beta0_continuity(rng):
    h = 1e-7
    x = rng.uniform(0.0, 1.0, 300)
    y = rng.uniform(0.0, 3.0, 300)
    jump = np.abs(beta0(x + h, y) - beta0(x, y))
    assert np.max(jump) <= 10.0 * h


def test_beta_window_delegation():
    assert beta_window(0, 0.3, [0.7]) == pytest.approx(beta0(0.3, 0.7), abs=1e-15)
    a, b = 0.6, 0.9
    assert beta_window(1, 0.2, [a, b]) == pytest.approx(-beta1(0.2, a, 0.0, b), abs=1e-15)
    assert beta_window(2, 0.2, [0.3, 0.1, 0.2]) == pytest.approx(-0.12, abs=1e-14)
    with pytest.raises(InvalidArgument):
        beta_window(2, 0.2, [0.3, 0.1])


# ---------------------------------------------------------------------------
# integrated kernels
# ---------------------------------------------------------------------------

def test_beta0_integral_law_against_quadrature():
    for y in np.linspace(0.0, 3.0, 100):
        pts = [p for p in (1.0 - (y - math.floor(y)), 1.0 - y) if 0.0 < p < 1.0]
        num, _ = quad(lambda u: beta0(u, y), 0.0, 1.0, points=pts or None, limit=100)
        assert beta0_u_integral(y) == pytest.approx(num, abs=1e-9)


def test_phi0_point_values():
    assert phi_k_closed(0, [3.0], [1.0]) == pytest.approx(3.0, abs=1e-12)  # c^2/3 with c=3
    assert phi_k_closed(0, [1.0], [0.5]) == pytest.approx((1 - 0.125) / 3.0, abs=1e-12)


def test_window_integral_closed_vs_numeric(rng):
    worst = 0.0
    for k in range(4):
        for _ in range(60):
            y = rng.uniform(0.02, 2.2, k + 1)
            closed = beta_window_u_integral(k, y)
            numeric = beta_window_u_integral_numeric(k, y)
            worst = max(worst, abs(closed - numeric))
    assert worst < 1e-9


def test_window_integral_numeric_methods_agree(rng):
    for k in (0, 1, 3):
        y = rng.uniform(0.1, 1.8, k + 1)
        piece = beta_window_u_integral_numeric(k, y, method="piecewise")
        gk = beta_window_u_integral_numeric(k, y, method="quad")
        assert piece == pytest.approx(gk, abs=1e-9)


def test_phi_k_includes_test_function_product(rng):
    y = rng.uniform(0.2, 1.5, 3)
    f = rng.uniform(-2.0, 2.0, 3)
    assert phi_k_closed(2, f, y) == pytest.approx(f[0] * f[2] * beta_window_u_integral(2, y), rel=1e-12)
    with pytest.raises(InvalidArgument):
        phi_k_closed(2, f[:2], y)


# ---------------------------------------------------------------------------
# window sizes and overlaps
# ---------------------------------------------------------------------------

def test_correlation_window_values():
    assert correlation_window(0, E) == 3
    assert correlation_window(5, 1.0) == 6
    assert correlation_window(8, E) == 25
    with pytest.raises(InvalidArgument):
        correlation_window(0, 0.5)


def test_strata_overlap_examples():
    # single interval: full mass y0 spread over the strata
    assert strata_overlap([], 0.0, [2.0], 4) == pytest.approx(2.0, abs=1e-12)
    # two strata forced into one interval of length 2 starting at 0
    assert strata_overlap([0], 0.0, [2.0], 3) == pytest.approx(1.0, abs=1e-12)
    # unit weights align exactly with strata
    assert strata_overlap([1, 2], 0.0, [1.0, 1.0, 1.0], 4) == pytest.approx(1.0, abs=1e-12)
    assert strata_overlap([1, 1], 0.0, [1.0, 1.0], 4) == 0.0
    with pytest.raises(InvalidArgument):
        strata_overlap([1], 0.0, [1.0], 4)
    with pytest.raises(InvalidArgument):
        strata_overlap([2, 1], 0.0, [1.0, 1.0, 1.0], 4)


def test_strata_overlap_marginal_law():
    for y0 in (0.4, 1.0, 1.7, 2.6):
        breaks = sorted({(k - y0) - math.floor(k - y0) for k in range(4)} - {0.0})
        num, _ = quad(lambda u: strata_overlap([], u, [y0], 6), 0.0, 1.0,
                      points=breaks, limit=100)
        assert num == pytest.approx(y0, abs=1e-10)


# ---------------------------------------------------------------------------
# variance components
# ---------------------------------------------------------------------------

def test_sigma1_closed_form_and_reductions(model):
    assert sigma1_sq(model) == pytest.approx(0.2662106707887794, abs=1e-12)
    # constant test function: variance vanishes
    val = sigma1_sq(model, f=lambda x: np.full_like(np.asarray(x, dtype=float), 2.5))
    assert val == pytest.approx(0.0, abs=1e-10)
    # flat potential: reduces to the plain variance of f
    flat = build_custom_model({
        "name": "flat",
        "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
        "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
        "g": {"form": "poly", "coeffs": [1.0]},
        "f": {"form": "poly", "coeffs": [0.0, 1.0]},
    })
    assert sigma1_sq(flat) == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_sigma2_zero_function(model, rng):
    rep = sigma2_sq(model, n_samples=500, rng=rng, f=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    assert rep.sigma2_sq.point == 0.0
    assert rep.sigma2_sq.half_width == 0.0


def test_sigma2_value_and_method_agreement(model):
    closed = sigma2_sq(model, method="closed_form_mc", n_samples=150_000,
                       rng=np.random.default_rng(11))
    direct = sigma2_sq(model, method="beta_mc", n_samples=150_000,
                       rng=np.random.default_rng(12))
    assert len(closed.per_k) == 4
    assert closed.total == pytest.approx(closed.sigma1_sq + closed.sigma2_sq.point, rel=1e-12)
    # reference value of the selection-noise component
    assert closed.sigma2_sq.point == pytest.approx(0.0793412, abs=6 * closed.sigma2_sq.half_width)
    # the two estimators agree within joint intervals
    joint = closed.sigma2_sq.half_width + direct.sigma2_sq.half_width
    assert abs(closed.sigma2_sq.point - direct.sigma2_sq.point) < joint
    # integrating the uniform out can only shrink the sampler variance
    assert closed.sigma2_sq.half_width < direct.sigma2_sq.half_width
    with pytest.raises(InvalidArgument):
        sigma2_sq(model, n_samples=0)
    with pytest.raises(InvalidArgument):
        sigma2_sq(model, method="bogus")


def test_expected_conditional_variance_converges_to_sigma2(model):
    """Mean of the exact conditional variance over fresh populations
    approaches the selection-noise component."""
    rng = np.random.default_rng(5)
    m, reps = 5000, 300
    vals = np.empty(reps)
    for j in range(reps):
        x = rng.random(m)
        prof = weight_profile(np.exp(x))
        # selection uses the self-normalized weights; the limit uses gt
        vals[j] = conditional_variance_exact(prof, np.exp(x))
    from smclab.estimators import mean_estimate
    got = mean_estimate(vals)
    ref = sigma2_sq(model, n_samples=200_000, rng=np.random.default_rng(6)).sigma2_sq
    assert abs(got.point - ref.point) < 3 * (got.half_width + ref.half_width)


def test_window_kernel_terms_against_numeric(rng):
    """Every window start of every term of the engine's window-kernel
    evaluator against the numeric integration route."""
    from smclab._engine import window_kernel_terms

    xs = rng.random((2, 6))
    fv = np.exp(xs)
    gt = np.exp(xs) / (E - 1.0)
    terms = list(window_kernel_terms(fv, gt, 3))
    assert [t.shape for t in terms] == [(2, 6), (2, 5), (2, 4), (2, 3)]
    for k, term in enumerate(terms):
        for r in range(2):
            for i in range(6 - k):
                expected = fv[r, i] * fv[r, i + k] * beta_window_u_integral_numeric(k, gt[r, i:i + k + 1])
                assert term[r, i] == pytest.approx(expected, abs=1e-9)
    zero = np.zeros_like(fv)
    assert all(np.all(t == 0.0) for t in window_kernel_terms(zero, gt, 3))


def test_recursive_variance_step(model):
    """Two-step limit variance assembled recursively vs. simulated directly."""
    # previous-step variance of the transformed test function
    from smclab.model import section7_pf1
    s1 = sigma1_sq(model, f=section7_pf1)
    s2 = sigma2_sq(model, f=section7_pf1, n_samples=300_000,
                   rng=np.random.default_rng(21)).sigma2_sq.point
    v_prev = s1 + s2
    v2 = recursive_variance_step(v_prev, model, step=1, mc_particles=1000,
                                 mc_replicates=1500, seed=31)
    # direct simulation of the step-2 selected sums
    from smclab._engine import SelectedSumTask, run_stream
    from smclab.estimators import variance_estimate
    (t_vals,) = run_stream(SelectedSumTask("section7", 1000, step=2), 4000, seed=32, stream=1)
    direct = variance_estimate(t_vals)
    assert v2 == pytest.approx(3.266, abs=0.2)
    assert abs(v2 - direct.point) < 4 * direct.half_width + 0.05
    with pytest.raises(InvalidArgument):
        recursive_variance_step(1.0, model, step=0)
    custom = build_custom_model({"name": "c", "g": {"form": "exp"}, "f": {"form": "exp"}})
    with pytest.raises(NotImplementedError):
        recursive_variance_step(1.0, custom, step=1)
