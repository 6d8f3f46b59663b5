import math

import numpy as np
import pytest
from scipy.integrate import quad

from smclab import (
    InvalidArgument,
    InvalidModel,
    beta0,
    beta0_u_integral,
    beta1,
    build_model,
    conditional_variance_exact,
    correlation_window,
    recursive_variance_step,
    section7_pf1,
    sigma1_sq,
    sigma2_sq,
    weight_profile,
)
from smclab import _engine
from smclab.estimators import mean_estimate
from smclab.resampling import live_windows
from smclab.variance import _cube_gap, _reference_g_mean, beta_pair_u_integral, min_particles

from conftest import (
    beta_window,
    beta_window_u_integral_numeric,
    cube_gap_unmasked,
    sigma2_beta_mc,
    window_integral_breaks,
    window_integral_closed,
    window_kernel_terms_dense,
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
    assert window_integral_closed(0, [3.0], [1.0]) == pytest.approx(3.0, abs=1e-12)  # c^2/3 with c=3
    assert window_integral_closed(0, [1.0], [0.5]) == pytest.approx((1 - 0.125) / 3.0, abs=1e-12)


def test_window_integral_closed_vs_numeric(rng):
    worst = 0.0
    for k in range(4):
        for _ in range(60):
            y = rng.uniform(0.02, 2.2, k + 1)
            closed = window_integral_closed(k, np.ones(k + 1), y)
            numeric = beta_window_u_integral_numeric(k, y)
            worst = max(worst, abs(closed - numeric))
    assert worst < 1e-9


def test_window_integral_numeric_methods_agree(rng):
    """Piecewise Gauss-Legendre against adaptive Gauss-Kronrod on the same
    integrand, with the break points as hints."""
    for k in (0, 1, 3):
        y = rng.uniform(0.1, 1.8, k + 1)
        piece = beta_window_u_integral_numeric(k, y)
        gk, _ = quad(lambda u: beta_window(k, u, y), 0.0, 1.0,
                     points=list(window_integral_breaks(k, y)[1:-1]), limit=200)
        assert piece == pytest.approx(gk, abs=1e-9)


# ---------------------------------------------------------------------------
# window sizes
# ---------------------------------------------------------------------------

def test_correlation_window_values():
    assert correlation_window(0, E) == 3
    assert correlation_window(5, 1.0) == 6
    assert correlation_window(8, E) == 25
    for ratio in (0.5, math.inf, math.nan):
        with pytest.raises(InvalidArgument):
            correlation_window(0, ratio)


def test_min_particles_is_one_more_than_the_declared_window(monkeypatch):
    """min_particles reads correlation_window, which rounds a ratio within
    1e-12 above an integer down to it; section7 keeps its counts."""
    edge = {"g": {"form": "poly", "coeffs": [1.0, 2.0000000000001]}}
    model = build_model(edge)
    # step-0 ratio 3 + 1e-13, step-1 ratio 5 + 2e-13 (X_1 lies in [0, 2])
    assert [min_particles(model, steps) for steps in (0, 1)] == [4, 6]
    assert [min_particles(build_model("section7"), steps) for steps in (0, 1, 2)] == [4, 9, 22]
    # the step-0 tuples of sigma2_sq are as long as that
    shapes = []
    evaluate = _engine.window_kernel_terms
    monkeypatch.setattr(_engine, "window_kernel_terms",
                        lambda fv, gt: shapes.append(gt.shape) or evaluate(fv, gt))
    _engine.PhiTupleTask(edge)(2, _engine.stream_rng(1, 2, 0))
    assert shapes == [(2, 4)]


# ---------------------------------------------------------------------------
# variance components
# ---------------------------------------------------------------------------

def test_sigma1_closed_form_and_reductions():
    assert sigma1_sq("section7") == pytest.approx(0.2662106707887794, abs=1e-12)
    # constant test function: variance vanishes
    val = sigma1_sq("section7", f=lambda x: np.full_like(np.asarray(x, dtype=float), 2.5))
    assert val == pytest.approx(0.0, abs=1e-10)
    # flat potential: reduces to the plain variance of f
    flat = {
        "name": "flat",
        "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
        "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
        "g": {"form": "poly", "coeffs": [1.0]},
        "f": {"form": "poly", "coeffs": [0.0, 1.0]},
    }
    assert sigma1_sq(flat) == pytest.approx(1.0 / 12.0, abs=1e-10)


def test_variance_components_follow_the_reference():
    """The reference is the model's only identity: doubling f in the table
    scales both components by exactly 4, and a built model is not a
    reference, so a model changed after building cannot pass for another."""
    base = {"name": "exp-f", "g": {"form": "exp"}, "f": {"form": "exp"}}
    doubled = {**base, "f": {"form": "exp", "scale": 2.0}}
    assert sigma2_sq(doubled, 2000, seed=1).point == 4.0 * sigma2_sq(base, 2000, seed=1).point
    assert sigma1_sq(doubled) == 4.0 * sigma1_sq(base)
    with pytest.raises(InvalidModel, match="unknown model reference"):
        sigma2_sq(build_model("section7"), 100, seed=1)
    with pytest.raises(InvalidModel, match="unknown model reference"):
        sigma1_sq(build_model(base))


def test_sigma2_zero_function():
    zero_f = {"name": "zero-f", "g": {"form": "exp"}, "f": {"form": "poly", "coeffs": [0.0]}}
    est = sigma2_sq(zero_f, 500, seed=3)
    assert est.point == 0.0
    assert est.half_width == 0.0


def test_sigma2_value_and_method_agreement(model):
    closed = sigma2_sq("section7", 150_000, seed=11)
    direct = sigma2_beta_mc("section7", 150_000, np.random.default_rng(12))
    # step-0 tuples yield at most 3 window terms: window 3 vanishes, since
    # its middle mass gt_1 + gt_2 >= 2/(e-1) > 1
    tuples = model.sample_positions((10_000, 4), np.random.default_rng(13))
    fv, gt, k_max = _window_inputs("section7", tuples, 0)
    assert k_max == 3 and len(list(_engine.window_kernel_terms(fv, gt))) <= 3
    # reference value of the selection-noise component, by quadrature
    assert closed.point == pytest.approx(0.07930644853977625, abs=6 * closed.half_width)
    # the closed form and the kernel at a fresh uniform agree within joint intervals
    joint = closed.half_width + direct.half_width
    assert abs(closed.point - direct.point) < joint
    # integrating the uniform out can only shrink the sampler variance
    assert closed.half_width < direct.half_width
    with pytest.raises(InvalidArgument):
        sigma2_sq("section7", 0)
    with pytest.raises(InvalidArgument):
        sigma2_sq("section7", 100, transform="bogus")


def test_expected_conditional_variance_converges_to_sigma2():
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
    ref = sigma2_sq("section7", 200_000, seed=6)
    assert abs(got.point - ref.point) < 3 * (got.half_width + ref.half_width)


def test_window_kernel_terms_against_numeric(rng):
    """Every window start of every term of the engine's window-kernel
    evaluator against the numeric integration route."""
    from smclab._engine import window_kernel_terms

    xs = rng.random((2, 6))
    fv = np.exp(xs)
    gt = np.exp(xs) / (E - 1.0)
    terms = list(window_kernel_terms(fv, gt))
    # window 3 is dead (gt_1 + gt_2 >= 2/(e-1) > 1), so the walk stops before it
    assert [t.shape for t in terms] == [(2, 6), (2, 5), (2, 4)]
    for k in range(4):
        term = terms[k] if k < len(terms) else np.zeros((2, 6 - k))
        for r in range(2):
            for i in range(6 - k):
                expected = fv[r, i] * fv[r, i + k] * beta_window_u_integral_numeric(k, gt[r, i:i + k + 1])
                assert term[r, i] == pytest.approx(expected, abs=1e-9)
    zero = np.zeros_like(fv)
    assert all(np.all(t == 0.0) for t in window_kernel_terms(zero, gt))


# ---------------------------------------------------------------------------
# the masked cube gap and the early stop of the window-kernel evaluator
# ---------------------------------------------------------------------------

SLOPED = {"name": "sloped", "g": {"form": "exp", "rate": 2.0}, "f": {"form": "poly", "coeffs": [0.5, 1.0]}}


def _same_bits(a, b):
    """Equal bit for bit up to the sign of zero (adding +0.0 maps -0.0 to
    +0.0 and leaves every other value as it is)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and (a + 0.0).tobytes() == (b + 0.0).tobytes()


def _last_live_k(gt):
    """Largest k with some window's middle mass below 1, per row."""
    n = gt.shape[1]
    cum = np.cumsum(gt, axis=1)
    last = np.zeros(len(gt), dtype=int)
    for k in range(1, n):
        live = (cum[:, k - 1:n - 1] - cum[:, :n - k] < 1.0).any(axis=1)
        last[live] = k
    return last


@pytest.fixture
def pair_calls(monkeypatch):
    """Number of window starts n - k of each pair-kernel evaluation by the
    engine, in call order."""
    calls = []
    original = _engine.beta_pair_u_integral

    def counted(y0, mid, yk):
        calls.append(y0.shape[1])
        return original(y0, mid, yk)

    monkeypatch.setattr(_engine, "beta_pair_u_integral", counted)
    return calls


def test_cube_gap_matches_unmasked_product():
    t = np.array([1.0, np.nextafter(1.0, 0.0), 0.0, -0.5, -3.0, 0.25, 1.5, 2.0])
    assert _same_bits(_cube_gap(t), cube_gap_unmasked(t))
    for v in t:
        assert _same_bits(_cube_gap(np.asarray(v)), cube_gap_unmasked(np.asarray(v)))
    # the unmasked cube overflows to -inf at 1e300 and -inf * 0 is NaN; the
    # masked one never evaluates it
    with np.errstate(all="raise"):
        for big in (np.array([1e300]), np.asarray(1e300)):
            assert _same_bits(_cube_gap(big), np.zeros_like(big))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(cube_gap_unmasked(np.array([1e300]))).all()
    # 0-d inputs take the same array path; the public integrals still
    # return Python floats, with the bits of the plain product here
    y = np.asarray(0.5)
    assert type(beta0_u_integral(0.5)) is float
    assert beta0_u_integral(0.5) == float((1.0 - cube_gap_unmasked(y)) / 3.0)
    y0, mid, yk = np.asarray(0.2), np.asarray(0.3), np.asarray(0.4)
    old_pair = -(cube_gap_unmasked(mid) - cube_gap_unmasked(mid + yk)
                 - cube_gap_unmasked(y0 + mid) + cube_gap_unmasked(y0 + mid + yk)) / 3.0
    assert type(beta_pair_u_integral(0.2, 0.3, 0.4)) is float
    assert beta_pair_u_integral(0.2, 0.3, 0.4) == float(old_pair)


def test_u_integrals_have_the_same_bits_one_argument_at_a_time():
    """A 0-d argument takes the array path of the cube gap, so evaluating
    node by node gives the bits of one evaluation on the array."""
    y0, mid, yk = np.random.default_rng(4).uniform(0.0, 1.5, (3, 2000))
    assert _same_bits(np.array([beta0_u_integral(v) for v in y0]), beta0_u_integral(y0))
    one_by_one = [beta_pair_u_integral(a, b, c) for a, b, c in zip(y0, mid, yk)]
    assert _same_bits(np.array(one_by_one), beta_pair_u_integral(y0, mid, yk))


def _window_inputs(ref, x, step):
    model = build_model(ref)
    pot = model.potential(step)
    gt = pot.fn(x) / _reference_g_mean(ref, step)
    return np.asarray(model.f(x), dtype=float), gt, correlation_window(0, pot.ratio())


def test_window_kernel_terms_equal_the_dense_evaluator(model, pair_calls):
    """The yielded terms equal the unmasked, every-k evaluation bit for bit
    (up to the sign of zero), every dense term past them is 0, and the pair
    kernel is never evaluated past the last live window size."""
    x1 = _engine._advance(model, (6, 300), 1, _engine.stream_rng(1, 3, 0))
    fv_s, gt_s, k_s = _window_inputs(SLOPED, np.random.default_rng(3).random((12, 9)), 0)
    # the stop differs between the sloped rows; only k <= 1 is live once every gt >= 1
    assert len(set(_last_live_k(gt_s))) > 1
    assert _last_live_k(1.0 + gt_s).max() == 1
    cases = {
        "section7 step 1": _window_inputs("section7", x1, 1),
        "sloped tuples": (fv_s, gt_s, k_s),
        "only k <= 1 live": (fv_s, 1.0 + gt_s, k_s),
    }
    for name, (fv, gt, k_max) in cases.items():
        last = _last_live_k(gt)
        pair_calls.clear()
        terms = list(_engine.window_kernel_terms(fv, gt))
        dense = window_kernel_terms_dense(fv, gt, k_max)
        assert len(terms) == last.max() + 1, name
        for k, (term, ref) in enumerate(zip(terms, dense)):
            assert np.array_equal(term, ref) and _same_bits(term, ref), (name, k)
        assert all(np.all(ref == 0.0) for ref in dense[len(terms):]), name
        n = gt.shape[1]
        assert pair_calls == [n - k for k in range(1, last.max() + 1)], name
        assert last.max() < k_max, name  # the walk stops before the declared bound


def test_sigma2_sq_is_batch_invariant(monkeypatch, pair_calls):
    """Batches stop at different window sizes, each returns its one summed
    output, and sigma2_sq is the mean of the stream's output."""
    monkeypatch.setattr(_engine, "BATCH_TARGET", 4)  # 4 tuples per batch
    n, seed = 40, 7
    task = _engine.PhiTupleTask(SLOPED)
    stops = set()
    for b in range(n // 4):
        pair_calls.clear()
        assert len(task(4, _engine.stream_rng(seed, 2, b))) == 1
        stops.add(len(pair_calls))
    assert len(stops) > 1, stops
    (samples,) = _engine.run_stream(task, n, seed, stream=2)
    assert sigma2_sq(SLOPED, n, seed=seed) == mean_estimate(samples)


# the sloped and the ratio-30 tables of tools/report_digests.py
DIGEST_TABLES = (
    {"initial": {"law": "uniform", "lo": 0.0, "hi": 1.5},
     "kernel": {"kind": "uniform_shift", "lo": -0.25, "hi": 0.75},
     "g": {"form": "exp", "scale": 0.5, "rate": 1.5},
     "f": {"form": "poly", "coeffs": [0.2, 1.0, -0.3]}},
    {"g": {"form": "exp", "rate": 3.4}, "f": {"form": "poly", "coeffs": [0.2, 1.0, -0.3]}},
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_declared_window_bounds_the_walk(model, seed):
    """The window walk, which has no cap, never yields a k above
    correlation_window(0, ratio): on section7 populations at steps 0-2, on
    step-0 draws of the digest tables, and on profiles of g in [lo, hi]."""
    for step in range(3):
        x = _engine._advance(model, (8, 500), step, _engine.stream_rng(seed, 5, step))
        fv, gt, declared = _window_inputs("section7", x, step)
        assert len(list(_engine.window_kernel_terms(fv, gt))) <= declared + 1, step
    rng = np.random.default_rng(seed)
    for ref in DIGEST_TABLES:
        declared = correlation_window(0, build_model(ref).potential(0).ratio())
        # rows three tuples long, so that the row length does not stop the walk
        x = build_model(ref).sample_positions((256, 3 * (declared + 1)), rng)
        fv, gt, _ = _window_inputs(ref, x, 0)
        assert len(list(_engine.window_kernel_terms(fv, gt))) <= declared + 1, ref
    for lo, hi in ((1.0, E), (0.5, 15.0), (1.0, 30.0)):
        for m in (50, 2000):
            prof = weight_profile(rng.uniform(lo, hi, m))
            last = max((k for k, _ in live_windows(prof.cum)), default=0)
            assert last <= correlation_window(0, hi / lo), (lo, hi, m)


def test_recursive_variance_step():
    """Two-step limit variance assembled recursively vs. simulated directly."""
    # previous-step variance of the transformed test function
    v_prev = (sigma1_sq("section7", section7_pf1)
              + sigma2_sq("section7", 300_000, seed=21, transform="pf1").point)
    v2 = recursive_variance_step(v_prev, "section7", step=1, mc_particles=1000,
                                 mc_replicates=1500, seed=31)
    # direct simulation of the step-2 selected sums
    from smclab._engine import SelectedSumTask, run_stream
    from smclab.estimators import variance_estimate
    (t_vals,) = run_stream(SelectedSumTask("section7", 1000, step=2), 4000, seed=32, stream=1)
    direct = variance_estimate(t_vals)
    assert v2 == pytest.approx(3.266, abs=0.2)
    assert abs(v2 - direct.point) < 4 * direct.half_width + 0.05
    with pytest.raises(InvalidArgument):
        recursive_variance_step(1.0, "section7", step=0)
    custom = {"name": "c", "g": {"form": "exp"}, "f": {"form": "exp"}}
    with pytest.raises(NotImplementedError):
        recursive_variance_step(1.0, custom, step=1)


def test_pf1_transform_needs_the_builtin_model():
    """P f_1 is section7's closed form; no other model may borrow it, not
    even a table equal to section7's row."""
    for table in (SLOPED, {"g": {"form": "exp"}, "f": {"form": "exp"}}):
        with pytest.raises(InvalidArgument, match="pf1"):
            sigma2_sq(table, 200, seed=1, transform="pf1")
        with pytest.raises(InvalidArgument, match="pf1"):
            _engine.SelectedSumTask(table, 300, transform="pf1")(2, _engine.stream_rng(1, 2, 0))
