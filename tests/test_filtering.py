import math

import numpy as np
import pytest

from smclab import conditional_mean, run_filter, weight_profile
from smclab._engine import Conjecture2Task, SelectedSumTask, _advance, stream_rng
from smclab.model import build_model
from smclab.variance import _reference_g_mean

from conftest import conjecture2_lhs, conjecture2_rhs

E = math.e
SLOPED_MODEL = {
    "name": "sloped",
    "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
    "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
    "g": {"form": "poly", "coeffs": [1.0, 0.5]},
    "f": {"form": "poly", "coeffs": [0.0, 1.0]},
}


def test_zero_steps_is_initial_population(model):
    traj = run_filter(model, 50, 0, seed=1)
    rec = traj.record(0)
    assert np.array_equal(rec.selected, rec.mutated)
    assert traj.last_step == 0


def test_bit_reproducible(model):
    a = run_filter(model, 500, 3, seed=99)
    b = run_filter(model, 500, 3, seed=99)
    for n in range(4):
        assert np.array_equal(a.record(n).mutated, b.record(n).mutated)
        assert np.array_equal(a.record(n).selected, b.record(n).selected)
    c = run_filter(model, 500, 3, seed=100)
    assert not np.array_equal(a.record(3).mutated, c.record(3).mutated)


@pytest.mark.parametrize("ref", ["section7", SLOPED_MODEL], ids=["section7", "sloped"])
@pytest.mark.parametrize("step", [1, 2])
def test_run_filter_is_the_engine_loop(ref, step):
    """A filter trajectory is row 0 of the engine's batch 0 of stream 0: the
    engine's selected sum equals the one of the recorded generation, bit for
    bit."""
    m, seed = 300, 12
    model = build_model(ref)
    (task_sum,) = SelectedSumTask(ref, m, step=step)(1, stream_rng(seed, 0, 0))
    rec = run_filter(model, m, step, seed).record(step)
    assert task_sum[0] == np.asarray(model.f(rec.selected), dtype=float).sum() / math.sqrt(m)


def test_warns_below_window_threshold(model):
    with pytest.warns(UserWarning):
        run_filter(model, 4, 1, seed=0)


def test_step1_population_means(model):
    m = 100_000
    traj = run_filter(model, m, 1, seed=7)
    f_y1 = np.exp(traj.record(1).selected)
    f_x1 = np.exp(traj.record(1).mutated)
    # limits: selected mean (e+1)/2, mutated mean (e^2-1)/2; 5-sigma bands
    # with asymptotic sds sqrt(0.3455/M) and sqrt(1.92/M)
    assert abs(f_y1.mean() - (E + 1) / 2) < 5 * math.sqrt(0.346 / m)
    assert abs(f_x1.mean() - (E**2 - 1) / 2) < 5 * math.sqrt(1.92 / m)


def test_selection_identity_monte_carlo(model):
    """Fresh selections of a frozen population average to the weighted mean."""
    from smclab.resampling import resample
    traj = run_filter(model, 200, 1, seed=3)
    rec = traj.record(1)
    prof = weight_profile(model.potential(1)(rec.mutated))
    fv = np.exp(rec.mutated)
    target = conditional_mean(prof, fv)
    rng = np.random.default_rng(8)
    reps = 20_000
    vals = fv[resample("stratified", prof, rng, rows=reps)].mean(axis=1)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) < 5 * se


def test_conjecture2_sides_close_at_scale(model):
    rec = run_filter(model, 50_000, 1, seed=11).record(1)
    h = lambda a, b: a + b
    psi = lambda u, w0, w1: u + w0 + w1
    lhs = conjecture2_lhs(rec.mutated, weight_profile(model.potential(1)(rec.mutated)), 1, h, psi)
    # the limit side with the uniform replaced by its mean
    gt = model.potential(1)(rec.mutated) / _reference_g_mean("section7", 1)
    rhs_mean = conjecture2_rhs(rec.mutated, gt, 1, h, lambda u, w0, w1: 0.5 + w0 + w1,
                               np.random.default_rng(0).random())
    assert lhs == pytest.approx(5.751, abs=0.08)
    assert rhs_mean == pytest.approx(5.751, abs=0.08)


def test_conjecture2_equal_weights_u_free_psi():
    flat_ref = {
        "name": "flat",
        "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
        "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
        "g": {"form": "poly", "coeffs": [2.0]},
        "f": {"form": "poly", "coeffs": [0.0, 1.0]},
    }
    flat = build_model(flat_ref)
    rec = run_filter(flat, 500, 1, seed=4).record(1)
    h = lambda a, b: a * b
    psi = lambda u, w0, w1: 3.0 * w0 + w1  # no dependence on the fractional part
    lhs = conjecture2_lhs(rec.mutated, weight_profile(flat.potential(1)(rec.mutated)), 1, h, psi)
    gt = flat.potential(1)(rec.mutated) / _reference_g_mean(flat_ref, 1)
    rhs = conjecture2_rhs(rec.mutated, gt, 1, h, psi, np.random.default_rng(1).random())
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("t", [1, 2])
def test_conjecture2_task_matches_oracle(model, step, t):
    """Every row of the engine's Conjecture2Task against the oracle on that
    row's population: lhs with the library's weight_profile, rhs with the
    uniform the task draws after its population loop."""
    task = Conjecture2Task("section7", 300, step=step, tuple_size=t)
    rows = 6
    lhs, rhs = task(rows, stream_rng(5, 1, 0))
    replay = stream_rng(5, 1, 0)
    x, _ = _advance(model, (rows, task.particles), step, replay)
    u = replay.random((rows, 1))
    h = lambda *cols: sum(cols)
    psi = lambda u, *w: u + sum(w)
    g_mean = _reference_g_mean("section7", step)
    for r in range(rows):
        g = model.potential(step)(x[r])
        assert lhs[r] == pytest.approx(conjecture2_lhs(x[r], weight_profile(g), t, h, psi), rel=1e-9)
        assert rhs[r] == pytest.approx(conjecture2_rhs(x[r], g / g_mean, t, h, psi, u[r, 0]), rel=1e-9)
