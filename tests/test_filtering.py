import math

import numpy as np
import pytest

from smclab import (
    InvalidArgument,
    conditional_mean,
    conjecture2_lhs,
    conjecture2_rhs,
    k_tuple_mean,
    run_filter,
    trajectory_to_csv,
)
from smclab.model import build_custom_model

E = math.e


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


def test_warns_below_window_threshold(model):
    with pytest.warns(UserWarning):
        run_filter(model, 4, 1, seed=0)


def test_keep_history_prunes(model):
    traj = run_filter(model, 50, 2, seed=5, keep_history=False)
    assert sorted(traj.records) == [1, 2]
    with pytest.raises(InvalidArgument):
        traj.record(0)


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
    prof = rec.profile
    fv = np.exp(rec.mutated)
    target = conditional_mean(prof, fv)
    rng = np.random.default_rng(8)
    reps = 20_000
    vals = fv[resample("stratified", prof, rng, rows=reps)].mean(axis=1)
    se = vals.std() / math.sqrt(reps)
    assert abs(vals.mean() - target) < 5 * se


def test_k_tuple_mean(model):
    traj = run_filter(model, 10, 1, seed=2)
    ones = lambda *cols: np.ones_like(cols[0])
    assert k_tuple_mean(traj, 1, 2, ones) == pytest.approx(0.8, abs=1e-15)
    plain = k_tuple_mean(traj, 1, 0, lambda a: np.exp(a))
    assert plain == pytest.approx(np.exp(traj.record(1).mutated).mean(), rel=1e-12)
    sel = k_tuple_mean(traj, 1, 0, lambda a: np.exp(a), which="selected")
    assert sel == pytest.approx(np.exp(traj.record(1).selected).mean(), rel=1e-12)
    with pytest.raises(InvalidArgument):
        k_tuple_mean(traj, 1, 10, ones)
    with pytest.raises(InvalidArgument):
        k_tuple_mean(traj, 1, 1, ones, which="bogus")


def test_conjecture2_sides_close_at_scale(model):
    traj = run_filter(model, 50_000, 1, seed=11)
    h = lambda a, b: a + b
    psi = lambda u, w0, w1: u + w0 + w1
    lhs = conjecture2_lhs(traj, 1, 1, h, psi)
    # the limit side with the uniform replaced by its mean
    rhs_mean = conjecture2_rhs(traj, 1, 1, h, lambda u, w0, w1: 0.5 + w0 + w1,
                               np.random.default_rng(0))
    assert lhs == pytest.approx(5.751, abs=0.08)
    assert rhs_mean == pytest.approx(5.751, abs=0.08)


def test_conjecture2_equal_weights_u_free_psi():
    flat = build_custom_model({
        "name": "flat",
        "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
        "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
        "g": {"form": "poly", "coeffs": [2.0]},
        "f": {"form": "poly", "coeffs": [0.0, 1.0]},
    })
    traj = run_filter(flat, 500, 1, seed=4)
    h = lambda a, b: a * b
    psi = lambda u, w0, w1: 3.0 * w0 + w1  # no dependence on the fractional part
    lhs = conjecture2_lhs(traj, 1, 1, h, psi)
    rhs = conjecture2_rhs(traj, 1, 1, h, psi, np.random.default_rng(1))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_trajectory_csv_export(model, tmp_path):
    traj = run_filter(model, 20, 1, seed=6)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,index,y_position,x_position,weight"
    assert len(lines) == 1 + 2 * 20
    step, idx, ypos, xpos, w = lines[1 + 20].split(",")
    rec = traj.record(1)
    assert (int(step), int(idx)) == (1, 0)
    assert float(ypos) == rec.selected[0]
    assert float(xpos) == rec.mutated[0]
    assert float(w) == rec.profile.w[0]
