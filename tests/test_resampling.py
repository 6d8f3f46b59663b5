import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smclab import (
    InvalidArgument,
    InvalidModel,
    baseline_resample,
    conditional_mean,
    conditional_variance_exact,
    conditional_variance_oracle,
    multinomial_conditional_variance,
    residual_conditional_variance,
    selection_coefficients,
    stratified_resample,
    systematic_conditional_variance,
    weight_profile,
)
from smclab.resampling import _ancestors_for_points, _ancestors_merge_walk

from conftest import random_profile

E = math.e


# ---------------------------------------------------------------------------
# weight profile
# ---------------------------------------------------------------------------

def test_profile_equal_weights():
    prof = weight_profile(np.full(4, 1.0))
    assert np.array_equal(prof.w, np.ones(4))
    assert np.array_equal(prof.u, np.zeros(5))
    assert np.array_equal(prof.mu, [1, 2, 3, 4, 5])
    assert prof.cum[-1] == 4.0


def test_profile_two_particles():
    prof = weight_profile([3.0, 1.0])
    assert np.allclose(prof.w, [1.5, 0.5])
    assert prof.u[1] == 0.5 and prof.u[2] == 0.0
    assert prof.mu[1] == 2 and prof.mu[2] == 3


def test_profile_decomposition_identity(rng):
    for _ in range(50):
        prof = random_profile(rng)
        m = prof.size
        recon = prof.mu[1:] - 1.0 + prof.u[1:]
        assert np.max(np.abs(prof.cum - recon)) < 1e-11


def test_profile_weight_bounds(rng):
    for _ in range(20):
        prof = random_profile(rng, g_lo=1.0, g_hi=E)
        assert prof.w.min() >= 1.0 / E - 1e-12
        assert prof.w.max() <= E + 1e-12


def test_profile_rejects_bad_input():
    with pytest.raises(InvalidModel):
        weight_profile([1.0, 0.0, 2.0])
    with pytest.raises(InvalidModel):
        weight_profile([1.0, -2.0])
    with pytest.raises(InvalidArgument):
        weight_profile([])
    # finite values whose sum overflows
    with pytest.raises(InvalidModel):
        weight_profile([1e308, 1e308, 1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.2, max_value=5.0), min_size=2, max_size=20))
def test_partial_sum_relations(gs):
    """mu_p < mu_l iff the weights between them reach 1 - u_p, and equality
    of mu propagates the fractional part additively."""
    prof = weight_profile(np.asarray(gs))
    m = prof.size
    for p in range(m):
        for l in range(p + 1, m + 1):
            span = prof.cum[l - 1] - (prof.cum[p - 1] if p >= 1 else 0.0)
            if prof.mu[p] < prof.mu[l]:
                assert span >= 1.0 - prof.u[p] - 1e-9
            else:
                assert prof.mu[p] == prof.mu[l]
                assert span < 1.0 - prof.u[p] + 1e-9
                assert prof.u[l] == pytest.approx(prof.u[p] + span, abs=1e-9)


# ---------------------------------------------------------------------------
# stratified selection
# ---------------------------------------------------------------------------

def test_stratified_equal_weights_identity(rng):
    prof = weight_profile(np.full(7, 2.5))
    for _ in range(5):
        out = stratified_resample(prof, rng)
        assert np.array_equal(out.ancestors, np.arange(7))


def test_stratified_two_particle_strata():
    prof = weight_profile([3.0, 1.0])
    # stratum 1 always picks particle 0; stratum 2 picks 0 iff 2 - U > 1.5
    assert _ancestors_for_points(prof.cum, np.array([1 - 0.99, 1 - 0.01])).tolist() == [0, 0]
    assert _ancestors_for_points(prof.cum, np.array([2 - 0.6])).tolist() == [0]
    assert _ancestors_for_points(prof.cum, np.array([2 - 0.4])).tolist() == [1]
    # boundary resolved right-closed: query exactly 1.5 belongs to particle 0
    assert _ancestors_for_points(prof.cum, np.array([1.5])).tolist() == [0]


def test_stratified_ancestors_non_decreasing(rng):
    for _ in range(20):
        prof = random_profile(rng)
        anc = stratified_resample(prof, rng).ancestors
        assert np.all(np.diff(anc) >= 0)


def test_merge_walk_matches_binary_search(rng):
    for _ in range(20):
        prof = random_profile(rng)
        pts = np.arange(1, prof.size + 1) - rng.random(prof.size)
        assert np.array_equal(_ancestors_for_points(prof.cum, pts),
                              _ancestors_merge_walk(prof.cum, pts))


@pytest.mark.parametrize("weights, rows, m", [
    ("section7", 64, 2000), ("ratio-1e3", 64, 2000), ("section7", 16, 10_000),
])
def test_engine_selection_matches_library(model, weights, rows, m):
    """The engine's flattened row-wise search samples the law the library
    proves: on shared uniforms both select the same ancestors."""
    from smclab._engine import batched_select, stream_rng

    x = model.sample_positions((rows, m), stream_rng(3, 0, 1))
    g = model.potential(0)(x) if weights == "section7" else np.exp(6.9 * x)
    got = batched_select(np.tile(np.arange(m), (rows, 1)), g, stream_rng(3, 0, 0))
    # row r of the engine consumes the r-th block of M uniforms of the stream
    lib_rng = stream_rng(3, 0, 0)
    mismatches = sum(
        int(np.count_nonzero(got[r] != stratified_resample(weight_profile(g[r]), lib_rng).ancestors))
        for r in range(rows)
    )
    assert mismatches == 0


def test_stratified_unbiasedness(rng):
    prof = weight_profile(rng.uniform(1.0, E, 30))
    reps = 40_000
    pts = np.arange(1, 31)[None, :] - rng.random((reps, 30))
    anc = np.searchsorted(prof.cum, pts.ravel(), side="left").reshape(reps, 30)
    counts = np.zeros((reps, 30))
    np.add.at(counts, (np.repeat(np.arange(reps), 30), anc.ravel()), 1.0)
    se = counts.std(axis=0) / math.sqrt(reps)
    assert np.all(np.abs(counts.mean(axis=0) - prof.w) <= 5 * se + 1e-9)
    # offspring counts stay within the window bound of their weight
    assert np.max(np.abs(counts - prof.w)) < 1 + math.ceil(E)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_baselines_equal_weights(rng):
    prof = weight_profile(np.full(6, 1.0))
    for kind in ("residual", "systematic"):
        out = baseline_resample(kind, prof, rng)
        assert sorted(out.ancestors.tolist()) == list(range(6))


def test_multinomial_slot_probabilities(rng):
    prof = weight_profile([3.0, 1.0])
    reps = 30_000
    hits = 0
    for _ in range(reps):
        hits += (baseline_resample("multinomial", prof, rng).ancestors == 0).sum()
    p_hat = hits / (2 * reps)
    se = math.sqrt(0.75 * 0.25 / (2 * reps))
    assert abs(p_hat - 0.75) < 5 * se


def test_residual_guarantees_and_degenerate(rng):
    prof = weight_profile([3.0, 1.0])
    for _ in range(20):
        anc = baseline_resample("residual", prof, rng).ancestors
        assert (anc == 0).sum() >= 1
    degenerate = weight_profile(np.full(5, 2.0))
    anc = baseline_resample("residual", degenerate, rng).ancestors
    assert sorted(anc.tolist()) == list(range(5))


def test_unknown_kind_rejected(rng):
    with pytest.raises(InvalidArgument):
        baseline_resample("bogus", weight_profile([1.0, 1.0]), rng)


def test_unbiasedness_all_schemes(rng):
    """Monte Carlo mean of (1/M) sum f(Y) matches the weighted mean."""
    g = rng.uniform(1.0, E, 25)
    fv = rng.uniform(-1.0, 2.0, 25)
    prof = weight_profile(g)
    target = conditional_mean(prof, fv)
    reps = 10_000
    for kind in ("stratified", "multinomial", "residual", "systematic"):
        vals = np.empty(reps)
        for j in range(reps):
            if kind == "stratified":
                anc = stratified_resample(prof, rng).ancestors
            else:
                anc = baseline_resample(kind, prof, rng).ancestors
            vals[j] = fv[anc].mean()
        se = vals.std() / math.sqrt(reps)
        assert abs(vals.mean() - target) < 5 * se + 1e-12, kind


# ---------------------------------------------------------------------------
# selection coefficients and conditional variance
# ---------------------------------------------------------------------------

def test_coefficients_equal_weights_identity():
    prof = weight_profile(np.full(3, 1.0))
    q = selection_coefficients(prof).matrix.toarray()
    assert np.allclose(q, np.eye(3))


def test_coefficients_two_particles():
    prof = weight_profile([3.0, 1.0])
    q = selection_coefficients(prof).matrix.toarray()
    assert np.allclose(q, [[1.0, 0.0], [0.5, 0.5]])


def test_coefficient_laws_random(rng):
    for _ in range(100):
        prof = random_profile(rng)
        coeffs = selection_coefficients(prof)
        assert np.max(np.abs(coeffs.row_sums() - 1.0)) < 1e-12
        assert np.max(np.abs(coeffs.col_sums() - prof.w)) < 1e-12
        assert coeffs.max_row_nnz() <= math.ceil(1.0 + prof.w.max()) + 1


def test_conditional_mean_values():
    prof = weight_profile([3.0, 1.0])
    assert conditional_mean(prof, np.ones(2)) == pytest.approx(1.0, abs=1e-15)
    assert conditional_mean(prof, np.array([2.0, 4.0])) == pytest.approx(2.5, abs=1e-12)


def test_conditional_mean_agrees_with_coefficients(rng):
    for _ in range(20):
        prof = random_profile(rng)
        fv = rng.uniform(-2.0, 2.0, prof.size)
        coeffs = selection_coefficients(prof)
        via_q = float(np.mean(coeffs.matrix @ fv))
        assert conditional_mean(prof, fv) == pytest.approx(via_q, abs=1e-12)


def test_conditional_variance_equal_weights_is_zero(rng):
    prof = weight_profile(np.full(8, 1.0))
    fv = rng.uniform(-3.0, 3.0, 8)
    assert conditional_variance_exact(prof, fv) == 0.0
    assert conditional_variance_oracle(selection_coefficients(prof), fv) == 0.0


def test_conditional_variance_two_particle_value():
    prof = weight_profile([3.0, 1.0])
    fv = np.array([1.0, 0.0])
    assert conditional_variance_exact(prof, fv) == pytest.approx(0.125, abs=1e-14)
    assert conditional_variance_oracle(selection_coefficients(prof), fv) == pytest.approx(0.125, abs=1e-14)


def test_exact_equals_oracle_random(rng):
    worst = 0.0
    for _ in range(200):
        prof = random_profile(rng, m_lo=4, m_hi=12)
        fv = rng.uniform(-2.0, 2.0, prof.size)
        d = abs(conditional_variance_exact(prof, fv)
                - conditional_variance_oracle(selection_coefficients(prof), fv))
        worst = max(worst, d)
    assert worst < 1e-12


def test_conditional_variance_against_monte_carlo(rng):
    m = 40
    prof = weight_profile(rng.uniform(1.0, E, m))
    fv = rng.uniform(-1.0, 1.0, m)
    exact = conditional_variance_exact(prof, fv)
    reps = 100_000
    pts = np.arange(1, m + 1)[None, :] - rng.random((reps, m))
    anc = np.searchsorted(prof.cum, pts.ravel(), side="left").reshape(reps, m)
    sums = fv[anc].sum(axis=1) / math.sqrt(m)
    mc = sums.var()
    se = mc * math.sqrt(2.0 / reps)  # variance-of-variance for near-normal sums
    assert abs(mc - exact) < 5 * se


def test_baseline_exact_variances_against_monte_carlo(rng):
    m = 30
    prof = weight_profile(rng.uniform(1.0, E, m))
    fv = rng.uniform(-1.0, 1.0, m)
    reps = 30_000
    exact = {
        "multinomial": multinomial_conditional_variance(prof, fv),
        "residual": residual_conditional_variance(prof, fv),
        "systematic": systematic_conditional_variance(prof, fv),
    }
    for kind, target in exact.items():
        vals = np.empty(reps)
        for j in range(reps):
            anc = baseline_resample(kind, prof, rng).ancestors
            vals[j] = fv[anc].sum() / math.sqrt(m)
        mc = vals.var()
        tol = 5 * max(mc, 1e-6) * math.sqrt(2.0 / reps) + 5 * abs(vals.mean()) / math.sqrt(reps)
        assert abs(mc - target) < max(tol, 2e-3), kind


def test_stratified_below_multinomial(rng):
    for _ in range(20):
        prof = random_profile(rng)
        fv = rng.uniform(-2.0, 2.0, prof.size)
        assert (conditional_variance_exact(prof, fv)
                <= multinomial_conditional_variance(prof, fv) + 1e-10)
