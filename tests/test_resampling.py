import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from smclab import (
    InvalidArgument,
    InvalidModel,
    conditional_variance_exact,
    conditional_variance_oracle,
    multinomial_conditional_variance,
    resample,
    residual_conditional_variance,
    selection_coefficients,
    systematic_conditional_variance,
    weight_profile,
)
from smclab._engine import batched_select, running_weights, stream_rng
from smclab._numerics import SNAP_TOL
from smclab.resampling import SCHEMES, ancestors

from conftest import (
    ancestors_merge_walk,
    assert_same_csr,
    conditional_mean,
    max_row_nnz,
    random_profile,
    selection_coefficients_loop,
)

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
    # finite values with some g_i > DBL_MAX / M are scaled by the largest first
    assert weight_profile([1e308, 1e307]).w == pytest.approx([2.0 / 1.1, 0.2 / 1.1], rel=1e-15)
    assert weight_profile([1e308, 1e308, 1.0]).w.tolist() == [1.5, 1.5, 1.5e-308]


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
        assert np.array_equal(resample("stratified", prof, rng), np.arange(7))


def test_stratified_two_particle_strata():
    prof = weight_profile([3.0, 1.0])
    # stratum 1 always picks particle 0; stratum 2 picks 0 iff 2 - U > 1.5
    assert ancestors(prof.cum, np.array([1 - 0.99, 1 - 0.01])).tolist() == [0, 0]
    assert ancestors(prof.cum, np.array([2 - 0.6])).tolist() == [0]
    assert ancestors(prof.cum, np.array([2 - 0.4])).tolist() == [1]
    # boundary resolved right-closed: query exactly 1.5 belongs to particle 0
    assert ancestors(prof.cum, np.array([1.5])).tolist() == [0]


def test_stratified_ancestors_non_decreasing(rng):
    for _ in range(20):
        prof = random_profile(rng)
        assert np.all(np.diff(resample("stratified", prof, rng)) >= 0)


def test_merge_walk_matches_binary_search(rng):
    for _ in range(20):
        prof = random_profile(rng)
        pts = np.arange(1, prof.size + 1) - rng.random(prof.size)
        assert np.array_equal(ancestors(prof.cum, pts), ancestors_merge_walk(prof.cum, pts))


@st.composite
def potentials(draw, m):
    """Positive potentials of M particles in one of the edge shapes: equal
    weights, one dominant weight (ratio up to 1e3), trailing normalized
    weights below SNAP_TOL, or weights spread over a ratio up to 1e3."""
    shape = draw(st.sampled_from(("equal", "dominant", "tail", "spread")))
    g = np.ones(m)
    if shape == "dominant":
        g[draw(st.integers(0, m - 1))] = draw(st.floats(1.0, 1e3))
    elif shape == "tail":
        g[m - draw(st.integers(1, max(1, m - 1))):] = draw(st.floats(1e-18, SNAP_TOL / 100))
    elif shape == "spread":
        g = np.array(draw(st.lists(st.floats(1.0, 1e3), min_size=m, max_size=m)))
    return g


@st.composite
def potential_rows(draw):
    m = draw(st.integers(1, 24))
    return np.stack([draw(potentials(m)) for _ in range(draw(st.integers(1, 4)))])


@settings(max_examples=200, deadline=None)
@given(g=potential_rows(), seed=st.integers(0, 2**32 - 1),
       on_sums=st.lists(st.integers(0, 23), max_size=4))
def test_rowwise_ancestors_match_row_search_and_oracle(g, seed, on_sums):
    """The (rows, M) search equals the per-row search and the merge walk, on
    stratified points plus points exactly on a running sum."""
    rows, m = g.shape
    cum = running_weights(g)
    strata = np.arange(1, m + 1) - stream_rng(seed, 0, 0).random((rows, m))
    on_sum = cum[:, [i % m for i in on_sums]]
    points = np.sort(np.concatenate([strata, on_sum], axis=1), axis=1)
    got = ancestors(cum, points)
    for r in range(rows):
        assert np.array_equal(got[r], ancestors(cum[r], points[r]))
        assert np.array_equal(got[r], ancestors_merge_walk(cum[r], points[r]))


@settings(max_examples=200, deadline=None)
@given(g=potential_rows(), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       kind=st.sampled_from(SCHEMES))
def test_resample_rows_equal_successive_calls(g, seed, n, kind):
    """rows=n draws exactly what n single calls draw, and leaves the
    generator in the same state."""
    prof = weight_profile(g[0])
    batch_rng, single_rng = stream_rng(seed, 0, 0), stream_rng(seed, 0, 0)
    batch = resample(kind, prof, batch_rng, rows=n)
    singles = np.stack([resample(kind, prof, single_rng) for _ in range(n)])
    assert batch.shape == (n, prof.size)
    assert np.array_equal(batch, singles)
    assert repr(batch_rng.bit_generator.state) == repr(single_rng.bit_generator.state)


@pytest.mark.parametrize("weights, rows, m", [
    ("section7", 64, 2000), ("ratio-1e3", 64, 2000), ("section7", 16, 10_000),
])
def test_engine_selection_matches_library(model, weights, rows, m):
    """The engine's row-wise search samples the law the library proves: on
    shared uniforms both select the same ancestors."""
    x = model.sample_positions((rows, m), stream_rng(3, 0, 1))
    g = model.potential(0)(x) if weights == "section7" else np.exp(6.9 * x)
    got = batched_select(np.tile(np.arange(m), (rows, 1)), g, stream_rng(3, 0, 0))
    # row r of the engine consumes the r-th block of M uniforms of the stream
    lib_rng = stream_rng(3, 0, 0)
    mismatches = sum(
        int(np.count_nonzero(got[r] != resample("stratified", weight_profile(g[r]), lib_rng)))
        for r in range(rows)
    )
    assert mismatches == 0


def test_stratified_unbiasedness(rng):
    prof = weight_profile(rng.uniform(1.0, E, 30))
    reps = 40_000
    anc = resample("stratified", prof, rng, rows=reps)
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
        assert sorted(resample(kind, prof, rng).tolist()) == list(range(6))


def test_multinomial_slot_probabilities(rng):
    prof = weight_profile([3.0, 1.0])
    reps = 30_000
    hits = (resample("multinomial", prof, rng, rows=reps) == 0).sum()
    p_hat = hits / (2 * reps)
    se = math.sqrt(0.75 * 0.25 / (2 * reps))
    assert abs(p_hat - 0.75) < 5 * se


def test_residual_guarantees_and_degenerate(rng):
    prof = weight_profile([3.0, 1.0])
    for _ in range(20):
        anc = resample("residual", prof, rng)
        assert (anc == 0).sum() >= 1
    degenerate = weight_profile(np.full(5, 2.0))
    anc = resample("residual", degenerate, rng)
    assert sorted(anc.tolist()) == list(range(5))


def test_unknown_kind_rejected(rng):
    with pytest.raises(InvalidArgument):
        resample("bogus", weight_profile([1.0, 1.0]), rng)


def test_unbiasedness_all_schemes(rng):
    """Monte Carlo mean of (1/M) sum f(Y) matches the weighted mean."""
    g = rng.uniform(1.0, E, 25)
    fv = rng.uniform(-1.0, 2.0, 25)
    prof = weight_profile(g)
    target = conditional_mean(prof, fv)
    reps = 10_000
    for kind in ("stratified", "multinomial", "residual", "systematic"):
        vals = fv[resample(kind, prof, rng, rows=reps)].mean(axis=1)
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
        assert max_row_nnz(coeffs) <= math.ceil(1.0 + prof.w.max()) + 1
        # q_{m,i} is the length of stratum (m-1, m] inside (S_{i-1}, S_i]
        s = np.concatenate([[0.0], prof.cum])
        strata = np.arange(1, prof.size + 1)[:, None]
        overlap = np.maximum(0.0, np.minimum(s[1:], strata) - np.maximum(s[:-1], strata - 1))
        assert np.max(np.abs(coeffs.matrix.toarray() - overlap)) <= 1e-12
        assert_same_csr(coeffs.matrix, selection_coefficients_loop(prof))


@pytest.mark.parametrize("g", [[1.0, 1.0, 1e-15], [5.0, 1e-14]])
def test_coefficients_tail_snapped_to_m(g):
    """S_{M-1} within SNAP_TOL of M puts the last particle's single stratum
    above M; its mass is below SNAP_TOL and is dropped."""
    prof = weight_profile(g)
    assert prof.mu[-2] == prof.size + 1
    coeffs = selection_coefficients(prof)
    assert_same_csr(coeffs.matrix, selection_coefficients_loop(prof))
    fv = np.arange(prof.size, dtype=float)
    assert conditional_variance_oracle(coeffs, fv) == pytest.approx(
        conditional_variance_exact(prof, fv), abs=1e-12)
    assert np.max(np.abs(coeffs.row_sums() - 1.0)) < 1e-12
    assert np.max(np.abs(coeffs.col_sums() - prof.w)) < 1e-12


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


@settings(max_examples=300, deadline=None)
@given(g=st.integers(1, 40).flatmap(potentials), seed=st.integers(0, 2**32 - 1))
def test_exact_equals_oracle_at_the_window_stops(g, seed):
    """exact = oracle wherever the window walk stops: no window at all
    (M = 1), a stop at k = 2 (equal weights), a long walk (one dominant
    weight) and a tail snapped to M."""
    prof = weight_profile(g)
    fv = np.random.default_rng(seed).uniform(-2.0, 2.0, prof.size)
    assert conditional_variance_exact(prof, fv) == pytest.approx(
        conditional_variance_oracle(selection_coefficients(prof), fv), abs=1e-12)


def test_conditional_variance_against_monte_carlo(rng):
    m = 40
    prof = weight_profile(rng.uniform(1.0, E, m))
    fv = rng.uniform(-1.0, 1.0, m)
    exact = conditional_variance_exact(prof, fv)
    reps = 100_000
    sums = fv[resample("stratified", prof, rng, rows=reps)].sum(axis=1) / math.sqrt(m)
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
        vals = fv[resample(kind, prof, rng, rows=reps)].sum(axis=1) / math.sqrt(m)
        mc = vals.var()
        tol = 5 * max(mc, 1e-6) * math.sqrt(2.0 / reps) + 5 * abs(vals.mean()) / math.sqrt(reps)
        assert abs(mc - target) < max(tol, 2e-3), kind


def test_systematic_variance_against_u_grid(rng):
    """Exact systematic variance against brute force over a grid of U.

    S(U) = sum_m f(X_anc(m - U)) / sqrt(M) is piecewise constant in U: it
    jumps only where a stratum point m - U crosses a running sum, and each
    S_i is crossed once, moving one ancestor by one index.  So its total
    variation is TV <= sum_i |f_{i+1} - f_i| / sqrt(M).  The midpoint rule
    on N cells errs on a piecewise-constant h by at most TV(h) / N, since a
    jump misplaces at most its own cell.  With T = S - S(u_0), |T| <= TV and
    Var = E[T^2] - E[T]^2 errs by at most TV(T^2)/N + 2 max|T| TV(T)/N
    <= 4 TV^2 / N.  Snapping a fractional part within SNAP_TOL of an
    integer moves a breakpoint by at most SNAP_TOL: 4 TV^2 SNAP_TOL more.
    """
    n = 2**16
    grid = (np.arange(n) + 0.5) / n
    profiles = [random_profile(rng, 4, 30) for _ in range(20)]
    profiles.append(weight_profile(rng.permutation(np.geomspace(1.0, 1e3, 30))))
    for prof in profiles:
        m = prof.size
        fv = rng.uniform(-2.0, 2.0, m)
        strata = np.arange(1, m + 1, dtype=float)
        s = fv[ancestors(prof.cum, strata[None, :] - grid[:, None])].sum(axis=1) / math.sqrt(m)
        tv = np.abs(np.diff(fv)).sum() / math.sqrt(m)
        tol = 4.0 * tv**2 * (1.0 / n + SNAP_TOL) + 1e-12
        assert abs(s.var() - systematic_conditional_variance(prof, fv)) <= tol, m


def test_stratified_below_multinomial(rng):
    for _ in range(20):
        prof = random_profile(rng)
        fv = rng.uniform(-2.0, 2.0, prof.size)
        assert (conditional_variance_exact(prof, fv)
                <= multinomial_conditional_variance(prof, fv) + 1e-10)
