import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from smclab.resampling import SCHEMES, ancestors, kahan_cumsum
from smclab.variance import SNAP_TOL

from conftest import (
    ancestors_merge_walk,
    assert_same_csr,
    conditional_mean,
    max_row_nnz,
    random_profile,
    rowwise_ancestors,
    selection_coefficients_loop,
    systematic_variance_by_intervals,
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
    # the running sums are one 1-d array shared by every point
    with pytest.raises(InvalidArgument, match="1-d"):
        ancestors(np.stack([prof.cum, prof.cum]), np.array([[0.5, 1.5], [0.5, 1.5]]))


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


# Rows of the edge shapes, pinned as examples: hypothesis also draws the
# literals it collects from the source, so its own examples can move with
# unrelated edits.  TAIL_ROW's plain running sums end an ulp above M = 4
# before the clamp.
TAIL_ROW = np.array([2.085174948368608, 1.7414292344971325, 0.9088585404912006, 1e-300])
DOMINANT_ROW = np.array([1.0, 1.0, 1e3, 1.0, 1.0])
EQUAL_ROW = np.ones(5)


def test_tail_row_passes_m_before_the_clamp():
    m = len(TAIL_ROW)
    assert np.cumsum(m * TAIL_ROW / TAIL_ROW.sum())[-2] > m


@settings(max_examples=300, deadline=None)
@given(g=st.integers(1, 60).flatmap(potentials))
@example(g=TAIL_ROW)
@example(g=DOMINANT_ROW)
@example(g=EQUAL_ROW)
def test_profile_running_sums_non_decreasing(g):
    """Rounding before a tail of tiny weights may not lift a sum above the
    pinned S_M = M; mu, derived from the snapped fractional parts, equals
    the rule on the sums themselves (an offset more where S_i lies within
    SNAP_TOL below an integer) and ends at u_M = 0, mu_M = M + 1.  The
    engine's plain running sums never decrease either."""
    prof = weight_profile(g)
    m = len(g)
    for cum in (prof.cum, running_weights(g[None, :])[0]):
        assert np.all(np.diff(cum) >= 0.0)
        assert cum[-1] == m
    fl = np.floor(prof.cum)
    mu = np.ones(m + 1, dtype=np.int64)
    mu[1:] = np.where(prof.cum - fl > 1.0 - SNAP_TOL, fl + 2.0, fl + 1.0)
    mu[m] = m + 1
    assert np.array_equal(prof.mu, mu)
    assert prof.u[m] == 0.0 and prof.mu[m] == m + 1


def rounded_prefix_sums(w):
    """The exact running sums of w (each double is an exact fraction), each
    rounded once to the nearest double."""
    total = Fraction(0)
    out = np.empty(len(w))
    for i, x in enumerate(w.tolist()):
        total += Fraction(x)
        out[i] = float(total)
    return out


def running_sum_population(shape, m, seed=1):
    """Potentials of M particles at i.i.d. uniform positions: g = e^x
    (section7), g = e^(6.9x) (weight ratio about 1e3) in i.i.d. or sorted
    order, or e^x ending in three weights of 1e-300."""
    x = np.random.default_rng(seed).random(m)
    if shape == "section7":
        return np.exp(x)
    if shape == "ratio-1e3":
        return np.exp(6.9 * x)
    if shape == "sorted":
        return np.sort(np.exp(6.9 * x))
    g = np.exp(x)
    g[-3:] = 1e-300
    return g


@pytest.mark.parametrize("shape, m", [("section7", 2000), ("ratio-1e3", 2000), ("sorted", 2000),
                                      ("tail", 2000), ("ratio-1e3", 100_000)])
def test_running_sums_are_correctly_rounded(shape, m):
    """The compensated running sums equal the exact prefix sums rounded once
    at every index (a Kahan loop misses by one spacing at 6 to 17 indices of
    these populations at M = 2000).  The profile's sums stay within one
    spacing of them wherever the clamp to M and the pin of S_M leave them."""
    prof = weight_profile(running_sum_population(shape, m))
    exact = rounded_prefix_sums(prof.w)
    assert np.array_equal(kahan_cumsum(prof.w), exact)
    free = exact[:-1] <= m
    assert np.all(np.abs(prof.cum[:-1] - exact[:-1])[free] <= np.spacing(exact[:-1][free]))


def assert_guided_search_is_left_search(cum, rng):
    """The frozen-profile ``ancestors`` equals a left binary search on
    unsorted uniform points, stratified points, every running sum and both
    its float neighbours, and the integers 0..M."""
    m = len(cum)
    for points in (
        m * rng.random(4 * m),
        np.arange(1, m + 1) - rng.random(m),
        cum,
        np.nextafter(cum, -np.inf),
        np.nextafter(cum, np.inf),
        np.arange(m + 1.0),
    ):
        points = np.clip(points, 0.0, m)
        assert np.array_equal(ancestors(cum, points), np.searchsorted(cum, points, side="left"))


@settings(max_examples=300, deadline=None)
@given(g=st.integers(1, 60).flatmap(potentials), seed=st.integers(0, 2**32 - 1))
def test_guided_search_matches_left_search(g, seed):
    assert_guided_search_is_left_search(weight_profile(g).cum, np.random.default_rng(seed))


@pytest.mark.parametrize("order", ["iid", "sorted"])
def test_guided_search_matches_left_search_on_wide_buckets(rng, order):
    """Weight ratio 1e3 at M = 1e5.  Sorted by position, the smallest
    weights come first and a unit bucket holds over 100 running sums."""
    x = rng.random(100_000)
    cum = weight_profile(np.exp(6.9 * (np.sort(x) if order == "sorted" else x))).cum
    width = np.diff(np.searchsorted(cum, np.arange(100_002.0))).max()
    assert width > (100 if order == "sorted" else 1)
    assert_guided_search_is_left_search(cum, rng)


@st.composite
def potential_rows(draw):
    m = draw(st.integers(1, 24))
    return np.stack([draw(potentials(m)) for _ in range(draw(st.integers(1, 4)))])


def assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(g=potential_rows(), seed=st.integers(0, 2**32 - 1),
       on_sums=st.lists(st.integers(0, 23), max_size=4))
@example(g=TAIL_ROW[None, :], seed=0, on_sums=[2, 3])
@example(g=np.stack([DOMINANT_ROW, EQUAL_ROW]), seed=1, on_sums=[2])
def test_batched_select_matches_row_search_and_oracle(g, seed, on_sums):
    """The engine's counting selection of the particle indices equals, bit
    for bit, each row's 1-d search and merge walk on the same strata, and
    draws exactly one (rows, M) block of uniforms.  The row-wise left search
    that serves as the oracle equals both on points exactly on a running
    sum too."""
    rows, m = g.shape
    cum = running_weights(g)
    rng, replay = stream_rng(seed, 0, 0), stream_rng(seed, 0, 0)
    got = batched_select(np.tile(np.arange(m), (rows, 1)), g, rng)
    strata = np.arange(1, m + 1) - replay.random((rows, m))
    assert repr(rng.bit_generator.state) == repr(replay.bit_generator.state)
    assert_same_array(got, rowwise_ancestors(cum, strata))
    on_sum = cum[:, [i % m for i in on_sums]]
    points = np.sort(np.concatenate([strata, on_sum], axis=1), axis=1)
    oracle = rowwise_ancestors(cum, points)
    for r in range(rows):
        assert_same_array(got[r], ancestors(cum[r], strata[r]))
        assert_same_array(got[r], ancestors_merge_walk(cum[r], strata[r]))
        assert np.array_equal(oracle[r], ancestors(cum[r], points[r]))
        assert np.array_equal(oracle[r], ancestors_merge_walk(cum[r], points[r]))


class FixedUniforms:
    """A generator stub whose ``random(shape)`` returns a fixed array."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


BELOW_ONE = 1.0 - 2.0**-53
ON_SUMS_ROW = np.array([0.6, 0.9, 0.45, 2.2, 0.35, 1.5])


def uniforms_on_sums(g):
    """U_m = m - S_i for the last running sum S_i in each stratum m =
    ceil(S_i) it falls in, 0.5 elsewhere.  Both m - S_i and m - U_m are
    exact (Sterbenz), so the point of stratum m lands on S_i."""
    cum = running_weights(g[None, :])[0]
    u = np.full(len(g), 0.5)
    for s in cum[:-1]:
        if s != math.floor(s):
            u[math.ceil(s) - 1] = math.ceil(s) - s
    return u


@pytest.mark.parametrize("g, u, expected", [
    # U = 0: every point on an integer; with equal weights on a running sum
    (np.ones((2, 5)), np.zeros((2, 5)), [[0, 1, 2, 3, 4]] * 2),
    (DOMINANT_ROW[None, :], np.zeros((1, 5)), [[2, 2, 2, 2, 4]]),
    # U = 1 - 2^-53: the point of every stratum m >= 2 rounds to m - 1
    (np.ones((1, 5)), np.full((1, 5), BELOW_ONE), [[0, 0, 1, 2, 3]]),
    # the points of strata 1, 2, 5 land on S_1, S_3, S_5
    (ON_SUMS_ROW[None, :], uniforms_on_sums(ON_SUMS_ROW)[None, :], [[0, 2, 3, 3, 4, 5]]),
    # the sums before the 1e-300 weight are clamped to M = 4
    (TAIL_ROW[None, :], np.zeros((1, 4)), [[0, 1, 1, 2]]),
    (np.stack([TAIL_ROW] * 2), np.array([[0.5] * 4, [BELOW_ONE] * 4]), [[0, 0, 1, 2], [0, 0, 1, 1]]),
    # 1e-300 weights leave repeated running sums and take no stratum
    (np.array([[1.0, 1e-300, 1e-300, 1.0]]), np.zeros((1, 4)), [[0, 0, 3, 3]]),
    (np.array([[1.0, 1e-300, 1e-300, 1.0]]), np.full((1, 4), BELOW_ONE), [[0, 0, 0, 3]]),
    # M = 1
    (np.array([[2.0], [1e-300]]), np.array([[0.0], [BELOW_ONE]]), [[0], [0]]),
])
def test_batched_select_edges(g, u, expected):
    """Points on integers, an ulp below them and exactly on running sums,
    a tail clamped to M, 1e-300 weights and M = 1: the counting selection
    equals the hand-derived ancestors and the row-wise left search."""
    rows, m = g.shape
    strata = np.arange(1, m + 1) - u
    cum = running_weights(g)
    expected = np.array(expected)
    assert np.array_equal(rowwise_ancestors(cum, strata), expected)
    got = batched_select(np.tile(np.arange(m), (rows, 1)), g, FixedUniforms(u))
    assert_same_array(got, expected)


def test_batched_select_edge_points_are_as_described():
    """The edge cases above hit what they name: the U = 1 - 2^-53 points
    round to m - 1, the on-sum points equal their running sums, and the
    tail row's sums reach M before its last particle."""
    assert np.array_equal(np.arange(1, 6) - BELOW_ONE, [2.0**-53, 1, 2, 3, 4])
    cum = running_weights(ON_SUMS_ROW[None, :])[0]
    points = np.arange(1, 7) - uniforms_on_sums(ON_SUMS_ROW)
    assert [points[k] == cum[i] for k, i in ((0, 0), (1, 2), (4, 4))] == [True] * 3
    assert running_weights(TAIL_ROW[None, :])[0, -2] == 4.0


@pytest.mark.parametrize("rows, m", [(51, 10_000), (256, 2000)])
def test_batched_select_memory_peak(rows, m):
    """One selection allocates at most four times the population: the
    running sums, the strata, the int32 counts and the gathered comparison
    points (3.63 times), where differencing into fresh arrays while the
    sums and strata are alive reaches 6."""
    x = stream_rng(1, 0, 1).random((rows, m))
    g = np.exp(x)
    rng = stream_rng(1, 0, 0)
    batched_select(x, g, rng)
    tracemalloc.start()
    try:
        batched_select(x, g, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * x.nbytes, peak / x.nbytes


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
    """The engine's counting selection samples the law the library proves:
    on shared uniforms both select the same ancestors."""
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
    """Equal weights, and so a single particle, select without noise; the
    systematic variance then has no break and is exactly 0 too."""
    for g in (np.full(8, 1.0), np.full(5, 3.7), [2.5]):
        prof = weight_profile(g)
        fv = rng.uniform(-3.0, 3.0, prof.size)
        assert conditional_variance_exact(prof, fv) == 0.0
        assert conditional_variance_oracle(selection_coefficients(prof), fv) == 0.0
        assert systematic_conditional_variance(prof, fv) == 0.0


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


def test_systematic_variance_against_intervals(rng, model):
    """The sort-and-cumsum route against the interval-by-interval route,
    which searches each interval's ancestors at its midpoint and sums in
    exact rationals: on g uniform on [1, e], on geomspace(1, 1e3) permuted
    (ratio 1e3), on the lattice g in {0.5, 1, 2} (many tied fractional
    parts, hence tied breaks) and on one section7 population."""
    profiles = [random_profile(rng, 4, 50) for _ in range(30)]
    profiles += [weight_profile(rng.permutation(np.geomspace(1.0, 1e3, m)))
                 for m in (10, 30, 100)]
    profiles += [weight_profile(rng.choice([0.5, 1.0, 2.0], int(rng.integers(4, 60))))
                 for _ in range(30)]
    cases = [(prof, rng.uniform(-2.0, 2.0, prof.size)) for prof in profiles]
    x = model.sample_positions((2000,), np.random.default_rng([1, 2]))
    cases.append((weight_profile(model.potential(0)(x)), model.f(x)))
    for prof, fv in cases:
        target = systematic_variance_by_intervals(prof, fv)
        assert abs(systematic_conditional_variance(prof, fv) - target) <= 1e-12 * target, prof.size


PROFILE_VARIANCES = {
    "exact": conditional_variance_exact,
    "oracle": lambda prof, fv: conditional_variance_oracle(selection_coefficients(prof), fv),
    "multinomial": multinomial_conditional_variance,
    "residual": residual_conditional_variance,
    "systematic": systematic_conditional_variance,
}


@pytest.mark.parametrize("c", [1e3, 1e6])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_profile_variances_ignore_a_large_mean_of_f(model, seed, c):
    """A constant added to f leaves every conditional variance unchanged.
    With f + c rounded to fs, the reference is the same routine on fs - c,
    which the float subtraction gives exactly and which has no large mean
    to cancel."""
    x = model.sample_positions((2000,), np.random.default_rng([1, seed]))
    prof = weight_profile(model.potential(0)(x))
    fs = model.f(x) + c
    for name, variance in PROFILE_VARIANCES.items():
        ref = variance(prof, fs - c)
        assert variance(prof, fs) == pytest.approx(ref, rel=1e-12), name


@pytest.mark.parametrize("length", [2, 4])
@pytest.mark.parametrize("name", sorted(PROFILE_VARIANCES))
def test_profile_variances_reject_f_of_the_wrong_length(name, length):
    prof = weight_profile([1.0, 2.0, 3.0])
    with pytest.raises(InvalidArgument):
        PROFILE_VARIANCES[name](prof, np.arange(1.0, length + 1.0))


def test_stratified_below_multinomial(rng):
    for _ in range(20):
        prof = random_profile(rng)
        fv = rng.uniform(-2.0, 2.0, prof.size)
        assert (conditional_variance_exact(prof, fv)
                <= multinomial_conditional_variance(prof, fv) + 1e-10)
