import dataclasses
import importlib.util
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from smclab import (
    InvalidArgument,
    InvalidModel,
    PotentialSpec,
    build_model,
    run_filter,
    section7_constants,
    section7_pf1,
    uniform_shift_kernel,
    weighted_reference_mean,
)

from smclab.variance import _reference_g_mean

from conftest import section7_pf1_sq

E = math.e


def test_sample_initial_support_and_errors(model, rng):
    x = model.sample_positions((3,), rng)
    assert x.shape == (3,)
    assert np.all((x >= 0.0) & (x < 1.0))
    assert np.allclose(model.potential(0)(x), np.exp(x))
    with pytest.raises(InvalidArgument):
        run_filter(model, 0, 0, seed=0)


def test_sample_initial_clt_bands(model, rng):
    m = 100_000
    x = model.sample_positions((m,), rng)
    # mean position: sd = 1/sqrt(12M)
    assert abs(x.mean() - 0.5) < 0.01
    # mean potential: eta(g0) = e - 1, 4-sigma band
    sd_g = math.sqrt((E**2 - 1) / 2 - (E - 1) ** 2)
    assert abs(model.potential(0)(x).mean() - (E - 1)) < 4 * sd_g / math.sqrt(m)
    # mean of f * g0 = e^{2x}
    fg = np.exp(2 * x)
    sd_fg = math.sqrt((E**4 - 1) / 4 - ((E**2 - 1) / 2) ** 2)
    assert abs(fg.mean() - (E**2 - 1) / 2) < 4 * sd_fg / math.sqrt(m)


def test_mutate_support_and_mean(model, rng):
    frozen = model.sample_positions((10,), rng)
    moved = model.kernel(1).sample(frozen, rng)
    assert np.all(moved >= frozen) and np.all(moved <= frozen + 1.0)
    # all particles at 0: mutated mean ~ 0.5
    moved = model.kernel(1).sample(np.zeros(100_000), rng)
    assert abs(moved.mean() - 0.5) < 0.01


def test_kernel_integrate_matches_monte_carlo(rng):
    """Sampled kernel moves average to the closed form (P exp)(x) = e^x (e - 1)."""
    k = uniform_shift_kernel(0.0, 1.0)
    x = 0.3
    exact = math.exp(x) * (E - 1)
    draws = np.exp(k.sample(np.full(100_000, x), rng))
    se = draws.std() / math.sqrt(len(draws))
    assert abs(exact - draws.mean()) < 5 * se


def test_potential_bounds_hold_on_samples(model, rng):
    x = model.sample_positions((50_000,), rng)
    spec0 = model.potential(0)
    assert spec0(x).min() >= spec0.lower
    assert spec0(x).max() <= spec0.upper
    moved = model.kernel(1).sample(x, rng)
    spec1 = model.potential(1)
    assert spec1.ratio() == pytest.approx(E**2, rel=1e-12)
    assert spec1(moved).min() >= spec1.lower
    assert spec1(moved).max() <= spec1.upper


def test_reference_constants_exact_values():
    c0 = section7_constants(0)
    assert c0["g_mean"] == pytest.approx(E - 1, rel=1e-15)
    assert c0["gf_mean"] == pytest.approx((E**2 - 1) / 2, rel=1e-15)
    c1 = section7_constants(1)
    assert c1["g_mean"] == pytest.approx((E**2 - 1) / 2, rel=1e-15)
    assert c1["gf_mean"] == pytest.approx((E**3 - 1) * (E + 1) / 6, rel=1e-15)
    assert section7_constants(2)["g_mean"] == pytest.approx((E**3 - 1) / 3, rel=1e-15)
    with pytest.raises(NotImplementedError):
        section7_constants(3)


def test_sigma1_constant_against_quadrature_oracle():
    # independent oracle: integrate the centered weighted test function
    c0 = section7_constants(0)

    def integrand(x):
        gt = math.exp(x) / c0["g_mean"]
        return (gt * (math.exp(x) - c0["selected_f_mean"])) ** 2

    oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert c0["sigma1_sq"] == pytest.approx(oracle, abs=1e-10)
    assert c0["sigma1_sq"] == pytest.approx(0.2662, abs=5e-5)


def test_mutation_variance_constant_against_quadrature_oracle():
    c1 = section7_constants(1)

    def integrand(x):
        return math.exp(x) * (section7_pf1_sq(x) - section7_pf1(x) ** 2)

    oracle, _ = quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11)
    assert c1["mutation_variance"] == pytest.approx(oracle, rel=1e-9)


def test_pf1_closed_forms_against_quadrature():
    c1 = section7_constants(1)

    def f1(y):
        return np.exp(y) * (c1["g_mean"] * np.exp(y) - c1["gf_mean"])

    for x0 in (0.0, 0.37, 0.9):
        num1, _ = quad(f1, x0, x0 + 1.0)
        num2, _ = quad(lambda y: f1(y) ** 2, x0, x0 + 1.0)
        assert section7_pf1(x0) == pytest.approx(num1, rel=1e-10)
        assert section7_pf1_sq(x0) == pytest.approx(num2, rel=1e-10)


def test_weighted_reference_mean_matches_constants(model):
    for step in (0, 1, 2):
        got = weighted_reference_mean(model, step, np.exp)
        assert got == pytest.approx(section7_constants(step)["g_mean"], rel=1e-10)
    # selected-population limit of f at step 1: gf/g at step 0
    got = weighted_reference_mean(model, 1, np.exp)
    assert got == pytest.approx((E**2 - 1) / 2, rel=1e-10)


def test_custom_model_bounds_and_validation():
    spec = {
        "name": "affine",
        "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
        "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
        "g": {"form": "poly", "coeffs": [1.0, 0.5]},
        "f": {"form": "poly", "coeffs": [0.0, 1.0]},
    }
    m = build_model(spec)
    p1 = m.potential(1)
    assert (p1.lower, p1.upper) == (1.0, 2.0)  # g on the step-1 support [0, 2]

    bad = dict(spec, g={"form": "poly", "coeffs": [0.5, -1.0]})  # hits zero on the support
    m_bad = build_model(bad)
    with pytest.raises(InvalidModel):
        m_bad.potential(0)
    with pytest.raises(InvalidModel):
        build_model(dict(spec, g={"form": "sine"}))
    with pytest.raises(InvalidModel):
        build_model(dict(spec, initial={"law": "normal"}))
    # bounds past the largest double are an error, not an OverflowError
    steep = build_model(dict(spec, g={"form": "exp", "rate": 800.0}, f={"form": "exp", "rate": 800.0}))
    with pytest.raises(InvalidModel, match="overflows"):
        steep.potential(0)
    with pytest.raises(InvalidModel, match="overflows"):
        steep.f_bound(0)
    # the exp form is a * exp(b * x) bit for bit
    x = np.linspace(-1.0, 3.0, 101)
    sloped = build_model({"g": {"form": "exp", "scale": 0.5, "rate": 1.5}})
    assert sloped.potential(0).fn(x).tobytes() == (0.5 * np.exp(1.5 * x)).tobytes()


@pytest.mark.parametrize("table", [
    {"initial": {"law": "uniform", "lo": True}},
    {"initial": {"law": "uniform", "hi": math.inf}},
    {"initial": {"law": "uniform", "hi": 10**400}},  # a JSON integer past the largest double
    {"kernel": {"kind": "uniform_shift", "lo": math.nan}},
    {"kernel": {"kind": "uniform_shift", "hi": False}},
    {"g": {"form": "exp", "scale": math.nan}},
    {"g": {"form": "exp", "rate": True}},
    {"f": {"form": "exp", "rate": -math.inf}},
    {"f": {"form": "poly", "coeffs": [0.0, math.nan]}},
    {"g": {"form": "poly", "coeffs": [True]}},
])
def test_model_tables_reject_bools_and_non_finite_numbers(table):
    with pytest.raises(InvalidModel, match="finite number"):
        build_model(table)


def test_model_tables_reject_overflowing_widths_and_ratios():
    """A support or kernel wider than the largest double, a bound ratio
    upper / lower past it, and a reference mean that overflows are errors."""
    with pytest.raises(InvalidModel, match="finite width"):
        build_model({"initial": {"law": "uniform", "lo": -1e308, "hi": 1e308}})
    with pytest.raises(InvalidModel, match="finite width"):
        uniform_shift_kernel(-1e308, 1e308)
    with pytest.raises(InvalidModel, match="ratio"):
        PotentialSpec(fn=np.exp, lower=1e-316, upper=1e292)
    # step-1 bounds about 1e-316 and 1e292 on the support [-1, 1 + 1e-8]
    tiny = build_model({"kernel": {"kind": "uniform_shift", "lo": -1, "hi": 1e-8},
                        "g": {"form": "exp", "scale": 1e-12, "rate": -700}})
    tiny.potential(0)
    with pytest.raises(InvalidModel, match="ratio"):
        tiny.potential(1)
    # g_0 g_1 g_2 reaches 1e363: the step-2 reference mean is not a number
    heavy = build_model({"g": {"form": "exp", "scale": 1e121}})
    with pytest.raises(InvalidModel, match="overflows"):
        weighted_reference_mean(heavy, 2, heavy.potential(2).fn)
    # g_0 g_1 g_2 reaches 1e-375: the step-2 g-mean would be 0
    light = {"g": {"form": "exp", "scale": 1e-125}}
    with pytest.raises(InvalidModel, match="underflows"):
        _reference_g_mean(light, 2)


def test_section7_is_the_table_row_bit_for_bit():
    """The built-in row gives exactly the hand-written model it replaced:
    g_n = f = np.exp, bounds [1, e^(n+1)], positions = rng.random(shape)."""
    model = build_model("section7")
    # the reference is the model's only identity; the initial law is uniform
    assert not {"spec", "initial_density"} & {f.name for f in dataclasses.fields(model)}
    x = np.random.default_rng(7).random((40, 500)) * 4.0
    for fn in (model.potential(0).fn, model.potential(3).fn, model.f):
        assert fn(x).tobytes() == np.exp(x).tobytes()
        assert fn(x[0, 0]) == np.exp(x[0, 0])  # scalar and 0-d inputs keep working
        assert fn(np.asarray(0.3)).shape == ()
    for n in range(4):
        pot = model.potential(n)
        assert (pot.lower, pot.upper) == (1.0, math.exp(n + 1))
        assert model.f_bound(n) == math.exp(n + 1)
        assert model.kernel(n + 1).shift_bounds == (0.0, 1.0)
    for shape in ((3, 4), (7,), ()):
        got = model.sample_positions(shape, np.random.default_rng(11))
        assert np.asarray(got).tobytes() == np.random.default_rng(11).random(shape).tobytes()
    assert model.initial_support == (0.0, 1.0)


def test_model_tables_reject_unknown_keys():
    """A misspelled key is an error at every level, not a silent default."""
    for bad in (
        {"g": {"form": "exp", "rat": 3.0}},
        {"g": {"form": "poly", "coeffs": [1.0], "rate": 2.0}},
        {"potential": {"form": "exp"}},
        {"initial": {"law": "uniform", "low": 0.0}},
        {"kernel": {"kind": "uniform_shift", "hi": 1.0, "width": 1.0}},
        {"f": "exp"},
        {"initial": {"law": "uniform", "lo": "zero"}},
        {"g": {"form": "poly", "coeffs": 5}},
    ):
        with pytest.raises(InvalidModel):
            build_model(bad)
    with pytest.raises(InvalidModel):
        build_model("section8")
    # the README example and the benchmark's weight-ratio-1e3 table still build
    readme = {"name": "custom",
              "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
              "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
              "g": {"form": "exp", "scale": 1.0, "rate": 1.0},
              "f": {"form": "poly", "coeffs": [0.0, 1.0]}}
    assert build_model(readme).f(2.0) == 2.0
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ratio = build_model(workloads.RATIO_1E3_MODEL).potential(0).ratio()
    assert ratio == pytest.approx(math.exp(6.9), rel=1e-12)
