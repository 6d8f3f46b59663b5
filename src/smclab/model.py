"""Model definitions: initial laws, potential functions, mutation kernels.

A model bundles everything the resampling and variance machinery consumes:
an initial law eta on the real line with a density, positive potential
functions g_n with declared finite bounds on the reachable support at each
step, uniform shift mutation kernels P_n, and a bounded test function f.

The built-in ``section7`` model is the canonical benchmark used by the
experiment harness: d = 1, eta = Uniform(0, 1), P(x, .) = Uniform[x, x + 1]
and g_n(x) = f(x) = exp(x).  At step n its particles live in [0, n + 1], so
the potential bounds there are [1, e^(n+1)].  All of its moment constants
have closed forms (see :func:`section7_constants`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import gauss_legendre
from .errors import InvalidModel

E = math.e

#: absolute slack allowed when asserting declared potential / test-function bounds
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class PotentialSpec:
    """Positive weight function with declared finite bounds on its support.

    ``lower <= fn(x) <= upper`` must hold for every x in ``support``; this is
    asserted on every evaluation in debug mode (``python`` without ``-O``).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float
    support: tuple[float, float]

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper < math.inf):
            raise InvalidModel(
                f"potential bounds must satisfy 0 < lower <= upper < inf, "
                f"got [{self.lower}, {self.upper}]"
            )

    def __call__(self, x):
        vals = np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        if __debug__:
            assert np.all(vals > 0.0), "potential produced a non-positive value"
            assert np.all(vals >= self.lower - _BOUND_TOL), "potential below declared lower bound"
            assert np.all(vals <= self.upper + _BOUND_TOL), "potential above declared upper bound"
        return vals

    def ratio(self) -> float:
        """upper/lower; always >= 1."""
        return self.upper / self.lower


@dataclass(frozen=True)
class KernelSpec:
    """Uniform shift kernel P(x, .) = Uniform[x + lo, x + hi].

    ``sample(x, rng)`` draws one transition per entry of ``x`` (any shape).
    ``shift_bounds`` = (lo, hi) lets :func:`weighted_reference_mean`
    propagate quadrature nodes through the kernel.
    """

    sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    shift_bounds: tuple[float, float]


def uniform_shift_kernel(lo: float = 0.0, hi: float = 1.0) -> KernelSpec:
    """Kernel P(x, .) = Uniform[x + lo, x + hi]."""
    if not hi > lo:
        raise InvalidModel(f"uniform shift kernel needs hi > lo, got [{lo}, {hi}]")
    width = hi - lo

    def sample(x, rng):
        x = np.asarray(x, dtype=float)
        return x + lo + width * rng.random(x.shape)

    return KernelSpec(sample=sample, shift_bounds=(lo, hi))


@dataclass(frozen=True)
class ModelConfig:
    """Full model: initial law, potentials, kernels and test function.

    Immutable after construction; safe to share across threads.  Random
    state is never stored here, it is always passed in explicitly.
    """

    name: str
    sample_positions: Callable[[tuple, np.random.Generator], np.ndarray]
    initial_density: Callable[[np.ndarray], np.ndarray]
    initial_support: tuple[float, float]
    potential: Callable[[int], PotentialSpec]
    kernel: Callable[[int], KernelSpec]
    f: Callable[[np.ndarray], np.ndarray]
    f_bound: Callable[[int], float]
    spec: object = "custom"  # JSON-able reference used to rebuild the model in workers


# ---------------------------------------------------------------------------
# built-in benchmark model ("section7")
# ---------------------------------------------------------------------------

def section7_model() -> ModelConfig:
    """d = 1, eta = Uniform(0,1), P(x,.) = Uniform[x, x+1], g_n = f = exp.

    The declared potential bounds at step n are taken on the reachable
    support [0, n + 1], i.e. [1, e^(n+1)]; this is what keeps the ratio
    ceil(upper/lower) and hence every correlation window finite.
    """

    def sample_positions(shape, rng):
        return rng.random(shape)

    def potential(n: int) -> PotentialSpec:
        return PotentialSpec(fn=np.exp, lower=1.0, upper=math.exp(n + 1), support=(0.0, n + 1.0))

    def kernel(n: int) -> KernelSpec:
        return uniform_shift_kernel(0.0, 1.0)

    return ModelConfig(
        name="section7",
        sample_positions=sample_positions,
        initial_density=lambda x: np.where((x >= 0.0) & (x <= 1.0), 1.0, 0.0),
        initial_support=(0.0, 1.0),
        potential=potential,
        kernel=kernel,
        f=np.exp,
        f_bound=lambda n: math.exp(n + 1),
        spec="section7",
    )


def section7_constants(step: int) -> dict[str, float]:
    """Closed-form moment constants of the benchmark model.

    Keys (all weighted means are with respect to the filtering weights
    accumulated up to the given step; ``g_mean`` is the weighted mean of the
    step's potential, ``gf_mean`` of potential times test function):

    step 0: ``g_mean`` = e-1, ``gf_mean`` = (e^2-1)/2,
            ``selected_f_mean`` = gf_mean/g_mean (limit of the selected-
            population mean of f), ``centered_second_moment`` = the second
            moment of g_mean*f*g - gf_mean*g under eta, and ``sigma1_sq`` =
            centered_second_moment / g_mean^4 (weighted-mean fluctuation
            variance of f).
    step 1: ``g_mean`` = (e^2-1)/2, ``gf_mean`` = (e^3-1)(e+1)/6,
            ``mutation_variance`` = mean of g_0 * (P f_1^2 - (P f_1)^2)
            under eta, where f_1 = g_1 (g_mean f - gf_mean) is the centered
            step-1 numerator function.
    step 2: ``g_mean`` = (e^3-1)/3.
    """
    if step == 0:
        g_mean = E - 1.0
        gf_mean = (E**2 - 1.0) / 2.0
        second = (
            g_mean**2 * (E**4 - 1.0) / 4.0
            + gf_mean**2 * (E**2 - 1.0) / 2.0
            - 2.0 * g_mean * gf_mean * (E**3 - 1.0) / 3.0
        )
        return {
            "g_mean": g_mean,
            "gf_mean": gf_mean,
            "selected_f_mean": gf_mean / g_mean,
            "centered_second_moment": second,
            "sigma1_sq": second / g_mean**4,
        }
    if step == 1:
        g_mean = (E**2 - 1.0) / 2.0
        gf_mean = (E**3 - 1.0) * (E + 1.0) / 6.0
        mutation_variance = (
            g_mean**2 * ((E**5 - 1.0) / 5.0) * ((E**2 - 1.0) / 2.0)
            + gf_mean**2 * ((E**3 - 1.0) / 3.0) * ((E**2 - 1.0) / 2.0 - (E - 1.0) ** 2)
            - g_mean * gf_mean * ((E**4 - 1.0) / 4.0) * (2.0 / 3.0 * (E**3 - 1.0) - (E**2 - 1.0) * (E - 1.0))
        )
        return {
            "g_mean": g_mean,
            "gf_mean": gf_mean,
            "mutation_variance": mutation_variance,
        }
    if step == 2:
        return {"g_mean": (E**3 - 1.0) / 3.0}
    raise NotImplementedError(f"no closed-form constants for step {step} (supported: 0, 1, 2)")


def section7_pf1(x):
    """Kernel action P f_1 for the benchmark model, in closed form.

    f_1(y) = g_1(y) * (g_mean * f(y) - gf_mean) with the step-1 constants;
    integrating over the Uniform[x, x+1] kernel gives an exponential sum.
    """
    c = section7_constants(1)
    x = np.asarray(x, dtype=float)
    return (
        c["g_mean"] * (np.exp(2.0 * (x + 1.0)) - np.exp(2.0 * x)) / 2.0
        - c["gf_mean"] * (np.exp(x + 1.0) - np.exp(x))
    )


# ---------------------------------------------------------------------------
# weighted reference means by nested quadrature (generic d=1 models)
# ---------------------------------------------------------------------------

def weighted_reference_mean(model: ModelConfig, step: int, h: Callable) -> float:
    """Weighted mean of h at the given step for a d = 1 model with a density.

    Computes  E[h(Z_step) prod_{p<step} g_p(Z_p)] / E[prod_{p<step} g_p(Z_p)]
    where Z is the model's Markov chain started from the initial law.  This
    is the almost-sure limit of the mutated-population mean of h.  Uses
    nested 64-point Gauss-Legendre quadrature of depth ``step``; intended
    for small steps (<= 2 in practice).
    """
    nodes, weights = gauss_legendre(64)
    lo, hi = model.initial_support
    x = lo + (hi - lo) * nodes            # level-0 nodes
    wgt = (hi - lo) * weights * model.initial_density(x)

    num = wgt.copy()
    for p in range(step):
        num = num * model.potential(p)(x)
        # propagate through the kernel: one quadrature level per step
        klo, khi = model.kernel(p + 1).shift_bounds
        x = (x[:, None] + klo + (khi - klo) * nodes[None, :]).ravel()
        num = (num[:, None] * weights[None, :]).ravel()
    den_val = float(np.sum(num))
    num_val = float(np.sum(num * np.asarray(h(x), dtype=float)))
    if den_val <= 0.0:
        raise InvalidModel("weighted reference mean has non-positive denominator")
    return num_val / den_val


# ---------------------------------------------------------------------------
# custom models from a JSON-able expression table
# ---------------------------------------------------------------------------

def _build_form(form: dict) -> tuple[Callable, Callable]:
    """Compile one entry of the expression table.

    Returns (fn, bounds_on) where bounds_on(lo, hi) gives (min, max) of fn
    over the interval [lo, hi].  Supported forms:

    ``{"form": "exp", "scale": a, "rate": b}``  -> a * exp(b * x)
    ``{"form": "poly", "coeffs": [c0, c1, ...]}`` -> c0 + c1 x + ...
    """
    kind = form.get("form")
    if kind == "exp":
        a = float(form.get("scale", 1.0))
        b = float(form.get("rate", 1.0))

        def fn(x):
            return a * np.exp(b * np.asarray(x, dtype=float))

        def bounds_on(lo, hi):
            vals = sorted((a * math.exp(b * lo), a * math.exp(b * hi)))
            return vals[0], vals[1]

        return fn, bounds_on
    if kind == "poly":
        coeffs = [float(c) for c in form.get("coeffs", [])]
        if not coeffs:
            raise InvalidModel("poly form needs at least one coefficient")
        poly = np.polynomial.Polynomial(coeffs)

        def fn(x):
            return poly(np.asarray(x, dtype=float))

        def bounds_on(lo, hi):
            crit = [lo, hi]
            if len(coeffs) > 1:
                for r in poly.deriv().roots():
                    if abs(r.imag) < 1e-12 and lo < r.real < hi:
                        crit.append(float(r.real))
            vals = [float(poly(c)) for c in crit]
            return min(vals), max(vals)

        return fn, bounds_on
    raise InvalidModel(f"unknown expression form {kind!r} (expected 'exp' or 'poly')")


def build_custom_model(spec: dict) -> ModelConfig:
    """Build a d = 1 model from a JSON-able expression table.

    Schema::

        {"name": "custom",
         "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
         "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
         "g": {"form": "exp", "scale": 1.0, "rate": 1.0},
         "f": {"form": "poly", "coeffs": [0.0, 1.0]}}

    The potential must be strictly positive on every reachable support; the
    reachable support at step n is the initial interval shifted by n kernel
    steps.
    """
    init = spec.get("initial", {"law": "uniform", "lo": 0.0, "hi": 1.0})
    if init.get("law") != "uniform":
        raise InvalidModel("only uniform initial laws are supported for custom models")
    a, b = float(init.get("lo", 0.0)), float(init.get("hi", 1.0))
    if not b > a:
        raise InvalidModel("initial law needs hi > lo")
    kern = spec.get("kernel", {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0})
    if kern.get("kind") != "uniform_shift":
        raise InvalidModel("only uniform_shift kernels are supported for custom models")
    klo, khi = float(kern.get("lo", 0.0)), float(kern.get("hi", 1.0))

    g_fn, g_bounds = _build_form(spec.get("g", {"form": "exp"}))
    f_fn, f_bounds = _build_form(spec.get("f", {"form": "exp"}))

    def support_at(n: int) -> tuple[float, float]:
        return (a + n * klo, b + n * khi)

    def potential(n: int) -> PotentialSpec:
        lo, hi = support_at(n)
        gmin, gmax = g_bounds(lo, hi)
        if gmin <= 0.0:
            raise InvalidModel(f"potential is not strictly positive on step-{n} support [{lo}, {hi}]")
        return PotentialSpec(fn=g_fn, lower=gmin, upper=gmax, support=(lo, hi))

    def kernel(n: int) -> KernelSpec:
        return uniform_shift_kernel(klo, khi)

    def f_bound(n: int) -> float:
        lo, hi = support_at(n)
        fmin, fmax = f_bounds(lo, hi)
        return max(abs(fmin), abs(fmax))

    def sample_positions(shape, rng):
        return a + (b - a) * rng.random(shape)

    density = 1.0 / (b - a)
    return ModelConfig(
        name=spec.get("name", "custom"),
        sample_positions=sample_positions,
        initial_density=lambda x: np.where((x >= a) & (x <= b), density, 0.0),
        initial_support=(a, b),
        potential=potential,
        kernel=kernel,
        f=f_fn,
        f_bound=f_bound,
        spec=dict(spec),
    )


def build_model(ref) -> ModelConfig:
    """Rebuild a model from its JSON-able reference ('section7' or a dict)."""
    if ref == "section7":
        return section7_model()
    if isinstance(ref, dict):
        return build_custom_model(ref)
    raise InvalidModel(f"unknown model reference {ref!r}")
