"""Model definitions: initial laws, potential functions, mutation kernels.

A model bundles everything the resampling and variance machinery consumes:
an initial law eta on the real line with a density, positive potential
functions g_n with declared finite bounds on the reachable support at each
step, uniform shift mutation kernels P_n, and a bounded test function f.

:func:`build_model` is the one constructor: it builds a model from a row of
a small JSON-able table.  The built-in ``section7`` model, the canonical
benchmark of the experiment harness, is the row :data:`SECTION7`: d = 1,
eta = Uniform(0, 1), P(x, .) = Uniform[x, x + 1] and g_n(x) = f(x) = exp(x).
At step n its particles live in [0, n + 1], so the potential bounds there
are [1, e^(n+1)].  All of its moment constants have closed forms (see
:func:`section7_constants`).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidModel

E = math.e

#: absolute slack allowed when asserting declared potential / test-function bounds
_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class PotentialSpec:
    """Positive weight function with declared finite bounds on its support.

    ``lower <= fn(x) <= upper`` must hold on the step's reachable support;
    this is asserted on every evaluation in debug mode (``python`` without
    ``-O``).
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 < self.lower <= self.upper < math.inf):
            raise InvalidModel(
                f"potential bounds must satisfy 0 < lower <= upper < inf, "
                f"got [{self.lower}, {self.upper}]"
            )
        if not math.isfinite(self.ratio()):
            raise InvalidModel(f"potential bound ratio upper / lower overflows double precision "
                               f"on [{self.lower}, {self.upper}]")

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
    width = hi - lo
    if not 0.0 < width < math.inf:
        raise InvalidModel(f"uniform shift kernel needs hi > lo and a finite width, got [{lo}, {hi}]")

    def sample(x, rng):
        x = np.asarray(x, dtype=float)
        return x + lo + width * rng.random(x.shape)

    return KernelSpec(sample=sample, shift_bounds=(lo, hi))


@dataclass(frozen=True)
class ModelConfig:
    """Full model: initial law, potentials, kernels and test function.

    Built by :func:`build_model` from a JSON-able reference
    (``"section7"`` or a table), which is the model's identity: the engine's
    tasks and the closed forms take the reference, never a built model.  The
    initial law is uniform on ``initial_support``.  Immutable after
    construction; safe to share across threads.  Random state is never
    stored here, it is always passed in explicitly.
    """

    sample_positions: Callable[[tuple, np.random.Generator], np.ndarray]
    initial_support: tuple[float, float]
    potential: Callable[[int], PotentialSpec]
    kernel: Callable[[int], KernelSpec]
    f: Callable[[np.ndarray], np.ndarray]
    f_bound: Callable[[int], float]


# ---------------------------------------------------------------------------
# closed forms of the built-in benchmark model ("section7")
# ---------------------------------------------------------------------------

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

@functools.cache
def gauss_legendre(n):
    """Nodes and weights on [0, 1], cached."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def weighted_reference_mean(model: ModelConfig, step: int, h: Callable) -> float:
    """Weighted mean of h at the given step for a d = 1 model.

    Computes  E[h(Z_step) prod_{p<step} g_p(Z_p)] / E[prod_{p<step} g_p(Z_p)]
    where Z is the model's Markov chain started from the initial law.  This
    is the almost-sure limit of the mutated-population mean of h.  Uses
    nested 64-point Gauss-Legendre quadrature of depth ``step``; intended
    for small steps (<= 2 in practice).
    """
    nodes, weights = gauss_legendre(64)
    lo, hi = model.initial_support
    x = lo + (hi - lo) * nodes            # level-0 nodes
    wgt = (hi - lo) * weights * (1.0 / (hi - lo))  # times the uniform density

    num = wgt.copy()
    # a product past the largest double is reported below, as an error
    with np.errstate(over="ignore", invalid="ignore"):
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
    mean = num_val / den_val
    if not (math.isfinite(den_val) and math.isfinite(mean)):
        raise InvalidModel(f"weighted reference mean at step {step} overflows double precision")
    return mean


# ---------------------------------------------------------------------------
# models from a JSON-able table
# ---------------------------------------------------------------------------

#: the built-in benchmark model, a row of the model table; its entries are
#: also the defaults of every table that omits one
SECTION7 = {
    "name": "section7",
    "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
    "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
    "g": {"form": "exp"},
    "f": {"form": "exp"},
}


def _check_keys(table, allowed, what: str) -> None:
    if not isinstance(table, dict):
        raise InvalidModel(f"{what} must be an object, got {table!r}")
    unknown = set(table) - set(allowed)
    if unknown:
        raise InvalidModel(f"unknown {what} keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _number(value, what: str) -> float:
    """A numeric table entry as a float; a bool, a non-number or a
    non-finite value is an error."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond the largest double
        number = math.inf
    if not math.isfinite(number):
        raise InvalidModel(f"{what} must be a finite number, got {value!r}")
    return number


def _build_form(form: dict, what: str) -> tuple[Callable, Callable]:
    """Compile one entry of the expression table.

    Returns (fn, bounds_on) where bounds_on(lo, hi) gives (min, max) of fn
    over the interval [lo, hi], and is an error where either is not finite
    in double precision.  Supported forms:

    ``{"form": "exp", "scale": a, "rate": b}``  -> a * exp(b * x)
    ``{"form": "poly", "coeffs": [c0, c1, ...]}`` -> c0 + c1 x + ...
    """
    kind = form.get("form") if isinstance(form, dict) else None
    if kind == "exp":
        _check_keys(form, ("form", "scale", "rate"), f"{what} exp form")
        a = _number(form.get("scale", 1.0), f"{what} scale")
        b = _number(form.get("rate", 1.0), f"{what} rate")

        def fn(x):
            # a * exp(b * x) bit for bit; a product by 1.0 is exact, so it is
            # skipped, and the exp of the built-in row costs one pass
            x = np.asarray(x, dtype=float)
            out = np.exp(x if b == 1.0 else b * x)
            if a != 1.0:
                out *= a
            return out

        def extremes(lo, hi):
            vals = sorted((a * math.exp(b * lo), a * math.exp(b * hi)))
            return vals[0], vals[1]
    elif kind == "poly":
        _check_keys(form, ("form", "coeffs"), f"{what} poly form")
        coeffs = form.get("coeffs", [])
        if not isinstance(coeffs, (list, tuple)) or not coeffs:
            raise InvalidModel(f"{what} poly form needs a non-empty list of coefficients, got {coeffs!r}")
        coeffs = [_number(c, f"{what} poly coefficient") for c in coeffs]
        poly = np.polynomial.Polynomial(coeffs)

        def fn(x):
            return poly(np.asarray(x, dtype=float))

        def extremes(lo, hi):
            crit = [lo, hi]
            if len(coeffs) > 1:
                for r in poly.deriv().roots():
                    if abs(r.imag) < 1e-12 and lo < r.real < hi:
                        crit.append(float(r.real))
            vals = [float(poly(c)) for c in crit]
            return min(vals), max(vals)
    else:
        raise InvalidModel(f"unknown {what} expression form {kind!r} (expected 'exp' or 'poly')")

    def bounds_on(lo, hi):
        try:
            vmin, vmax = extremes(lo, hi)
        except OverflowError:  # math.exp past the largest double
            vmin = vmax = math.inf
        if not (math.isfinite(vmin) and math.isfinite(vmax)):
            raise InvalidModel(f"{what} overflows double precision on [{lo}, {hi}]")
        return vmin, vmax

    return fn, bounds_on


def build_model(ref) -> ModelConfig:
    """Build a d = 1 model from its JSON-able reference.

    ``ref`` is ``"section7"``, which names the built-in row
    :data:`SECTION7`, or a model table::

        {"name": "custom",
         "initial": {"law": "uniform", "lo": 0.0, "hi": 1.0},
         "kernel": {"kind": "uniform_shift", "lo": 0.0, "hi": 1.0},
         "g": {"form": "exp", "scale": 1.0, "rate": 1.0},
         "f": {"form": "poly", "coeffs": [0.0, 1.0]}}

    An omitted entry is SECTION7's; ``name`` is free text and selects
    nothing.  A key outside this schema, at any level, is an error, and so is
    a numeric entry that is a bool, not a number, or not finite.  The
    potential must be strictly positive on every reachable support; the
    reachable support at step n is the initial interval shifted by n kernel
    steps.  Only the reference ``"section7"`` gets the built-in's closed
    forms, not a table equal to its row.
    """
    if ref == "section7":
        table = SECTION7
    elif isinstance(ref, dict):
        table = ref
    else:
        raise InvalidModel(f"unknown model reference {ref!r}")
    _check_keys(table, SECTION7, "model table")
    init = table.get("initial", SECTION7["initial"])
    kern = table.get("kernel", SECTION7["kernel"])
    _check_keys(init, SECTION7["initial"], "initial law")
    _check_keys(kern, SECTION7["kernel"], "kernel")
    if init.get("law") != "uniform":
        raise InvalidModel("only uniform initial laws are supported")
    if kern.get("kind") != "uniform_shift":
        raise InvalidModel("only uniform_shift kernels are supported")
    a, b = _number(init.get("lo", 0.0), "initial lo"), _number(init.get("hi", 1.0), "initial hi")
    klo, khi = _number(kern.get("lo", 0.0), "kernel lo"), _number(kern.get("hi", 1.0), "kernel hi")
    g_fn, g_bounds = _build_form(table.get("g", SECTION7["g"]), "g")
    f_fn, f_bounds = _build_form(table.get("f", SECTION7["f"]), "f")
    if not 0.0 < b - a < math.inf:
        raise InvalidModel(f"initial law needs hi > lo and a finite width, got [{a}, {b}]")
    kernel_spec = uniform_shift_kernel(klo, khi)

    def support_at(n: int) -> tuple[float, float]:
        return (a + n * klo, b + n * khi)

    def potential(n: int) -> PotentialSpec:
        lo, hi = support_at(n)
        gmin, gmax = g_bounds(lo, hi)
        if gmin <= 0.0:
            raise InvalidModel(f"potential is not strictly positive on step-{n} support [{lo}, {hi}]")
        return PotentialSpec(fn=g_fn, lower=gmin, upper=gmax)

    def f_bound(n: int) -> float:
        lo, hi = support_at(n)
        fmin, fmax = f_bounds(lo, hi)
        return max(abs(fmin), abs(fmax))

    def sample_positions(shape, rng):
        # a + (b - a) * u, bit for bit, in the draw's own array
        u = rng.random(shape)
        u *= b - a
        u += a
        return u

    return ModelConfig(
        sample_positions=sample_positions,
        initial_support=(a, b),
        potential=potential,
        kernel=lambda n: kernel_spec,
        f=f_fn,
        f_bound=f_bound,
    )
