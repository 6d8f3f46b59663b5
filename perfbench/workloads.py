"""The three closed-loop workloads and the checks on their outputs.

Each workload is one researcher running one item after another on the
built-in ``section7`` model; every input derives from the seed.

desk-mc       variance-step1, conjecture1 and conjecture2 at M = 2000 with
              workers = 1: every engine task that runs a population loop, on
              many rows of small M (256 rows x 2000).  Bypasses the library
              resampling code and the process pool.
clt-m1e4-w2   clt at desk defaults (M = 1e4) with workers = 2: large M with
              51 rows per batch, and the only workload that uses the process
              pool.  The window kernels run once, in one PhiTupleTask batch.
frozen-exact  compare-resamplers, run_filter at M = 1e5, the exact law, the
              oracle and the baselines on its populations and on one
              weight-ratio-1e3 population, and the systematic variance at
              M = 1e4.  The only caller of the exact law; bypasses the engine.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from smclab import filtering, resampling
from smclab._engine import BATCH_TARGET, batch_rows
from smclab.experiments import default_config, run_experiment, validate_config
from smclab.model import build_model

FILTER_PARTICLES = 100_000
FILTER_STEPS = 2
SYSTEMATIC_PARTICLES = 10_000
# g = exp(6.9 x) on [0, 1]: weight ratio e^6.9 ~ 1e3
RATIO_1E3_MODEL = {"name": "ratio-1e3", "g": {"form": "exp", "scale": 1.0, "rate": 6.9},
                   "f": {"form": "exp"}}

# acceptance-suite tolerances (criteria 1 and 3)
EXACT_ORACLE_RTOL = 1e-10
Q_SUM_TOL = 1e-12
# The q-matrix entries are fractional parts of the running sums S_i <= M,
# stored as doubles, so a row or column sum can be off by one spacing of M
# (1.46e-11 at M = 1e5), and the last column also by the rounding of
# sum(w) against M.  Q_SUM_ULPS spacings of M are allowed where that exceeds
# Q_SUM_TOL, i.e. for M >= 2048; the acceptance suite tests M <= 50.
Q_SUM_ULPS = 4


def experiment_configs(workload: str, seed: int):
    """The experiment configs a workload runs, in order."""
    if workload == "desk-mc":
        return [
            default_config("variance-step1", particles=2000, replicates=10_000,
                           replicates2=1_000, seed=seed, workers=1),
            default_config("conjecture1", particles=2000, replicates=10_000, seed=seed, workers=1),
            default_config("conjecture2", particles=2000, replicates=10_000, step=2,
                           tuple_size=2, seed=seed, workers=1),
        ]
    if workload == "clt-m1e4-w2":
        return [default_config("clt", seed=seed, workers=2)]
    if workload == "frozen-exact":
        return [default_config("compare-resamplers", seed=seed)]
    raise ValueError(f"unknown workload {workload!r}")


def set_up(workload: str, seed: int) -> None:
    """What a researcher pays before the first item: build and validate."""
    build_model("section7")
    for cfg in experiment_configs(workload, seed):
        validate_config(cfg)
    if workload == "frozen-exact":
        build_model(RATIO_1E3_MODEL)


def manifest(workload: str, seed: int) -> dict:
    """Resolved configs and batch plan of a workload."""
    out = {"experiments": [], "BATCH_TARGET": BATCH_TARGET}
    for cfg in experiment_configs(workload, seed):
        entry = dataclasses.asdict(cfg)
        if cfg.experiment != "compare-resamplers":
            entry["rows_per_batch"] = batch_rows(cfg.particles)
        out["experiments"].append(entry)
    if workload == "frozen-exact":
        out["frozen"] = {"filter_particles": FILTER_PARTICLES, "filter_steps": FILTER_STEPS,
                         "ratio_1e3_model": RATIO_1E3_MODEL,
                         "systematic_particles": SYSTEMATIC_PARTICLES}
    return out


class Checks:
    """Named pass/fail checks.  A failed ``statistical`` check is a Monte
    Carlo verdict, which a correct program also fails at some rate."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "", statistical: bool = False):
        self.results.append({"name": name, "ok": bool(ok), "detail": detail,
                             "statistical": statistical})

    def guard(self, name: str, fn, *args):
        """Run one item; an exception counts as a failed check."""
        try:
            fn(*args)
        except Exception as exc:  # an item that raises is a failure, not a crash
            self.add(f"{name}: raised", False, f"{type(exc).__name__}: {exc}")


def _check_experiment(checks: Checks, cfg) -> None:
    report = run_experiment(cfg)
    name = cfg.experiment
    checks.add(f"{name}: verdict PASS", report.verdict is True,
               "; ".join(f"{r.quantity}={r.estimate:.6g}" for r in report.rows), statistical=True)
    values = [v for r in report.rows for v in (r.estimate, r.ci_lo, r.ci_hi)]
    checks.add(f"{name}: estimates and CI bounds finite", all(math.isfinite(v) for v in values))


def _check_exact_law(checks: Checks, label: str, g, fv) -> None:
    prof = resampling.weight_profile(g)
    coeffs = resampling.selection_coefficients(prof)
    exact = resampling.conditional_variance_exact(prof, fv)
    oracle = resampling.conditional_variance_oracle(coeffs, fv)
    multinomial = resampling.multinomial_conditional_variance(prof, fv)
    residual = resampling.residual_conditional_variance(prof, fv)
    rel = abs(exact - oracle) / abs(oracle)
    checks.add(f"{label}: exact = oracle within {EXACT_ORACLE_RTOL:g} rel",
               rel <= EXACT_ORACLE_RTOL, f"rel {rel:.3e}")
    ulp = float(np.spacing(float(prof.size)))
    tol = max(Q_SUM_TOL, Q_SUM_ULPS * ulp)
    row_dev = float(np.max(np.abs(coeffs.row_sums() - 1.0)))
    checks.add(f"{label}: q rows sum to 1 within {tol:.3g}", row_dev < tol,
               f"max dev {row_dev:.3e} ({row_dev / ulp:.2f} spacings of M)")
    col_dev = float(np.max(np.abs(coeffs.col_sums() - prof.w)))
    checks.add(f"{label}: q columns sum to w within {tol:.3g}", col_dev < tol,
               f"max dev {col_dev:.3e} ({col_dev / ulp:.2f} spacings of M)")
    checks.add(f"{label}: variances finite",
               all(math.isfinite(v) for v in (exact, oracle, multinomial, residual)))


def _frozen_populations(checks: Checks, seed: int) -> None:
    model = build_model("section7")
    traj = filtering.run_filter(model, FILTER_PARTICLES, FILTER_STEPS, seed)
    for n in range(FILTER_STEPS + 1):
        x = traj.record(n).mutated
        _check_exact_law(checks, f"section7 step {n}", model.potential(n)(x), model.f(x))
    custom = build_model(RATIO_1E3_MODEL)
    x = custom.sample_positions((FILTER_PARTICLES,), np.random.default_rng([seed, 1]))
    _check_exact_law(checks, "ratio-1e3", custom.potential(0)(x), custom.f(x))


def _systematic(checks: Checks, seed: int) -> None:
    model = build_model("section7")
    x = model.sample_positions((SYSTEMATIC_PARTICLES,), np.random.default_rng([seed, 2]))
    prof = resampling.weight_profile(model.potential(0)(x))
    value = resampling.systematic_conditional_variance(prof, model.f(x))
    checks.add("systematic variance finite", math.isfinite(value), f"{value:.6g}")


def run(workload: str, seed: int, checks: Checks) -> None:
    """Run every item of a workload, recording its checks."""
    for cfg in experiment_configs(workload, seed):
        checks.guard(cfg.experiment, _check_experiment, checks, cfg)
    if workload == "frozen-exact":
        checks.guard("frozen populations", _frozen_populations, checks, seed)
        checks.guard("systematic variance", _systematic, checks, seed)
