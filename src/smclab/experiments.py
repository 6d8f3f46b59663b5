"""Config-driven experiments with CSV/JSON reporting.

:func:`run_experiment` is the entry point.  It validates an
:class:`ExperimentConfig` (JSON file and/or CLI flags), times the
experiment's runner and turns the runner's estimates into the rows of an
:class:`ExperimentReport`.  A runner runs a fixed set of reproducible Monte
Carlo streams and returns its estimates, each an :class:`EstimateWithCI` in
report order (a value without sampling error has lo = hi = point), and a
verdict.  Paired experiments judge agreement: the two quantities must differ
by less than 3 times the sum of their CI half-widths (the comparisons assert
vanishing differences in the large-population limit, not equality at finite
M, so plain CI intersection would be too strict at small scales).

Experiments
-----------
conjecture1        variance of the weighted-ratio statistic after one full
                   step vs. the recursive two-term estimate built from the
                   selected-population variance of the transformed test
                   function plus the analytic mutation correction.
conjecture2        sliding-window statistic with actual weight bookkeeping
                   vs. the same statistic with a fresh uniform and the
                   normalized potential (h and psi fixed to sums).
variance-step0     variance of the normalized selected sum minus the
                   analytic weighted-mean term vs. the window-kernel
                   expectation over i.i.d. tuples.
variance-step1     same comparison one step later, with the recursion
                   correction subtracted and the window kernels averaged
                   along simulated populations.
clt                Kolmogorov-Smirnov normality check of the standardized
                   selected sums against the predicted limit variance.
compare-resamplers Monte Carlo conditional variances of all four schemes on
                   one frozen population, plus exact values.
beta-table         CSV grids of the variance kernels for plotting.

The Monte Carlo side of the limit variance lives here too, on the engine's
streams: :func:`sigma2_sq`, whose report ``variance-step0`` and ``clt``
print as it stands, and :func:`recursive_variance_step`.

Model selection: ``"model": "section7"`` (the built-in row of the model
table) or an inline model table, see :func:`smclab.model.build_model`.

Config schema (version 1)::

    {"schema": 1, "experiment": "variance-step0", "model": "section7",
     "particles": 2000, "replicates": 100000, "replicates2": 10000,
     "seed": 0, "workers": 2, "out": "report.csv", "format": "csv",
     "timing": true}

Every experiment takes model, seed, out, format and timing; the other
fields it reads are those of its row of ``_DESK_DEFAULTS`` (``step`` and
``tuple_size`` for conjecture2, ``table_kind`` and ``table_points`` for
beta-table).  Unknown keys are rejected, and so is a set field that the
experiment does not read.  CSV columns are exactly
``experiment,quantity,estimate,ci_lo,ci_hi,n_samples,particles,seed,wall_time_s``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ._engine import (
    Conjecture2Task,
    PhiTupleTask,
    SelectedSumTask,
    WeightedRatioTask,
    WindowPhiSumTask,
    run_stream,
    stream_rng,
    transform_function,
)
from .errors import InvalidArgument, InvalidConfig
from .estimators import EstimateWithCI, mean_estimate, normality_check, variance_estimate
from .model import build_model
from .resampling import (
    conditional_variance_exact,
    multinomial_conditional_variance,
    resample,
    residual_conditional_variance,
    systematic_conditional_variance,
    weight_profile,
)
from .variance import (
    _step1_recursion_terms,
    beta0,
    beta1,
    beta0_u_integral,
    beta_pair_u_integral,
    min_particles,
    selected_mean,
    sigma1_sq,
)

CSV_COLUMNS = ("experiment", "quantity", "estimate", "ci_lo", "ci_hi",
               "n_samples", "particles", "seed", "wall_time_s")

#: agreement factor of the paired verdicts
OVERLAP_FACTOR = 3.0

# the fields each experiment reads besides _READ_BY_ALL, at desk scale; the
# reference scale is reached by raising replicates/particles
_DESK_DEFAULTS = {
    "conjecture1": dict(particles=2000, replicates=100_000, workers=1),
    "conjecture2": dict(particles=2000, replicates=10_000, step=1, tuple_size=1, workers=1),
    "variance-step0": dict(particles=2000, replicates=100_000, replicates2=10_000, workers=1),
    "variance-step1": dict(particles=2000, replicates=100_000, replicates2=10_000, workers=1),
    "clt": dict(particles=10_000, replicates=10_000, replicates2=10_000, workers=1),
    "compare-resamplers": dict(particles=100, replicates=100_000),
    "beta-table": dict(table_kind="beta0", table_points=None),
}
_READ_BY_ALL = ("model", "seed", "out", "format", "timing")
EXPERIMENTS = tuple(_DESK_DEFAULTS)

@dataclass(frozen=True)
class ExperimentConfig:
    """Per-experiment fields are unset (None) here; :func:`default_config`
    fills those the experiment reads from its ``_DESK_DEFAULTS`` row."""

    experiment: str
    model: object = "section7"
    particles: Optional[int] = None
    replicates: Optional[int] = None
    replicates2: Optional[int] = None
    step: Optional[int] = None
    tuple_size: Optional[int] = None
    seed: int = 0
    workers: Optional[int] = None
    out: Optional[str] = None
    format: str = "csv"
    timing: bool = True
    table_kind: Optional[str] = None
    table_points: Optional[int] = None


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    quantity: str
    estimate: float
    ci_lo: float
    ci_hi: float
    n_samples: int
    particles: int
    seed: int
    wall_time_s: float


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    verdict: bool

    def row(self, quantity: str) -> ReportRow:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise KeyError(quantity)


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Desk-scale config for an experiment, with overrides applied.

    :func:`validate_config` rejects an override of a field that the
    experiment does not read.
    """
    if experiment not in EXPERIMENTS:
        raise InvalidConfig(f"unknown experiment {experiment!r} (choose from {EXPERIMENTS})")
    unknown = set(overrides) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
    return ExperimentConfig(experiment=experiment, **{**_DESK_DEFAULTS[experiment], **overrides})


def load_config(path, **overrides) -> ExperimentConfig:
    """Load a JSON config, validate the schema, apply flag overrides."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    if raw.get("schema") != 1:
        raise InvalidConfig(f"unsupported config schema {raw.get('schema')!r} (expected 1)")
    if "experiment" not in raw:
        raise InvalidConfig("config is missing the 'experiment' field")
    merged = {k: v for k, v in raw.items() if k not in ("schema", "experiment")}
    merged.update(overrides)
    return default_config(raw["experiment"], **merged)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


# (fields, predicate, what the fields must be)
_FIELD_TYPES = (
    (("particles", "replicates", "replicates2", "step", "tuple_size", "seed", "workers"),
     _is_int, "an integer"),
    (("table_points",), lambda v: v is None or _is_int(v), "an integer or null"),
    (("timing",), lambda v: isinstance(v, bool), "true or false"),
    (("format", "table_kind"), lambda v: isinstance(v, str), "a string"),
    (("out",), lambda v: v is None or isinstance(v, str), "a string or null"),
    (("model",), lambda v: isinstance(v, (str, dict)), "a string or an object"),
)


def validate_config(cfg: ExperimentConfig) -> None:
    """Reject a bad config before any stream runs; a field that the
    experiment does not read must be unset (None)."""
    if cfg.experiment not in EXPERIMENTS:
        raise InvalidConfig(f"unknown experiment {cfg.experiment!r}")
    reads = [*_DESK_DEFAULTS[cfg.experiment], *_READ_BY_ALL]
    unread = [f.name for f in fields(cfg)
              if f.name not in (*reads, "experiment") and getattr(cfg, f.name) is not None]
    if unread:
        raise InvalidConfig(f"{cfg.experiment} does not read {unread}; it reads {reads}")
    for names, ok, expected in _FIELD_TYPES:
        for name in (n for n in names if n in reads):
            value = getattr(cfg, name)
            if not ok(value):
                raise InvalidConfig(f"{name} must be {expected}, got {value!r}")
    if cfg.format not in ("csv", "json"):
        raise InvalidConfig(f"unknown output format {cfg.format!r}")
    if "workers" in reads and cfg.workers < 1:
        raise InvalidConfig("workers must be >= 1")
    if cfg.seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {cfg.seed}")
    if cfg.experiment == "beta-table":
        if cfg.format != "csv":
            raise InvalidConfig(f"beta-table writes CSV only, got format {cfg.format!r}")
        return
    if cfg.replicates < 100:
        raise InvalidConfig("replicates must be >= 100")
    if "replicates2" in reads and cfg.replicates2 < 2:
        raise InvalidConfig(f"replicates2 must be >= 2, got {cfg.replicates2}")
    model = build_model(cfg.model)
    # equal weights are a valid frozen population for compare-resamplers, but
    # the limit experiments need uniform fractional parts, and with a constant
    # potential every fractional part is 0
    if cfg.experiment != "compare-resamplers" and model.potential(0).ratio() == 1.0:
        raise InvalidConfig(
            f"{cfg.experiment} needs a step-0 potential that is not constant on its support: "
            "with equal weights the fractional parts are all 0 and the limit split does not apply"
        )
    needed = min_particles(model, 2 if cfg.experiment in ("variance-step1", "conjecture2") else 1)
    if cfg.particles < needed:
        raise InvalidConfig(
            f"particles must be >= 1 + the widest correlation window = {needed}, got {cfg.particles}"
        )
    if cfg.experiment == "conjecture2" and (cfg.step not in (1, 2) or cfg.tuple_size not in (1, 2)):
        raise InvalidConfig("conjecture2 supports step in {1, 2} and tuple_size in {1, 2}")
    if cfg.experiment in ("conjecture1", "variance-step1") and cfg.model != "section7":
        raise InvalidConfig(f"{cfg.experiment} needs the built-in model's step-1 transform")


def overlap_verdict(a: EstimateWithCI, b: EstimateWithCI,
                    factor: float = OVERLAP_FACTOR) -> bool:
    """|point difference| < factor * (sum of CI half-widths)."""
    return abs(a.point - b.point) < factor * (a.half_width + b.half_width)


def _value(value: float, n: int = 1) -> EstimateWithCI:
    """A report value without sampling error: lo = hi = point."""
    return EstimateWithCI(point=value, lo=value, hi=value, n=n)


def _shift(est: EstimateWithCI, offset: float, scale: float = 1.0) -> EstimateWithCI:
    return EstimateWithCI(point=est.point * scale + offset, lo=est.lo * scale + offset,
                          hi=est.hi * scale + offset, n=est.n)


# ---------------------------------------------------------------------------
# limit variance: the Monte Carlo components, on the engine's streams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceReport:
    """Asymptotic variance split: deterministic first component, Monte Carlo
    second component."""

    sigma1_sq: float
    sigma2_sq: EstimateWithCI

    @property
    def total(self) -> float:
        return self.sigma1_sq + self.sigma2_sq.point


def sigma2_sq(ref, n_samples: int, seed: int = 0, workers: int = 1,
              transform: str = "f") -> VarianceReport:
    """Stratified selection-noise variance at step 0, by Monte Carlo.

    Averages sum_{k=0}^{K} T(X_1) T(X_{k+1}) int_0^1 beta_window(k, u, gt) du
    over ``n_samples`` i.i.d. initial-law tuples drawn on stream 2 of
    ``seed``, with K = correlation_window(0, upper/lower) of the step-0
    potential, gt = g / E g and T the model's f (or, for the built-in model
    only, P f_1 with ``transform='pf1'``).  ``ref`` is the model's
    reference, ``"section7"`` or a table; the engine's tasks build the model
    from it.
    """
    if n_samples < 1:
        raise InvalidArgument("n_samples must be >= 1")
    f = transform_function(ref, transform)
    (samples,) = run_stream(PhiTupleTask(ref, transform=transform), n_samples, seed,
                            stream=2, workers=workers)
    return VarianceReport(sigma1_sq=sigma1_sq(ref, f), sigma2_sq=mean_estimate(samples))


def recursive_variance_step(v_prev: float, ref, step: int,
                            mc_particles: int = 2000, mc_replicates: int = 2000,
                            seed: int = 0, workers: int = 1) -> float:
    """One step of the recursive limit-variance formula.

    ``v_prev`` must be the previous-step limit variance evaluated at the
    transformed test function P_n f_n, f_n = g_n (m_g f - m_gf) with m_g,
    m_gf the step-n weighted means of g_n and g_n f.  Then

        V_{n+1} = v_prev / m_g^4
                + E[g_{n-1} (P_n f_n^2 - (P_n f_n)^2)]_{n-1} / (m_g^4 m_{g,n-1})
                + E[ sliding-window mean of the aggregate window function ]

    where the last expectation is estimated by Monte Carlo over simulated
    particle systems of size ``mc_particles`` on stream 90 + ``step`` (the
    deterministic nested integral it represents grows super-exponentially
    in dimension and is out of reach beyond simulation).
    """
    if step < 1:
        raise InvalidArgument("recursive variance step needs step >= 1")
    if ref != "section7" or step != 1:
        raise NotImplementedError(
            "recursive variance step currently requires the built-in model at step 1"
        )
    m_g4, term2 = _step1_recursion_terms()
    task = WindowPhiSumTask(model_ref=ref, particles=mc_particles, step=step)
    (z,) = run_stream(task, mc_replicates, seed=seed, stream=90 + step, workers=workers)
    return v_prev / m_g4 + term2 + float(z.mean())


# ---------------------------------------------------------------------------
# runners: each returns ({quantity: estimate} in report order, verdict)
# ---------------------------------------------------------------------------

def _conjecture1(cfg: ExperimentConfig):
    """Variance of the step-1 weighted ratio vs. the two-term recursion."""
    t_vals, = run_stream(WeightedRatioTask(cfg.model, cfg.particles, step=1),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    h_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="pf1"),
                         cfg.replicates, cfg.seed, stream=2, workers=cfg.workers)
    v1 = variance_estimate(t_vals)
    v2 = variance_estimate(h_vals)
    scale, correction = _step1_recursion_terms()
    composite = _shift(v2, correction, 1.0 / scale)
    estimates = {"direct_variance": v1, "recursion_estimate": composite,
                 "transform_variance": v2}
    return estimates, overlap_verdict(v1, composite)


def _conjecture2(cfg: ExperimentConfig):
    """Windowed statistic: actual weight bookkeeping vs. its uniform limit."""
    lhs, rhs = run_stream(
        Conjecture2Task(cfg.model, cfg.particles, step=cfg.step, tuple_size=cfg.tuple_size),
        cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    actual, limit = mean_estimate(lhs), mean_estimate(rhs)
    return {"windowed_actual": actual, "windowed_limit": limit}, overlap_verdict(actual, limit)


def _variance_step0(cfg: ExperimentConfig):
    """Step-0 selection noise: direct variance minus the analytic
    weighted-mean term vs. the window-kernel expectation."""
    t_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="f"),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    limit = sigma2_sq(cfg.model, cfg.replicates2, cfg.seed, cfg.workers)
    excess = _shift(variance_estimate(t_vals), -limit.sigma1_sq)
    estimates = {"selection_variance_excess": excess, "window_kernel_mean": limit.sigma2_sq,
                 "sigma1_sq": _value(limit.sigma1_sq)}
    return estimates, overlap_verdict(excess, limit.sigma2_sq)


def _variance_step1(cfg: ExperimentConfig):
    """Step-1 selection noise: direct variance with the recursion terms
    subtracted vs. window kernels averaged along simulated populations.

    The two direct estimates come from independent sample sets, so the
    difference interval is the conservative 90% interval obtained by
    interval arithmetic on the two 95% intervals.
    """
    v11_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=2, transform="f"),
                           cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    v12_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="pf1"),
                           cfg.replicates, cfg.seed, stream=2, workers=cfg.workers)
    z_vals, = run_stream(WindowPhiSumTask(cfg.model, cfg.particles, step=1),
                         cfg.replicates2, cfg.seed, stream=3, workers=cfg.workers)
    v11 = variance_estimate(v11_vals)
    v12 = variance_estimate(v12_vals)
    scale, correction = _step1_recursion_terms()
    combined = EstimateWithCI(
        point=v11.point - v12.point / scale - correction,
        lo=v11.lo - v12.hi / scale - correction,
        hi=v11.hi - v12.lo / scale - correction,
        n=v11.n,
    )
    v2 = mean_estimate(z_vals)
    estimates = {"selection_variance_excess": combined, "window_kernel_mean": v2,
                 "step2_variance": v11, "transform_variance": v12}
    return estimates, overlap_verdict(combined, v2)


def _clt(cfg: ExperimentConfig):
    """KS normality check of standardized step-1 selected sums against the
    predicted limit N(0, sigma1_sq + sigma2_sq)."""
    t_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="f"),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    limit = sigma2_sq(cfg.model, cfg.replicates2, cfg.seed, cfg.workers)
    samples = t_vals - math.sqrt(cfg.particles) * selected_mean(cfg.model)
    stat, passed = normality_check(samples, 0.0, limit.total, alpha=0.05)
    estimates = {"ks_statistic": _value(stat, n=cfg.replicates),
                 "sigma_total": _value(limit.total, n=cfg.replicates2),
                 "sigma2_sq": limit.sigma2_sq}
    return estimates, bool(passed)


def _mc_resample_sums(kind, prof, fv, replicates, rng, block=4096):
    """Per-replicate sums of f over resampled populations, ``block`` rows at a time."""
    out = np.empty(replicates)
    for done in range(0, replicates, block):
        nb = min(block, replicates - done)
        # keeping a block's ancestors until the next block's are drawn stops
        # the allocator from trimming and faulting in these pages every block
        anc = resample(kind, prof, rng, rows=nb)
        out[done:done + nb] = fv[anc].sum(axis=1)
    return out


def _compare_resamplers(cfg: ExperimentConfig):
    """Conditional variances of all four schemes on one frozen population.

    Monte Carlo over repeated resamples plus exact values; the verdict is
    the stratified <= multinomial ordering (exact, and Monte Carlo within
    the overlap tolerance)."""
    model = build_model(cfg.model)
    m = cfg.particles
    rng = stream_rng(cfg.seed, 0, 0)
    x = model.sample_positions((m,), rng)
    prof = weight_profile(model.potential(0)(x))
    fv = np.asarray(model.f(x), dtype=float)

    exact = {
        "stratified": conditional_variance_exact(prof, fv),
        "multinomial": multinomial_conditional_variance(prof, fv),
        "residual": residual_conditional_variance(prof, fv),
        "systematic": systematic_conditional_variance(prof, fv),
    }
    mc = {
        kind: variance_estimate(
            _mc_resample_sums(kind, prof, fv, cfg.replicates, stream_rng(cfg.seed, stream_id, 0))
            / math.sqrt(m)
        )
        for stream_id, kind in enumerate(("stratified", "multinomial", "residual", "systematic"), start=1)
    }
    estimates = {}
    for kind in exact:
        estimates[f"{kind}_mc"] = mc[kind]
        estimates[f"{kind}_exact"] = _value(exact[kind])
    strat, multi = mc["stratified"], mc["multinomial"]
    verdict = (
        exact["stratified"] <= exact["multinomial"] + 1e-12
        and strat.point <= multi.point + OVERLAP_FACTOR * (strat.half_width + multi.half_width)
        and all(abs(mc[k].point - exact[k]) <= OVERLAP_FACTOR * max(mc[k].half_width, 1e-12)
                for k in exact)
    )
    return estimates, verdict


_RUNNERS = {
    "conjecture1": _conjecture1,
    "conjecture2": _conjecture2,
    "variance-step0": _variance_step0,
    "variance-step1": _variance_step1,
    "clt": _clt,
    "compare-resamplers": _compare_resamplers,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Validate ``cfg``, run its experiment and build the report rows."""
    validate_config(cfg)
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise InvalidConfig(f"experiment {cfg.experiment!r} does not produce a report "
                            "(beta-table writes its grid directly)")
    t0 = time.perf_counter()
    estimates, verdict = runner(cfg)
    wall = round(time.perf_counter() - t0, 3) if cfg.timing else 0.0
    rows = tuple(
        ReportRow(experiment=cfg.experiment, quantity=quantity, estimate=est.point,
                  ci_lo=est.lo, ci_hi=est.hi, n_samples=est.n, particles=cfg.particles,
                  seed=cfg.seed, wall_time_s=wall)
        for quantity, est in estimates.items()
    )
    return ExperimentReport(config=cfg, rows=rows, verdict=verdict)


# ---------------------------------------------------------------------------
# kernel tables for plotting
# ---------------------------------------------------------------------------

def beta_table_text(kind: str, points: Optional[int] = None) -> str:
    """CSV grid of a variance kernel; columns x, y1 [, y2, y3], value.

    Every axis starts at 0 and has ``points`` nodes (a per-kind default when
    None); the grid is the product of the axes, first axis outermost.  The
    kernel is called once, on the arrays of all nodes, so the grid carries
    the bits the engine's array evaluation gives.
    """
    # kind: (axis names, axis ends, default points, kernel)
    tables = {
        "beta0": (("x", "y1"), (1.0, 3.0), 41, beta0),
        "beta1": (("x", "y1", "y2", "y3"), (1.0, 2.0, 2.0, 2.0), 9, beta1),
        "phi0": (("x",), (3.0,), 101, beta0_u_integral),
        "phik": (("x", "y1", "y2"), (2.0, 2.0, 2.0), 17, beta_pair_u_integral),
    }
    if kind not in tables:
        raise InvalidConfig(f"unknown beta-table kind {kind!r}")
    names, ends, default, kernel = tables[kind]
    n = default if points is None else points
    if n < 2:
        raise InvalidConfig(f"table_points must be >= 2, got {points}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*names, "value"])
    nodes = [axis.ravel() for axis in np.meshgrid(*(np.linspace(0.0, end, n) for end in ends),
                                                  indexing="ij")]
    for *node, value in zip(*nodes, kernel(*nodes)):
        writer.writerow([*(repr(float(v)) for v in node), repr(float(value))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([
            r.experiment, r.quantity, repr(float(r.estimate)), repr(float(r.ci_lo)),
            repr(float(r.ci_hi)), r.n_samples, r.particles, r.seed, f"{r.wall_time_s:.3f}",
        ])
    return buf.getvalue()


def report_to_json(report: ExperimentReport) -> str:
    payload = {
        "schema": 1,
        "experiment": report.config.experiment,
        "seed": report.config.seed,
        "particles": report.config.particles,
        "verdict": report.verdict,
        "rows": [
            {
                "quantity": r.quantity, "estimate": r.estimate,
                "ci_lo": r.ci_lo, "ci_hi": r.ci_hi, "n_samples": r.n_samples,
                "particles": r.particles, "seed": r.seed, "wall_time_s": r.wall_time_s,
            }
            for r in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
