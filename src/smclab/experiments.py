"""Config-driven experiments with CSV/JSON reporting.

Every experiment consumes an :class:`ExperimentConfig` (JSON file and/or CLI
flags), runs a fixed set of reproducible Monte Carlo streams, and returns an
:class:`ExperimentReport` whose rows all carry a confidence interval.  Paired
experiments also carry a verdict: the two quantities must differ by less than
3 times the sum of their CI half-widths (the comparisons assert vanishing
differences in the large-population limit, not equality at finite M, so plain
CI intersection would be too strict at small scales).

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

Model selection: ``"model": "section7"`` (built-in benchmark) or an inline
custom-model table, see :func:`smclab.model.build_custom_model`.

Config schema (version 1)::

    {"schema": 1, "experiment": "variance-step0", "model": "section7",
     "particles": 2000, "replicates": 100000, "replicates2": 10000,
     "step": 1, "tuple_size": 1, "seed": 0, "workers": 2,
     "out": "report.csv", "format": "csv", "timing": true,
     "table_kind": "beta0", "table_points": 41}

Unknown keys are rejected.  CSV columns are exactly
``experiment,quantity,estimate,ci_lo,ci_hi,n_samples,particles,seed,wall_time_s``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
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
)
from .errors import InvalidConfig
from .estimators import EstimateWithCI, mean_estimate, normality_check, variance_estimate
from .model import build_model, section7_constants
from .resampling import (
    conditional_variance_exact,
    multinomial_conditional_variance,
    residual_conditional_variance,
    systematic_conditional_variance,
    weight_profile,
)
from .variance import (
    _initial_quad,
    _step1_recursion_terms,
    beta0,
    beta1,
    beta0_u_integral,
    beta_pair_u_integral,
    sigma1_sq,
)

EXPERIMENTS = (
    "conjecture1",
    "conjecture2",
    "variance-step0",
    "variance-step1",
    "clt",
    "compare-resamplers",
    "beta-table",
)

CSV_COLUMNS = ("experiment", "quantity", "estimate", "ci_lo", "ci_hi",
               "n_samples", "particles", "seed", "wall_time_s")

#: agreement factor of the paired verdicts
OVERLAP_FACTOR = 3.0

# desk-scale defaults; the reference scale is reached by raising replicates/particles
_DESK_DEFAULTS = {
    "conjecture1": dict(particles=2000, replicates=100_000),
    "conjecture2": dict(particles=2000, replicates=10_000),
    "variance-step0": dict(particles=2000, replicates=100_000, replicates2=10_000),
    "variance-step1": dict(particles=2000, replicates=100_000, replicates2=10_000),
    "clt": dict(particles=10_000, replicates=10_000, replicates2=10_000),
    "compare-resamplers": dict(particles=100, replicates=100_000),
    "beta-table": dict(particles=0, replicates=0),
}

_CONFIG_KEYS = {
    "schema", "experiment", "model", "particles", "replicates", "replicates2",
    "step", "tuple_size", "seed", "workers", "out", "format", "timing",
    "table_kind", "table_points",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model: object = "section7"
    particles: int = 2000
    replicates: int = 100_000
    replicates2: int = 10_000
    step: int = 1
    tuple_size: int = 1
    seed: int = 0
    workers: int = 1
    out: Optional[str] = None
    format: str = "csv"
    timing: bool = True
    table_kind: str = "beta0"
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

    @property
    def half_width(self) -> float:
        return (self.ci_hi - self.ci_lo) / 2.0


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    rows: tuple[ReportRow, ...]
    verdict: Optional[bool]

    def row(self, quantity: str) -> ReportRow:
        for r in self.rows:
            if r.quantity == quantity:
                return r
        raise KeyError(quantity)


def default_config(experiment: str, **overrides) -> ExperimentConfig:
    """Desk-scale config for an experiment, with overrides applied."""
    if experiment not in EXPERIMENTS:
        raise InvalidConfig(f"unknown experiment {experiment!r} (choose from {EXPERIMENTS})")
    base = dict(_DESK_DEFAULTS[experiment])
    base.update(overrides)
    return ExperimentConfig(experiment=experiment, **base)


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
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config fields: {sorted(unknown)}")
    if "experiment" not in raw:
        raise InvalidConfig("config is missing the 'experiment' field")
    merged = {k: v for k, v in raw.items() if k not in ("schema", "experiment")}
    merged.update(overrides)
    return default_config(raw["experiment"], **merged)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise InvalidConfig(f"unknown experiment {cfg.experiment!r}")
    if cfg.format not in ("csv", "json"):
        raise InvalidConfig(f"unknown output format {cfg.format!r}")
    if cfg.workers < 1:
        raise InvalidConfig("workers must be >= 1")
    if cfg.seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {cfg.seed}")
    if cfg.experiment == "beta-table":
        if cfg.table_kind not in ("beta0", "beta1", "phi0", "phik"):
            raise InvalidConfig(f"unknown beta-table kind {cfg.table_kind!r}")
        return
    if cfg.replicates < 100:
        raise InvalidConfig("replicates must be >= 100")
    if cfg.experiment in ("variance-step0", "variance-step1", "clt") and cfg.replicates2 < 2:
        raise InvalidConfig(f"replicates2 must be >= 2, got {cfg.replicates2}")
    model = build_model(cfg.model)
    max_step = 2 if cfg.experiment in ("variance-step1", "conjecture2") else 1
    needed = 1 + max(
        math.ceil(model.potential(n).ratio()) for n in range(max_step + 1)
    )
    if cfg.particles < needed:
        raise InvalidConfig(
            f"particles must be >= 1 + ceil(max potential ratio) = {needed}, got {cfg.particles}"
        )
    if cfg.experiment == "conjecture2" and (cfg.step not in (1, 2) or cfg.tuple_size not in (1, 2)):
        raise InvalidConfig("conjecture2 supports step in {1, 2} and tuple_size in {1, 2}")
    if cfg.experiment in ("conjecture1", "variance-step1") and cfg.model != "section7":
        raise InvalidConfig(f"{cfg.experiment} needs the built-in model's step-1 transform")


def overlap_verdict(a: ReportRow, b: ReportRow, factor: float = OVERLAP_FACTOR) -> bool:
    """|estimate difference| < factor * (sum of CI half-widths)."""
    return abs(a.estimate - b.estimate) < factor * (a.half_width + b.half_width)


class _Reporter:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.t0 = time.perf_counter()
        self.entries: list[tuple[str, float, float, float, int]] = []

    def add(self, quantity: str, est: EstimateWithCI):
        self.entries.append((quantity, est.point, est.lo, est.hi, est.n))

    def add_value(self, quantity: str, value: float, n: int = 1):
        self.entries.append((quantity, value, value, value, n))

    def finish(self, verdict: Optional[bool]) -> ExperimentReport:
        wall = time.perf_counter() - self.t0 if self.cfg.timing else 0.0
        rows = tuple(
            ReportRow(
                experiment=self.cfg.experiment,
                quantity=q,
                estimate=e,
                ci_lo=lo,
                ci_hi=hi,
                n_samples=n,
                particles=self.cfg.particles,
                seed=self.cfg.seed,
                wall_time_s=round(wall, 3),
            )
            for (q, e, lo, hi, n) in self.entries
        )
        return ExperimentReport(config=self.cfg, rows=rows, verdict=verdict)


def _shift(est: EstimateWithCI, offset: float, scale: float = 1.0) -> EstimateWithCI:
    return EstimateWithCI(point=est.point * scale + offset, lo=est.lo * scale + offset,
                          hi=est.hi * scale + offset, n=est.n, kind=est.kind, level=est.level)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def run_conjecture1(cfg: ExperimentConfig) -> ExperimentReport:
    """Variance of the step-1 weighted ratio vs. the two-term recursion."""
    validate_config(cfg)
    rep = _Reporter(cfg)
    t_vals, = run_stream(WeightedRatioTask(cfg.model, cfg.particles, step=1),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    h_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="pf1"),
                         cfg.replicates, cfg.seed, stream=2, workers=cfg.workers)
    v1 = variance_estimate(t_vals)
    v2 = variance_estimate(h_vals)
    scale, correction = _step1_recursion_terms()
    composite = _shift(v2, correction, 1.0 / scale)
    rep.add("direct_variance", v1)
    rep.add("recursion_estimate", composite)
    rep.add("transform_variance", v2)
    report = rep.finish(None)
    verdict = overlap_verdict(report.row("direct_variance"), report.row("recursion_estimate"))
    return ExperimentReport(config=cfg, rows=report.rows, verdict=verdict)


def run_conjecture2(cfg: ExperimentConfig) -> ExperimentReport:
    """Windowed statistic: actual weight bookkeeping vs. its uniform limit."""
    validate_config(cfg)
    rep = _Reporter(cfg)
    lhs, rhs = run_stream(
        Conjecture2Task(cfg.model, cfg.particles, step=cfg.step, tuple_size=cfg.tuple_size),
        cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    rep.add("windowed_actual", mean_estimate(lhs))
    rep.add("windowed_limit", mean_estimate(rhs))
    report = rep.finish(None)
    verdict = overlap_verdict(report.row("windowed_actual"), report.row("windowed_limit"))
    return ExperimentReport(config=cfg, rows=report.rows, verdict=verdict)


def run_variance_step0(cfg: ExperimentConfig) -> ExperimentReport:
    """Step-0 selection noise: direct variance minus the analytic
    weighted-mean term vs. the window-kernel expectation."""
    validate_config(cfg)
    rep = _Reporter(cfg)
    model = build_model(cfg.model)
    t_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="f"),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    z_vals, = run_stream(PhiTupleTask(cfg.model), cfg.replicates2, cfg.seed,
                         stream=2, workers=cfg.workers)
    s1 = sigma1_sq(model)
    excess = _shift(variance_estimate(t_vals), -s1)
    v2 = mean_estimate(z_vals)
    rep.add("selection_variance_excess", excess)
    rep.add("window_kernel_mean", v2)
    rep.add_value("sigma1_sq", s1)
    report = rep.finish(None)
    verdict = overlap_verdict(report.row("selection_variance_excess"),
                              report.row("window_kernel_mean"))
    return ExperimentReport(config=cfg, rows=report.rows, verdict=verdict)


def run_variance_step1(cfg: ExperimentConfig) -> ExperimentReport:
    """Step-1 selection noise: direct variance with the recursion terms
    subtracted vs. window kernels averaged along simulated populations.

    The two direct estimates come from independent sample sets, so the
    difference interval is the conservative 90% interval obtained by
    interval arithmetic on the two 95% intervals.
    """
    validate_config(cfg)
    rep = _Reporter(cfg)
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
        n=v11.n, kind="variance", level=0.90,
    )
    v2 = mean_estimate(z_vals)
    rep.add("selection_variance_excess", combined)
    rep.add("window_kernel_mean", v2)
    rep.add("step2_variance", v11)
    rep.add("transform_variance", v12)
    report = rep.finish(None)
    verdict = overlap_verdict(report.row("selection_variance_excess"),
                              report.row("window_kernel_mean"))
    return ExperimentReport(config=cfg, rows=report.rows, verdict=verdict)


def run_clt(cfg: ExperimentConfig) -> ExperimentReport:
    """KS normality check of standardized step-1 selected sums against the
    predicted limit N(0, sigma1_sq + sigma2_sq)."""
    validate_config(cfg)
    rep = _Reporter(cfg)
    model = build_model(cfg.model)
    t_vals, = run_stream(SelectedSumTask(cfg.model, cfg.particles, step=1, transform="f"),
                         cfg.replicates, cfg.seed, stream=1, workers=cfg.workers)
    z_vals, = run_stream(PhiTupleTask(cfg.model), cfg.replicates2, cfg.seed,
                         stream=2, workers=cfg.workers)
    if cfg.model == "section7":
        center = section7_constants(0)["selected_f_mean"]
    else:
        pot = model.potential(0)
        center = _initial_quad(model, lambda x: np.asarray(model.f(x)) * pot(x)) / _initial_quad(model, pot)
    s1 = sigma1_sq(model)
    s2 = mean_estimate(z_vals)
    samples = t_vals - math.sqrt(cfg.particles) * center
    stat, passed = normality_check(samples, 0.0, s1 + s2.point, alpha=0.05)
    rep.add_value("ks_statistic", stat, n=cfg.replicates)
    rep.add_value("sigma_total", s1 + s2.point, n=cfg.replicates2)
    rep.add("sigma2_sq", s2)
    report = rep.finish(None)
    return ExperimentReport(config=cfg, rows=report.rows, verdict=bool(passed))


def _mc_resample_sums(kind, prof, fv, replicates, rng, block=4096):
    """Per-replicate sums of f over resampled populations, batched."""
    m = prof.size
    strata = np.arange(1, m + 1, dtype=float)
    out = np.empty(replicates)
    done = 0
    if kind == "residual":
        copies = np.floor(prof.w).astype(np.int64)
        det_sum = float(np.dot(copies, fv))
        n_res = m - int(copies.sum())
        resid_cum = np.cumsum(prof.w - copies)
        if n_res > 0:
            resid_cum[-1] = float(n_res)
    while done < replicates:
        nb = min(block, replicates - done)
        if kind == "stratified":
            points = strata[None, :] - rng.random((nb, m))
            idx = np.searchsorted(prof.cum, points.ravel(), side="left").reshape(nb, m)
            out[done:done + nb] = fv[idx].sum(axis=1)
        elif kind == "multinomial":
            idx = np.searchsorted(prof.cum, m * rng.random((nb, m)).ravel(), side="left").reshape(nb, m)
            out[done:done + nb] = fv[idx].sum(axis=1)
        elif kind == "systematic":
            points = strata[None, :] - rng.random((nb, 1))
            idx = np.searchsorted(prof.cum, points.ravel(), side="left").reshape(nb, m)
            out[done:done + nb] = fv[idx].sum(axis=1)
        elif kind == "residual":
            if n_res == 0:
                out[done:done + nb] = det_sum
            else:
                idx = np.searchsorted(resid_cum, n_res * rng.random((nb, n_res)).ravel(),
                                      side="left").reshape(nb, n_res)
                out[done:done + nb] = det_sum + fv[idx].sum(axis=1)
        else:
            raise InvalidConfig(f"unknown resampling kind {kind!r}")
        done += nb
    return out


def run_compare_resamplers(cfg: ExperimentConfig) -> ExperimentReport:
    """Conditional variances of all four schemes on one frozen population.

    Monte Carlo over repeated resamples plus exact values; the verdict is
    the stratified <= multinomial ordering (exact, and Monte Carlo within
    the overlap tolerance)."""
    validate_config(cfg)
    rep = _Reporter(cfg)
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
    for kind in exact:
        rep.add(f"{kind}_mc", mc[kind])
        rep.add_value(f"{kind}_exact", exact[kind])
    report = rep.finish(None)
    strat, multi = report.row("stratified_mc"), report.row("multinomial_mc")
    verdict = (
        exact["stratified"] <= exact["multinomial"] + 1e-12
        and strat.estimate <= multi.estimate + OVERLAP_FACTOR * (strat.half_width + multi.half_width)
        and all(abs(mc[k].point - exact[k]) <= OVERLAP_FACTOR * max(mc[k].half_width, 1e-12)
                for k in exact)
    )
    return ExperimentReport(config=cfg, rows=report.rows, verdict=verdict)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    runner = {
        "conjecture1": run_conjecture1,
        "conjecture2": run_conjecture2,
        "variance-step0": run_variance_step0,
        "variance-step1": run_variance_step1,
        "clt": run_clt,
        "compare-resamplers": run_compare_resamplers,
    }.get(cfg.experiment)
    if runner is None:
        raise InvalidConfig(f"experiment {cfg.experiment!r} does not produce a report "
                            "(beta-table writes its grid directly)")
    return runner(cfg)


# ---------------------------------------------------------------------------
# kernel tables for plotting
# ---------------------------------------------------------------------------

def beta_table_text(kind: str, points: Optional[int] = None) -> str:
    """CSV grid of a variance kernel; columns x, y1 [, y2, y3], value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if kind == "beta0":
        n = points or 41
        writer.writerow(["x", "y1", "value"])
        for x in np.linspace(0.0, 1.0, n):
            for y1 in np.linspace(0.0, 3.0, n):
                writer.writerow([repr(float(x)), repr(float(y1)), repr(float(beta0(x, y1)))])
    elif kind == "beta1":
        n = points or 9
        writer.writerow(["x", "y1", "y2", "y3", "value"])
        grid = np.linspace(0.0, 2.0, n)
        for x in np.linspace(0.0, 1.0, n):
            for y1 in grid:
                for y2 in grid:
                    for y3 in grid:
                        writer.writerow([repr(float(x)), repr(float(y1)), repr(float(y2)),
                                         repr(float(y3)), repr(float(beta1(x, y1, y2, y3)))])
    elif kind == "phi0":
        n = points or 101
        writer.writerow(["x", "value"])
        for y in np.linspace(0.0, 3.0, n):
            writer.writerow([repr(float(y)), repr(float(beta0_u_integral(y)))])
    elif kind == "phik":
        n = points or 17
        writer.writerow(["x", "y1", "y2", "value"])
        grid = np.linspace(0.0, 2.0, n)
        for a in grid:
            for mid in grid:
                for b in grid:
                    writer.writerow([repr(float(a)), repr(float(mid)), repr(float(b)),
                                     repr(float(beta_pair_u_integral(a, mid, b)))])
    else:
        raise InvalidConfig(f"unknown beta-table kind {kind!r}")
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


def parse_report_csv(text: str) -> tuple[ReportRow, ...]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise InvalidConfig(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        rows.append(ReportRow(
            experiment=rec[0], quantity=rec[1], estimate=float(rec[2]),
            ci_lo=float(rec[3]), ci_hi=float(rec[4]), n_samples=int(rec[5]),
            particles=int(rec[6]), seed=int(rec[7]), wall_time_s=float(rec[8]),
        ))
    return tuple(rows)


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
