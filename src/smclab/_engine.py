"""Batched, reproducible Monte Carlo engine behind the experiment harness.

Replicates are partitioned into fixed-size batches of rows; batch b of
stream s draws its generator from Philox seeded with
SeedSequence(seed, spawn_key=(s, b)).  Batch boundaries depend only on the
particle count, and results are assembled in batch order, so every output
is bit-identical regardless of worker count or scheduling.

Tasks are small picklable dataclasses holding only primitives plus a
JSON-able model reference; each call builds the model from the reference and
maps (rows, rng) to a tuple of per-replicate value arrays.

The span tracer ``perfbench/tracer.py`` replaces ``beta0_u_integral``,
``beta_pair_u_integral``, ``batched_select``, ``section7_pf1``, ``build_model``
and the five task classes' ``__call__`` on this module, so the engine must look
them up here, as module globals at call time, or traced runs miss the layer.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, SmclabError
from .model import build_model, section7_pf1
from .resampling import ancestors, live_windows
from .variance import (
    beta0_u_integral,
    beta_pair_u_integral,
    correlation_window,
    _reference_g_mean,
)

# target elements per batch block; rows per batch = BATCH_TARGET // particles
BATCH_TARGET = 512_000


def batch_rows(particles: int) -> int:
    return max(1, BATCH_TARGET // max(1, particles))


def stream_rng(seed: int, stream: int, batch: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream, batch)))
    )


def running_weights(g: np.ndarray) -> np.ndarray:
    """Row-wise running sums S_i of w = M g / sum(g), with S_M pinned to M."""
    cum = np.cumsum(g.shape[1] * g / g.sum(axis=1, keepdims=True), axis=1)
    cum[:, -1] = g.shape[1]
    return cum


def batched_select(x: np.ndarray, g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stratified selection row by row; returns the selected rows.

    Row r draws the r-th block of M uniforms and searches its own running
    sums with the library's row-wise ``ancestors``.  The running sums are
    plain ``np.cumsum`` rather than the library's compensated ones, so a row
    agrees with ``resample("stratified", ...)`` on the same draws up to
    their rounding.
    """
    rows, m = x.shape
    cum = running_weights(g)
    strata = np.arange(1, m + 1, dtype=float)[None, :] - rng.random((rows, m))
    return np.take_along_axis(x, ancestors(cum, strata), axis=1)


def populations(model, shape, steps: int, rng: np.random.Generator):
    """The one population loop: yield (Y_n, X_n) for n = 0..steps, Y_0 = X_0.

    X_0 of the given (rows, M) shape is drawn from the initial law; round
    n + 1 selects Y_{n+1} from X_n on g_n(X_n) and mutates it with the step
    n + 1 kernel.  Every draw comes from ``rng``, in this order.
    """
    x = model.sample_positions(shape, rng)
    yield x, x
    for n in range(steps):
        y = batched_select(x, model.potential(n).fn(x), rng)
        x = model.kernel(n + 1).sample(y, rng)
        yield y, x


def window_kernel_terms(fv: np.ndarray, gt: np.ndarray):
    """Yield f_i f_{i+k} int_0^1 beta_window(k, u, gt_i..gt_{i+k}) du over
    every window start i, for k = 0 and each live k of ``live_windows``: one
    (rows, n - k) term at a time, so that no more than one term of the whole
    population is alive at once.  The walk stops at the first k with no live
    window, whose term and every later one would be 0 everywhere; how many
    terms a batch yields depends on its draws, and with gt >= 1 / ratio it
    is at most ceil(ratio) + 1.
    """
    n = gt.shape[1]
    yield fv**2 * beta0_u_integral(gt)
    for k, mid in live_windows(np.cumsum(gt, axis=1)):
        yield fv[:, :n - k] * fv[:, k:] * beta_pair_u_integral(gt[:, :n - k], mid, gt[:, k:])


def transform_function(ref, transform: str):
    """The function a task sums: None for the model's own f (``'f'``), or
    the built-in model's step-1 transform P f_1 (``'pf1'``), which no other
    reference has."""
    if transform == "f":
        return None
    if transform == "pf1":
        if ref != "section7":
            raise InvalidArgument("transform 'pf1' is the built-in section7 model's step-1 "
                                  f"transform; this model is {ref!r}")
        return section7_pf1
    raise InvalidArgument(f"unknown transform {transform!r} (expected 'f' or 'pf1')")


def _advance(model, shape, steps: int, rng: np.random.Generator):
    """Initial (rows, M) draw plus ``steps`` selection/mutation rounds.

    Returns (x, y) with x the mutated population after the last round and y
    the last selected population (y = x when steps = 0).
    """
    for y, x in populations(model, shape, steps, rng):
        pass
    return x, y


@dataclass(frozen=True)
class SelectedSumTask:
    """(1/sqrt(M)) sum_m T(Y_step) with T = f or the built-in step-1
    transform P f_1 (``transform='pf1'``)."""

    model_ref: object
    particles: int
    step: int = 1
    transform: str = "f"

    def __call__(self, rows: int, rng: np.random.Generator):
        fn = transform_function(self.model_ref, self.transform)
        model = build_model(self.model_ref)
        _, y = _advance(model, (rows, self.particles), self.step, rng)
        vals = np.asarray((fn or model.f)(y), dtype=float).sum(axis=1) / math.sqrt(self.particles)
        return (vals,)


@dataclass(frozen=True)
class WeightedRatioTask:
    """sqrt(M) * sum (g_n f)(X_step) / sum g_n(X_step) on the mutated
    population; the common-to-all-schemes fluctuation statistic."""

    model_ref: object
    particles: int
    step: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = build_model(self.model_ref)
        x, _ = _advance(model, (rows, self.particles), self.step, rng)
        g = model.potential(self.step).fn(x)
        fv = np.asarray(model.f(x), dtype=float)
        vals = math.sqrt(self.particles) * (g * fv).sum(axis=1) / g.sum(axis=1)
        return (vals,)


@dataclass(frozen=True)
class PhiTupleTask:
    """sum_k T(X_1) T(X_{k+1}) * closed-form window integral over i.i.d.
    initial-law tuples, k = 0..K: one sample of the step-0 selection-noise
    variance of T (``transform`` as in SelectedSumTask)."""

    model_ref: object
    particles: int = 0  # no particles: batch_rows(0) = BATCH_TARGET tuples per batch
    transform: str = "f"

    def __call__(self, rows: int, rng: np.random.Generator):
        fn = transform_function(self.model_ref, self.transform)
        model = build_model(self.model_ref)
        pot = model.potential(0)
        x = model.sample_positions((rows, correlation_window(0, pot.ratio()) + 1), rng)
        gt = pot.fn(x) / _reference_g_mean(self.model_ref, 0)
        fv = np.asarray((fn or model.f)(x), dtype=float)
        return (sum(term[:, 0] for term in window_kernel_terms(fv, gt)),)


@dataclass(frozen=True)
class WindowPhiSumTask:
    """Sliding-window mean sum_k (1/M) sum_i phi_k over the step's mutated
    population: one sample of the next step's selection-noise term."""

    model_ref: object
    particles: int
    step: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = build_model(self.model_ref)
        m = self.particles
        x, _ = _advance(model, (rows, m), self.step, rng)
        gt = model.potential(self.step).fn(x) / _reference_g_mean(self.model_ref, self.step)
        fv = np.asarray(model.f(x), dtype=float)
        return (sum(term.sum(axis=1) for term in window_kernel_terms(fv, gt)) / m,)


def _window_sums(cum: np.ndarray, t: int) -> np.ndarray:
    """Row-wise a_i + ... + a_{i+t} for i = 0..M-t-1, from running sums of a."""
    padded = np.concatenate([np.zeros((len(cum), 1)), cum], axis=1)
    return padded[:, t + 1:] - padded[:, :cum.shape[1] - t]


@dataclass(frozen=True)
class Conjecture2Task:
    """Windowed sum statistic with actual bookkeeping (lhs) and with its
    uniform/normalized-potential limit (rhs), h and psi both sums."""

    model_ref: object
    particles: int
    step: int = 1
    tuple_size: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = build_model(self.model_ref)
        m = self.particles
        t = self.tuple_size
        x, _ = _advance(model, (rows, m), self.step, rng)
        g = model.potential(self.step).fn(x)
        h = _window_sums(np.cumsum(x, axis=1), t)
        cum = running_weights(g)
        u_prev = np.mod(np.concatenate([np.zeros((rows, 1)), cum[:, :m - t - 1]], axis=1), 1.0)
        lhs = (h * (u_prev + _window_sums(cum, t))).sum(axis=1) / m

        gt_win = _window_sums(np.cumsum(g / _reference_g_mean(self.model_ref, self.step), axis=1), t)
        u_fresh = rng.random((rows, 1))
        rhs = (h * (u_fresh + gt_win)).sum(axis=1) / m
        return (lhs, rhs)


def _run_batch(args):
    task, seed, stream, batch, rows = args
    rng = stream_rng(seed, stream, batch)
    return task(rows, rng)


def run_stream(task, n_rep: int, seed: int, stream: int, workers: int = 1):
    """Run ``n_rep`` replicates of a task; returns per-output arrays.

    The batch decomposition and per-batch generators depend only on
    (task.particles, seed, stream), never on ``workers``.  A worker process
    that dies (killed, or exiting without a result) is an ``SmclabError``.
    """
    rows = batch_rows(task.particles)
    jobs = []
    done = 0
    b = 0
    while done < n_rep:
        nb = min(rows, n_rep - done)
        jobs.append((task, seed, stream, b, nb))
        done += nb
        b += 1
    if workers <= 1 or len(jobs) == 1:
        parts = [_run_batch(j) for j in jobs]
    else:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(_run_batch, jobs, chunksize=max(1, len(jobs) // (8 * workers))))
        except BrokenProcessPool as exc:
            raise SmclabError(f"a worker process ended abruptly: {exc}") from None
    n_out = len(parts[0])
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(n_out))
