"""Batched, reproducible Monte Carlo engine behind the experiment harness.

Replicates are partitioned into fixed-size batches of rows; batch b of
stream s draws its generator from Philox seeded with
SeedSequence(seed, spawn_key=(s, b)).  Batch boundaries depend only on the
particle count, and results are assembled in batch order, so every output
is bit-identical regardless of worker count or scheduling.

Tasks are small picklable dataclasses holding only primitives plus a
JSON-able model reference; workers rebuild the model locally.  Each task
maps (rows, rng) to a tuple of per-replicate value arrays.

The span tracer ``perfbench/tracer.py`` replaces ``beta0_u_integral``,
``beta_pair_u_integral``, ``batched_select``, ``section7_pf1``, ``build_model``
and the five task classes' ``__call__`` on this module, so the engine must look
them up here, as module globals at call time, or traced runs miss the layer.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import build_model, section7_pf1
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

    The per-row binary search is flattened into one global search by
    offsetting each row's cumulative sums and query points into disjoint
    ranges (row r occupies [r (M+1), r (M+1) + M]).
    """
    rows, m = x.shape
    cum = running_weights(g)
    strata = np.arange(1, m + 1, dtype=float)[None, :] - rng.random((rows, m))
    offset = (np.arange(rows, dtype=float) * (m + 1))[:, None]
    flat_idx = np.searchsorted((cum + offset).ravel(), (strata + offset).ravel(), side="left")
    anc = flat_idx.reshape(rows, m) - (np.arange(rows) * m)[:, None]
    return np.take_along_axis(x, anc, axis=1)


def window_kernel_terms(fv: np.ndarray, gt: np.ndarray, k_max: int):
    """Yield f_i f_{i+k} int_0^1 beta_window(k, u, gt_i..gt_{i+k}) du over
    every window start i, for k = 0..k_max: one (rows, n - k) term at a time,
    so that no more than one term of the whole population is alive at once."""
    n = gt.shape[1]
    cum = np.cumsum(gt, axis=1)
    yield fv**2 * beta0_u_integral(gt)
    for k in range(1, k_max + 1):
        mid = cum[:, k - 1:n - 1] - cum[:, :n - k]
        yield fv[:, :n - k] * fv[:, k:] * beta_pair_u_integral(gt[:, :n - k], mid, gt[:, k:])


class _TaskBase:
    """Common model plumbing; subclasses implement __call__(rows, rng)."""

    def _model(self):
        model = getattr(self, "_model_cache", None)
        if model is None:
            model = build_model(self.model_ref)
            object.__setattr__(self, "_model_cache", model)
        return model

    def __getstate__(self):
        # the rebuilt model holds closures; workers rebuild it from model_ref
        return {k: v for k, v in self.__dict__.items() if k != "_model_cache"}

    def _advance(self, rows: int, steps: int, rng: np.random.Generator):
        """Initial draw plus ``steps`` selection/mutation rounds.

        Returns (x, y) with x the mutated population after the last round
        and y the last selected population (y is None when steps = 0).
        """
        model = self._model()
        m = self.particles
        x = model.sample_positions((rows, m), rng)
        y = None
        for n in range(steps):
            g = model.potential(n).fn(x)
            y = batched_select(x, g, rng)
            x = model.kernel(n + 1).sample(y, rng)
        return x, y


@dataclass(frozen=True)
class SelectedSumTask(_TaskBase):
    """(1/sqrt(M)) sum_m T(Y_step) with T = f or the built-in step-1
    transform P f_1 (``transform='pf1'``)."""

    model_ref: object
    particles: int
    step: int = 1
    transform: str = "f"

    def __call__(self, rows: int, rng: np.random.Generator):
        model = self._model()
        _, y = self._advance(rows, self.step, rng)
        fn = model.f if self.transform == "f" else section7_pf1
        vals = np.asarray(fn(y), dtype=float).sum(axis=1) / math.sqrt(self.particles)
        return (vals,)


@dataclass(frozen=True)
class WeightedRatioTask(_TaskBase):
    """sqrt(M) * sum (g_n f)(X_step) / sum g_n(X_step) on the mutated
    population; the common-to-all-schemes fluctuation statistic."""

    model_ref: object
    particles: int
    step: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = self._model()
        x, _ = self._advance(rows, self.step, rng)
        g = model.potential(self.step).fn(x)
        fv = np.asarray(model.f(x), dtype=float)
        vals = math.sqrt(self.particles) * (g * fv).sum(axis=1) / g.sum(axis=1)
        return (vals,)


@dataclass(frozen=True)
class PhiTupleTask(_TaskBase):
    """sum_k f(X_1) f(X_{k+1}) * closed-form window integral over i.i.d.
    initial-law tuples: one sample of the step-0 selection-noise variance."""

    model_ref: object
    particles: int = 0  # unused; tuples, not particle systems

    def __call__(self, rows: int, rng: np.random.Generator):
        model = self._model()
        pot = model.potential(0)
        k_max = correlation_window(0, pot.ratio())
        x = model.sample_positions((rows, k_max + 1), rng)
        gt = pot.fn(x) / _reference_g_mean(model, 0)
        fv = np.asarray(model.f(x), dtype=float)
        return (sum(term[:, 0] for term in window_kernel_terms(fv, gt, k_max)),)


@dataclass(frozen=True)
class WindowPhiSumTask(_TaskBase):
    """Sliding-window mean sum_k (1/M) sum_i phi_k over the step's mutated
    population: one sample of the next step's selection-noise term."""

    model_ref: object
    particles: int
    step: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = self._model()
        m = self.particles
        x, _ = self._advance(rows, self.step, rng)
        pot = model.potential(self.step)
        gt = pot.fn(x) / _reference_g_mean(model, self.step)
        fv = np.asarray(model.f(x), dtype=float)
        terms = window_kernel_terms(fv, gt, correlation_window(0, pot.ratio()))
        return (sum(term.sum(axis=1) for term in terms) / m,)


@dataclass(frozen=True)
class Conjecture2Task(_TaskBase):
    """Windowed sum statistic with actual bookkeeping (lhs) and with its
    uniform/normalized-potential limit (rhs), h and psi both sums."""

    model_ref: object
    particles: int
    step: int = 1
    tuple_size: int = 1

    def __call__(self, rows: int, rng: np.random.Generator):
        model = self._model()
        m = self.particles
        t = self.tuple_size
        x, _ = self._advance(rows, self.step, rng)
        g = model.potential(self.step).fn(x)
        cum = running_weights(g)
        count = m - t

        pos_cum = np.concatenate([np.zeros((rows, 1)), np.cumsum(x, axis=1)], axis=1)
        h = pos_cum[:, t + 1:] - pos_cum[:, :count]

        u_prev = np.mod(np.concatenate([np.zeros((rows, 1)), cum[:, :count - 1]], axis=1), 1.0)
        w_cum = np.concatenate([np.zeros((rows, 1)), cum], axis=1)
        w_win = w_cum[:, t + 1:] - w_cum[:, :count]
        lhs = (h * (u_prev + w_win)).sum(axis=1) / m

        g_mean = _reference_g_mean(model, self.step)
        gt_cum = np.concatenate([np.zeros((rows, 1)), np.cumsum(g / g_mean, axis=1)], axis=1)
        gt_win = gt_cum[:, t + 1:] - gt_cum[:, :count]
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
    (task.particles, seed, stream), never on ``workers``.
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_batch, jobs, chunksize=max(1, len(jobs) // (8 * workers))))
    n_out = len(parts[0])
    return tuple(np.concatenate([p[i] for p in parts]) for i in range(n_out))
