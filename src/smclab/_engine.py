"""Batched, reproducible Monte Carlo engine behind the experiment harness.

Replicates are partitioned into fixed-size batches of rows; batch b of
stream s draws its generator from SFC64 (``STREAM_BIT_GENERATOR``) seeded
with SeedSequence(seed, spawn_key=(s, b)).  Batch boundaries depend only on
the particle count, and results are assembled in batch order, so every
output is bit-identical regardless of worker count or scheduling.

Tasks are small picklable dataclasses holding only primitives plus a
JSON-able model reference; each call builds the model from the reference and
maps (rows, rng) to a tuple of per-replicate value arrays.

Every Monte Carlo stream runs under one memory policy, ``keep_freed_memory``,
which the first ``stream_rng`` call in each process sets (importing smclab
does not): on glibc, the arrays a batch frees stay in the process for the
next batch.  It changes no number.

The span tracer ``perfbench/tracer.py`` replaces ``beta0_u_integral``,
``beta_pair_u_integral``, ``batched_select``, ``section7_pf1``, ``build_model``
and the five task classes' ``__call__`` on this module, so the engine must look
them up here, as module globals at call time, or traced runs miss the layer.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidArgument, SmclabError
from .model import build_model, section7_pf1
from .resampling import live_windows
from .variance import (
    beta0_u_integral,
    beta_pair_u_integral,
    correlation_window,
    snapped_frac,
    _reference_g_mean,
)

# target elements per batch block; rows per batch = BATCH_TARGET // particles
BATCH_TARGET = 512_000


def batch_rows(particles: int) -> int:
    return max(1, BATCH_TARGET // max(1, particles))


@functools.cache
def keep_freed_memory() -> None:
    """Let glibc keep freed batch arrays in the process, once per process.

    A batch array of ``BATCH_TARGET`` doubles (3.9 MiB) sits in glibc's
    dynamic regime: after the first free its trim threshold is 7.8 MiB, each
    batch frees more than that at the top of the heap, and the next batch
    faults the same pages in again.  The mmap threshold is fixed at the
    ceiling of glibc's dynamic one on 64-bit, 32 MiB, and the trim threshold
    at twice that, as glibc's rule pairs them: up to 64 MiB of freed memory
    stays for reuse.  Setting either one ends the dynamic rule, so both are
    set.  No result depends on it; without ``mallopt`` (not glibc) it does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, TypeError):  # no mallopt; Windows loads no CDLL(None)
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# the bit generator of every Monte Carlo stream; a report's digits depend on it
STREAM_BIT_GENERATOR = np.random.SFC64


def stream_rng(seed: int, stream: int, batch: int) -> np.random.Generator:
    """The generator of batch ``batch`` of stream ``stream``: SFC64 seeded
    with ``SeedSequence(entropy=seed, spawn_key=(stream, batch))``, so every
    (stream, batch) pair has its own independent stream.  The first call in
    a process sets the memory policy, ``keep_freed_memory``."""
    keep_freed_memory()
    return np.random.Generator(
        STREAM_BIT_GENERATOR(np.random.SeedSequence(entropy=seed, spawn_key=(stream, batch)))
    )


def running_weights(g: np.ndarray) -> np.ndarray:
    """Row-wise running sums S_i of w = M g / sum(g), with S_M pinned to M.

    Rounding can leave the sums before a tail of tiny weights an ulp above
    M; clamped to M before the pin, every row stays non-decreasing, as
    ``batched_select``'s stratum count requires.
    """
    m = g.shape[1]
    cum = np.cumsum(m * g / g.sum(axis=1, keepdims=True), axis=1)
    np.minimum(cum, m, out=cum)
    cum[:, -1] = m
    return cum


def batched_select(x: np.ndarray, g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Stratified selection row by row; returns the selected rows.

    Row r draws the r-th block of M uniforms, so stratum m's point is
    p_m = m - U_m in [m - 1, m], and the points never decrease.  Particle i
    is selected by every stratum with S_{i-1} < p_m <= S_i, so it takes
    c_i = n_i - n_{i-1} copies, where n_i counts the points at or below S_i.
    That count needs no search: every stratum m <= floor(S_i) has its point
    at or below S_i and every m >= floor(S_i) + 2 above it, so n_i is
    j + (p_{j+1} <= S_i) with j = floor(S_i), the comparison a left binary
    search makes.  A sum clamped to M clips j to M - 1, where p_M <= M.
    Strata select in ancestor order, so repeating each particle c_i times
    gives the selected row.

    The running sums are plain ``np.cumsum`` rather than the library's
    compensated ones, so a row agrees with ``resample("stratified", ...)``
    on the same draws up to their rounding.
    """
    rows, m = x.shape
    cum = running_weights(g)
    strata = np.arange(1, m + 1, dtype=float)[None, :] - rng.random((rows, m))
    # the sums are >= 0, so truncation is floor; int32 counts, differenced
    # in place once the strata and sums are freed, keep one call's peak at
    # about 3.6 times the population's bytes
    n = cum.astype(np.int32)
    np.minimum(n, m - 1, out=n)
    n += np.take_along_axis(strata, n, axis=1) <= cum
    del strata, cum
    n[:, 1:] -= n[:, :-1].copy()
    return np.repeat(x.ravel(), n.ravel()).reshape(rows, m)


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
    """Initial (rows, M) draw plus ``steps`` selection/mutation rounds;
    returns the mutated population X_steps (X_0 when steps = 0)."""
    for _, x in populations(model, shape, steps, rng):
        pass
    return x


@dataclass(frozen=True)
class SelectedSumTask:
    """(1/sqrt(M)) sum_m T(Y_step), step >= 1, with T = f or the built-in
    step-1 transform P f_1 (``transform='pf1'``); Y_step is round ``step``'s
    selection on X_{step-1}, and no mutation is drawn after it."""

    model_ref: object
    particles: int
    step: int = 1
    transform: str = "f"

    def __call__(self, rows: int, rng: np.random.Generator):
        if self.step < 1:
            raise InvalidArgument(f"selected sums start at step 1, got step {self.step}")
        fn = transform_function(self.model_ref, self.transform)
        model = build_model(self.model_ref)
        x = _advance(model, (rows, self.particles), self.step - 1, rng)
        y = batched_select(x, model.potential(self.step - 1).fn(x), rng)
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
        x = _advance(model, (rows, self.particles), self.step, rng)
        g = model.potential(self.step).fn(x)
        fv = np.asarray(model.f(x), dtype=float)
        vals = math.sqrt(self.particles) * (g * fv).sum(axis=1) / g.sum(axis=1)
        return (vals,)


@dataclass(frozen=True)
class PhiTupleTask:
    """sum_k T(X_1) T(X_{k+1}) * closed-form window integral over i.i.d.
    initial-law tuples, k = 0..K: one sample of the step-0 selection-noise
    variance of T (``transform`` as in SelectedSumTask)."""

    # no particles: batch_rows(0) = BATCH_TARGET tuples per batch
    particles: ClassVar[int] = 0
    model_ref: object
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
        x = _advance(model, (rows, m), self.step, rng)
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
        x = _advance(model, (rows, m), self.step, rng)
        g = model.potential(self.step).fn(x)
        h = _window_sums(np.cumsum(x, axis=1), t)
        cum = running_weights(g)
        u_prev = np.concatenate([np.zeros((rows, 1)), snapped_frac(cum[:, :m - t - 1])], axis=1)
        lhs = (h * (u_prev + _window_sums(cum, t))).sum(axis=1) / m

        gt_win = _window_sums(np.cumsum(g / _reference_g_mean(self.model_ref, self.step), axis=1), t)
        u_fresh = rng.random((rows, 1))
        rhs = (h * (u_fresh + gt_win)).sum(axis=1) / m
        return (lhs, rhs)


def _run_batch(args):
    task, seed, stream, batch, rows = args
    return task(rows, stream_rng(seed, stream, batch))


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
