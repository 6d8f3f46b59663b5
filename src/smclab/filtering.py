"""The alternating selection/mutation particle loop.

Each step weights the current (mutated) population with its potential, runs
one stratified selection, then moves every selected particle independently
through the step's Markov kernel.  The trajectory keeps, per step n, the
selected population Y_n, the mutated population X_n and the weight profile
built from g_n(X_n); by convention Y_0 = X_0.  Like the engine's
``_advance``, the loop calls the model's sampler, potentials and kernels
directly; unlike it, it selects with the library's compensated
``weight_profile`` and ``stratified_resample`` and keeps every generation.

Randomness is derived from a master seed with a counter-based split keyed
by (step, purpose) through the engine's ``stream_rng``, so trajectories are
bit-reproducible regardless of how the work is scheduled:

    purpose 0: initial draws        (step 0 only)
    purpose 1: selection uniforms   (drawn at step n, producing Y_{n+1})
    purpose 2: mutation draws       (producing X_{n+1})
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._engine import stream_rng
from .errors import InvalidArgument
from .model import _BOUND_TOL, ModelConfig
from .resampling import WeightProfile, weight_profile, stratified_resample


@dataclass(frozen=True)
class StepRecord:
    """One generation: selected positions, mutated positions, weight profile."""

    step: int
    selected: np.ndarray
    mutated: np.ndarray
    profile: WeightProfile


@dataclass
class FilterTrajectory:
    """Per-step records of a filter run plus its rng lineage metadata."""

    model: ModelConfig
    particles: int
    seed: int
    records: dict[int, StepRecord] = field(default_factory=dict)

    def record(self, step: int) -> StepRecord:
        if step not in self.records:
            raise InvalidArgument(f"step {step} not stored (available: {sorted(self.records)})")
        return self.records[step]

    @property
    def last_step(self) -> int:
        return max(self.records)


def run_filter(model: ModelConfig, particles: int, steps: int, seed: int) -> FilterTrajectory:
    """Run ``steps`` selection/mutation rounds from a fresh population.

    The trajectory after the call holds records for steps 0..steps; record
    n carries Y_n (selected) and X_n (mutated) with the weight profile of
    g_n(X_n).  Identical (model, particles, steps, seed) give bit-identical
    trajectories.  In debug mode (``python`` without ``-O``) every mutated
    population is checked against the declared bound of the test function.
    """
    if particles < 1:
        raise InvalidArgument("particle count must be >= 1")
    if steps < 0:
        raise InvalidArgument("number of steps must be >= 0")
    ratios = [model.potential(n).ratio() for n in range(steps + 1)]
    needed = 1 + int(np.ceil(max(ratios)))
    if particles < needed:
        warnings.warn(
            f"particle count {particles} is below 1 + ceil(max weight ratio) = {needed}; "
            "variance formulas assume at least that many particles",
            stacklevel=2,
        )

    traj = FilterTrajectory(model=model, particles=particles, seed=seed)
    selected = x = model.sample_positions((particles,), stream_rng(seed, 0, 0))
    for n in range(steps + 1):
        if n > 0:
            selected = x[stratified_resample(prof, stream_rng(seed, n - 1, 1))]
            x = model.kernel(n).sample(selected, stream_rng(seed, n, 2))
        if __debug__:
            fv = np.asarray(model.f(x), dtype=float)
            assert np.all(np.abs(fv) <= model.f_bound(n) + _BOUND_TOL), "test function exceeds declared bound"
        prof = weight_profile(model.potential(n)(x))
        traj.records[n] = StepRecord(step=n, selected=selected, mutated=x, profile=prof)
    return traj
