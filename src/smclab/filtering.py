"""The alternating selection/mutation particle loop, with every generation kept.

Each step weights the current (mutated) population with its potential, runs
one stratified selection, then moves every selected particle independently
through the step's Markov kernel.  The trajectory keeps, per step n, the
selected population Y_n and the mutated population X_n; by convention
Y_0 = X_0.  The loop is the engine's ``populations`` on one row drawing
from ``stream_rng(seed, 0, 0)``, so a trajectory is the first replicate of
the engine's batch 0 of stream 0.  A generation's weight profile is
``weight_profile(model.potential(n)(record(n).mutated))``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._engine import populations, stream_rng
from .errors import InvalidArgument
from .model import _BOUND_TOL, ModelConfig
from .variance import min_particles


@dataclass(frozen=True)
class StepRecord:
    """One generation: selected and mutated positions."""

    selected: np.ndarray
    mutated: np.ndarray


@dataclass
class FilterTrajectory:
    """Per-step records of a filter run."""

    records: dict[int, StepRecord] = field(default_factory=dict)

    def record(self, step: int) -> StepRecord:
        if step not in self.records:
            raise InvalidArgument(f"step {step} not stored (available: {sorted(self.records)})")
        return self.records[step]


def run_filter(model: ModelConfig, particles: int, steps: int, seed: int) -> FilterTrajectory:
    """Run ``steps`` selection/mutation rounds from a fresh population.

    The trajectory holds records for steps 0..steps, read with
    ``record(n)``: record n carries Y_n (selected) and X_n (mutated).
    Identical (model, particles, steps, seed) give bit-identical
    trajectories.  In debug mode (``python`` without ``-O``) every mutated
    population is checked against the declared bounds of the step's
    potential and of the test function.
    """
    if particles < 1:
        raise InvalidArgument("particle count must be >= 1")
    if steps < 0:
        raise InvalidArgument("number of steps must be >= 0")
    needed = min_particles(model, steps)
    if particles < needed:
        warnings.warn(
            f"particle count {particles} is below 1 + the widest correlation window = {needed}; "
            "variance formulas assume at least that many particles",
            stacklevel=2,
        )

    traj = FilterTrajectory()
    gens = populations(model, (1, particles), steps, stream_rng(seed, 0, 0))
    for n, (y, x) in enumerate(gens):
        if __debug__:
            model.potential(n)(x)  # asserts the declared potential bounds
            fv = np.asarray(model.f(x), dtype=float)
            assert np.all(np.abs(fv) <= model.f_bound(n) + _BOUND_TOL), "test function exceeds declared bound"
        traj.records[n] = StepRecord(selected=y[0], mutated=x[0])
    return traj
