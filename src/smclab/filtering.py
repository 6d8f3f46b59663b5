"""The alternating selection/mutation particle loop.

Each step weights the current (mutated) population with its potential, runs
one stratified selection, then moves every selected particle independently
through the step's Markov kernel.  The trajectory keeps, per step n, the
selected population Y_n, the mutated population X_n and the weight profile
built from g_n(X_n); by convention Y_0 = X_0.

Randomness is derived from a master seed with a counter-based split keyed
by (step, purpose) through the engine's ``stream_rng``, so trajectories are
bit-reproducible regardless of how the work is scheduled:

    purpose 0: initial draws        (step 0 only)
    purpose 1: selection uniforms   (drawn at step n, producing Y_{n+1})
    purpose 2: mutation draws       (producing X_{n+1})
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ._engine import stream_rng
from .errors import InvalidArgument
from .model import ModelConfig, ParticleSystem, sample_initial, mutate
from .resampling import WeightProfile, weight_profile, stratified_resample
from .variance import _reference_g_mean


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
    keep_history: bool = True

    def record(self, step: int) -> StepRecord:
        if step not in self.records:
            raise InvalidArgument(
                f"step {step} not stored (keep_history={self.keep_history}, "
                f"available: {sorted(self.records)})"
            )
        return self.records[step]

    @property
    def last_step(self) -> int:
        return max(self.records)

    def _add(self, rec: StepRecord):
        self.records[rec.step] = rec
        if not self.keep_history:
            for s in [s for s in self.records if s < rec.step - 1]:
                del self.records[s]


def run_filter(model: ModelConfig, particles: int, steps: int, seed: int,
               keep_history: bool = True) -> FilterTrajectory:
    """Run ``steps`` selection/mutation rounds from a fresh population.

    The trajectory after the call holds records for steps 0..steps; record
    n carries Y_n (selected) and X_n (mutated) with the weight profile of
    g_n(X_n).  Identical (model, particles, steps, seed) give bit-identical
    trajectories.
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

    traj = FilterTrajectory(model=model, particles=particles, seed=seed, keep_history=keep_history)
    ps = sample_initial(model, particles, stream_rng(seed, 0, 0))
    traj._add(StepRecord(step=0, selected=ps.positions, mutated=ps.positions,
                         profile=weight_profile(ps.potentials)))
    for n in range(steps):
        prof = traj.record(n).profile
        selected = traj.record(n).mutated[stratified_resample(prof, stream_rng(seed, n, 1))]
        selected_ps = ParticleSystem(model=model, positions=selected,
                                     potentials=np.empty(0), generation=n)
        mutated = mutate(selected_ps, None, stream_rng(seed, n + 1, 2))
        traj._add(StepRecord(step=n + 1, selected=selected, mutated=mutated.positions,
                             profile=weight_profile(mutated.potentials)))
    return traj


def _window_views(values: np.ndarray, count: int, width: int):
    """Sliding windows values[i:i+width] for i = 0..count-1, as columns."""
    return [values[j:j + count] for j in range(width)]


def k_tuple_mean(traj: FilterTrajectory, step: int, k: int, h: Callable,
                 which: str = "mutated") -> float:
    """Sliding-window empirical mean (1/M) sum_{i=1}^{M-k} h(x_i, ..., x_{i+k}).

    ``h`` takes k+1 equal-length arrays (vectorized over windows).  ``which``
    selects the mutated (X) or selected (Y) population of the step.
    """
    m = traj.particles
    if k < 0 or k >= m:
        raise InvalidArgument(f"tuple size k must satisfy 0 <= k <= M-1, got {k}")
    rec = traj.record(step)
    if which not in ("mutated", "selected"):
        raise InvalidArgument("which must be 'mutated' or 'selected'")
    x = rec.mutated if which == "mutated" else rec.selected
    vals = np.asarray(h(*_window_views(x, m - k, k + 1)), dtype=float)
    return float(vals.sum() / m)


def conjecture2_lhs(traj: FilterTrajectory, step: int, t: int, h: Callable,
                    psi: Callable) -> float:
    """Windowed statistic with the *actual* weight bookkeeping:

    (1/M) sum_{m=1}^{M-t} h(X_m..X_{m+t}) psi(u_{m-1}, w_m, ..., w_{m+t})

    where u, w come from the step's weight profile.
    """
    m = traj.particles
    if t < 0 or t >= m:
        raise InvalidArgument(f"tuple size t must satisfy 0 <= t <= M-1, got {t}")
    rec = traj.record(step)
    x = rec.mutated
    prof = rec.profile
    count = m - t
    hv = np.asarray(h(*_window_views(x, count, t + 1)), dtype=float)
    psiv = np.asarray(psi(prof.u[:count], *_window_views(prof.w, count, t + 1)), dtype=float)
    return float((hv * psiv).sum() / m)


def conjecture2_rhs(traj: FilterTrajectory, step: int, t: int, h: Callable,
                    psi: Callable, rng: np.random.Generator,
                    g_mean: Optional[float] = None) -> float:
    """Same statistic with the weight arguments replaced by their limits:
    a single fresh uniform for the fractional part and the normalized
    potential gt = g_step / g_mean for the weights.

    ``g_mean`` defaults to the model's weighted reference mean of the
    step's potential (closed form for the built-in model).
    """
    m = traj.particles
    if t < 0 or t >= m:
        raise InvalidArgument(f"tuple size t must satisfy 0 <= t <= M-1, got {t}")
    rec = traj.record(step)
    x = rec.mutated
    if g_mean is None:
        g_mean = _reference_g_mean(traj.model, step)
    gt = traj.model.potential(step)(x) / g_mean
    count = m - t
    hv = np.asarray(h(*_window_views(x, count, t + 1)), dtype=float)
    u = np.full(count, rng.random())
    psiv = np.asarray(psi(u, *_window_views(gt, count, t + 1)), dtype=float)
    return float((hv * psiv).sum() / m)


def trajectory_to_csv(traj: FilterTrajectory, path) -> None:
    """Dump the stored generations for debugging: one row per particle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "index", "y_position", "x_position", "weight"])
        for step in sorted(traj.records):
            rec = traj.records[step]
            for i in range(traj.particles):
                writer.writerow([step, i, repr(float(rec.selected[i])),
                                 repr(float(rec.mutated[i])), repr(float(rec.profile.w[i]))])
