"""FAIL rates of the Monte Carlo verdicts under two stream generators.

    python3 tools/verdict_study.py --out tools/verdict_study.json

Runs the experiments of the benchmark's workloads at their
``perfbench/workloads.py`` configs, once with every engine stream drawn from
Philox and once from SFC64, on fixed seeds that are never dropped or
re-picked:

- ``clt`` (M = 1e4, 2 workers), seeds 1-100;
- ``compare-resamplers``, seeds 1-100;
- ``variance-step1``, ``conjecture1`` and ``conjecture2`` (step 2), the
  ``desk-mc`` three, seeds 1-20;
- a positive control: ``clt`` on seeds 1-20 with ``sigma2_sq`` replaced by
  the multinomial selection noise, a wrong limit variance the KS rule must
  reject far more often than either generator fails the true one.

For each experiment and generator it records the FAIL count k of n with a
Clopper-Pearson 95% interval and the failing seeds, and for each experiment
Fisher's exact two-sided test of the two generators' counts.  A run that
raises counts as a FAIL and is listed under ``error_seeds``.

The script installs each generator itself: it builds a ``stream_rng`` on the
bit generator and patches it where callers look it up (``_engine``,
``experiments`` and ``filtering``).  Pool workers are forked, so they
inherit the patch.  The ``smclab`` package is imported from the ``src/``
next to this script.  On a shared 2-core x86_64 box the whole study took
17 minutes; the JSON records the measured time.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import multiprocessing
import os
import platform
import sys
import time
import traceback
from unittest import mock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy import stats  # noqa: E402

from smclab import _engine, experiments, filtering  # noqa: E402
from smclab.estimators import EstimateWithCI  # noqa: E402
from workloads import experiment_configs  # noqa: E402

GENERATORS = {"Philox": np.random.Philox, "SFC64": np.random.SFC64}
# (experiment, workload whose config it runs, seeds)
PLAN = (
    ("clt", "clt-m1e4-w2", range(1, 101)),
    ("compare-resamplers", "frozen-exact", range(1, 101)),
    ("variance-step1", "desk-mc", range(1, 21)),
    ("conjecture1", "desk-mc", range(1, 21)),
    ("conjecture2", "desk-mc", range(1, 21)),
)
CONTROL_SEEDS = range(1, 21)
# section7's multinomial selection noise, the g-weighted variance of f = e^x
# under g = e^x on [0, 1]; the stratified sigma2_sq is about 0.079
E = math.e
MULTINOMIAL_NOISE = (E**3 - 1) / (3 * (E - 1)) - ((E**2 - 1) / (2 * (E - 1))) ** 2


def make_stream_rng(bit_generator):
    """``_engine.stream_rng`` on another bit generator."""
    def stream_rng(seed: int, stream: int, batch: int) -> np.random.Generator:
        _engine.keep_freed_memory()
        return np.random.Generator(
            bit_generator(np.random.SeedSequence(entropy=seed, spawn_key=(stream, batch))))
    return stream_rng


@contextlib.contextmanager
def generator(name):
    """Every engine stream drawn from the bit generator ``name``."""
    fn = make_stream_rng(GENERATORS[name])
    with mock.patch.object(_engine, "stream_rng", fn), \
            mock.patch.object(experiments, "stream_rng", fn), \
            mock.patch.object(filtering, "stream_rng", fn):
        yield


def multinomial_sigma2_sq(ref, n_samples, seed=0, workers=1, transform="f"):
    return EstimateWithCI(point=MULTINOMIAL_NOISE, lo=MULTINOMIAL_NOISE,
                          hi=MULTINOMIAL_NOISE, n=n_samples)


def clopper_pearson(k: int, n: int, level: float = 0.95) -> list[float]:
    a = (1 - level) / 2
    lo = 0.0 if k == 0 else float(stats.beta.ppf(a, k, n - k + 1))
    hi = 1.0 if k == n else float(stats.beta.ppf(1 - a, k + 1, n - k))
    return [lo, hi]


def verdict(experiment: str, workload: str, seed: int) -> tuple[bool, bool]:
    """(passed, raised) of one run of ``experiment`` at ``seed``."""
    (cfg,) = [c for c in experiment_configs(workload, seed) if c.experiment == experiment]
    try:
        return experiments.run_experiment(cfg).verdict is True, False
    except Exception:  # counted as a FAIL; the study goes on to the next run
        print(f"{experiment} seed {seed} raised:", file=sys.stderr)
        traceback.print_exc()
        return False, True


def tally(experiment, workload, seeds, control=False) -> dict:
    """Run every seed under both generators, alternating their order, and
    summarise the FAIL counts."""
    runs = {name: {"fail_seeds": [], "error_seeds": [], "seconds": 0.0} for name in GENERATORS}
    for i, seed in enumerate(seeds):
        order = list(GENERATORS) if i % 2 == 0 else list(GENERATORS)[::-1]
        for name in order:
            wrong = (mock.patch.object(experiments, "sigma2_sq", multinomial_sigma2_sq)
                     if control else contextlib.nullcontext())
            t0 = time.perf_counter()
            with generator(name), wrong:
                passed, raised = verdict(experiment, workload, seed)
            runs[name]["seconds"] += time.perf_counter() - t0
            if not passed:
                runs[name]["fail_seeds"].append(seed)
            if raised:
                runs[name]["error_seeds"].append(seed)
    n = len(seeds)
    out = {"workload_config": workload, "seeds": [seeds[0], seeds[-1]], "by_generator": {}}
    for name, r in runs.items():
        k = len(r["fail_seeds"])
        out["by_generator"][name] = {"failed": k, "n": n, "rate": k / n,
                                     "ci95_clopper_pearson": clopper_pearson(k, n),
                                     "fail_seeds": r["fail_seeds"],
                                     "error_seeds": r["error_seeds"],
                                     "seconds": round(r["seconds"], 1)}
    (k1, k2) = (len(runs[name]["fail_seeds"]) for name in GENERATORS)
    out["fisher_exact_p_two_sided"] = float(
        stats.fisher_exact([[k1, n - k1], [k2, n - k2]]).pvalue)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON here (default: stdout)")
    args = parser.parse_args(argv)
    if multiprocessing.get_start_method() != "fork":
        raise SystemExit("error: pool workers must be forked to inherit the patched generator")
    probe = make_stream_rng(_engine.STREAM_BIT_GENERATOR)
    if not np.array_equal(probe(1, 2, 3).random(8), _engine.stream_rng(1, 2, 3).random(8)):
        raise SystemExit("error: the study's stream_rng does not reproduce the engine's")

    t0 = time.perf_counter()
    result = {
        "command": "python3 tools/verdict_study.py --out tools/verdict_study.json",
        "shipped_generator": _engine.STREAM_BIT_GENERATOR.__name__,
        "environment": {"machine": platform.machine(), "cpus": os.cpu_count(),
                        "python": platform.python_version(), "numpy": np.__version__,
                        "scipy": scipy.__version__},
        "experiments": {},
    }
    for experiment, workload, seeds in PLAN:
        result["experiments"][experiment] = tally(experiment, workload, seeds)
        print(f"{experiment}: " + ", ".join(
            f"{name} {v['failed']}/{v['n']}"
            for name, v in result["experiments"][experiment]["by_generator"].items()),
            file=sys.stderr, flush=True)
    control = tally("clt", "clt-m1e4-w2", CONTROL_SEEDS, control=True)
    control["sigma2_sq_replaced_by"] = MULTINOMIAL_NOISE
    result["positive_control_clt_multinomial_sigma2"] = control
    result["total_seconds"] = round(time.perf_counter() - t0, 1)

    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
