"""Print the sha256 of every byte-reproducible report, one line each.

    python3 tools/report_digests.py > digests.txt

Runs the six report experiments at a small scale (seed 5) through the
command line entry point with ``--no-timing``, as CSV and as JSON, with
``--workers 1`` and ``2`` where the experiment reads workers, and the four
``beta-table`` grids at their default size.  ``variance-step0``, ``clt``
and ``compare-resamplers`` run again on two model tables, given through
``--config`` (printed as ``--config <name>``): a sloped table off every
default, and a ratio-30 table whose step-0 windows reach k = 30.
``conjecture2`` runs again on the sloped table, where its step-2 g-mean
comes from quadrature.  A refactor that must not move a digit prints the
same lines before and after; compare the two outputs with ``diff``.  The
``smclab`` package is imported from the ``src/`` next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from smclab.cli import main  # noqa: E402

SEED = 5
# only flags the experiment reads; at M = 2000 a batch holds 256 replicates,
# so 600 replicates make three batches for the workers to share
SMALL = ["--particles", "2000", "--replicates", "600"]
REPORTS = {
    "conjecture1": SMALL,
    "conjecture2": SMALL + ["--step", "2", "--tuple-size", "2"],
    "variance-step0": SMALL + ["--replicates2", "300"],
    "variance-step1": SMALL + ["--replicates2", "300"],
    "clt": SMALL + ["--replicates2", "300"],
    "compare-resamplers": SMALL,
}
SERIAL_ONLY = ("compare-resamplers",)  # reads no worker count
TABLES = ("beta0", "beta1", "phi0", "phik")
# a model table off every default: shifted initial law and kernel, scaled
# and sloped exp potential, quadratic test function
SLOPED = {"name": "sloped",
          "initial": {"law": "uniform", "lo": 0.0, "hi": 1.5},
          "kernel": {"kind": "uniform_shift", "lo": -0.25, "hi": 0.75},
          "g": {"form": "exp", "scale": 0.5, "rate": 1.5},
          "f": {"form": "poly", "coeffs": [0.2, 1.0, -0.3]}}
# potential ratio e^3.4 ~ 30 on [0, 1]: 31 step-0 windows, against at most
# about 10 on the other tables
RATIO30 = {"name": "ratio30",
           "g": {"form": "exp", "rate": 3.4},
           "f": {"form": "poly", "coeffs": [0.2, 1.0, -0.3]}}
ON_TABLES = ("variance-step0", "clt", "compare-resamplers")
ON_SLOPED = ("conjecture2",)


def digest(argv: list[str], model=None) -> str:
    """sha256 of the file the command line writes for ``argv``, with a
    config file naming ``model`` when one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if model is not None:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump({"schema": 1, "experiment": argv[0], "model": model}, fh)
            argv = [*argv, "--config", config]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", out])
        if code not in (0, 2):
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        with open(out, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def commands():
    """Yield (argv, model table or None)."""
    runs = [(experiment, None) for experiment in REPORTS]
    runs += [(experiment, table) for table in (SLOPED, RATIO30) for experiment in ON_TABLES]
    runs += [(experiment, SLOPED) for experiment in ON_SLOPED]
    for experiment, model in runs:
        worker_counts = [None] if experiment in SERIAL_ONLY else ["1", "2"]
        for workers in worker_counts:
            for fmt in ("csv", "json"):
                argv = [experiment, "--seed", str(SEED), *REPORTS[experiment],
                        "--format", fmt, "--no-timing"]
                if workers is not None:
                    argv += ["--workers", workers]
                yield argv, model
    for kind in TABLES:
        yield ["beta-table", "--kind", kind], None


if __name__ == "__main__":
    for argv, model in commands():
        label = " ".join(argv) + ("" if model is None else f" --config <{model['name']}>")
        print(f"{digest(argv, model)}  {label}", flush=True)
