"""One measured pass of a workload, or one set-up probe, in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed N [--trace DIR]
    python3 perfbench/child.py --workload W --seed N --setup

A pass prints one JSON object as its last line: wall time from the first
library call to the checked result, user plus system CPU of this process and
its (pool) children over the same interval, peak RSS of this process and of
its largest child, the checks, and the manifest.  With ``--trace DIR`` the
pass runs under the span tracer, workers spool into ``DIR/spool`` and the
spans are written to ``DIR/spans.json``.  ``--setup`` only imports smclab,
builds the model and validates the configs; the caller times the process.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
import time


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _pass(args) -> dict:
    import numpy
    import scipy
    import smclab
    import workloads

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(smclab.__file__).startswith(src + os.sep):
        raise SystemExit(f"smclab imported from {smclab.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracer as tracing

        spool = os.path.join(args.trace, "spool")
        os.makedirs(spool, exist_ok=True)
        tracer = tracing.Tracer(spool)
        tracing.install(tracer)

    checks = workloads.Checks()
    cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    workloads.run(args.workload, args.seed, checks)
    wall = time.perf_counter() - t0
    cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "checks": checks.results,
        "manifest": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "pool_start_method": multiprocessing.get_start_method(),
            **workloads.manifest(args.workload, args.seed),
        },
    }
    if tracer is not None:
        spans, counts = tracer.collect()
        out["layers"] = tracing.layer_metrics(spans, counts, wall)
        with open(os.path.join(args.trace, "spans.json"), "w") as fh:
            json.dump({"fields": ["id", "name", "pid", "start", "end", "parent"],
                       "spans": spans, "counts": counts}, fh)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup", action="store_true")
    args = parser.parse_args()
    if args.setup:
        import workloads

        workloads.set_up(args.workload, args.seed)
        return 0
    print(json.dumps(_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
