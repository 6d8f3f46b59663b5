"""smclab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk-mc|clt-m1e4-w2|frozen-exact
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (``src/smclab`` and ``BENCHMARK.json``
present); elsewhere it exits with code 2 and prints no result.

``--trace 0``: five fresh interpreters time the set-up (import smclab, build
the model, validate the configs), then the workload runs in fresh
interpreters, one pass after another, while the next pass still fits in
``--seconds`` (at least one pass).  Each end-to-end metric is the median over
its samples.

``--trace 1``: one untraced pass, then two passes under the span tracer.
Per-layer times are the mean of the two traced passes; counts must repeat
exactly between them, or the run fails with exit code 1.
``trace.overhead_s`` is the traced minus the untraced wall time.

Every check of every pass counts as attempted; ``fail_ratio`` is failed over
attempted.  ``correct`` is false when an exception, a non-finite value or a
tolerance miss occurred.  A FAIL verdict of a Monte Carlo experiment counts
as failed but leaves ``correct`` true, since a correct program fails such a
test at a known rate.  The last stdout line is the JSON result; the manifest,
every pass and the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk-mc", "clt-m1e4-w2", "frozen-exact")
SETUP_REPEATS = 5
TRACED_PASSES = 2
DEADLINE_S = 170.0
EXACT_COUNT_SUFFIXES = (".elements", ".queries", ".calls", ".nnz")


class Child:
    """Runs perfbench/child.py in its own session, so a timeout can stop it
    and every pool worker it started."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")

    def run(self, args: list[str]) -> tuple[str, float]:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise SystemExit(f"error: {' '.join(args)} did not finish in time")
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"error: {' '.join(args)} exited with {proc.returncode}")
        return out.decode(), elapsed

    def measured_pass(self, args: list[str]) -> tuple[dict, float]:
        out, elapsed = self.run(args)
        return json.loads(out.strip().splitlines()[-1]), elapsed


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "smclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _git_commit(root: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _untraced(child: Child, base: list[str], seconds: float) -> tuple[dict, list[dict]]:
    setup = [child.run(base + ["--setup"])[1] for _ in range(SETUP_REPEATS)]
    passes, lengths = [], []
    begin = time.perf_counter()
    while True:
        result, elapsed = child.measured_pass(base)
        passes.append(result)
        lengths.append(elapsed)
        if time.perf_counter() - begin + statistics.median(lengths) > seconds:
            break
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    samples = {name: len(passes) for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = len(setup)
    return {"values": metrics, "samples": samples, "setup_samples": setup}, passes


def _traced(child: Child, base: list[str], out_dir: str) -> tuple[dict, list[dict]]:
    plain, _ = child.measured_pass(base)
    traced = []
    for i in range(TRACED_PASSES):
        trace_dir = os.path.join(out_dir, f"trace{i}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        traced.append(child.measured_pass(base + ["--trace", trace_dir])[0])

    counts = [{k: v for k, v in p["layers"].items()
               if k.endswith(EXACT_COUNT_SUFFIXES) or k == "engine.batches"} for p in traced]
    for other in counts[1:]:
        diff = sorted(k for k in set(counts[0]) | set(other) if counts[0].get(k) != other.get(k))
        if diff:
            detail = ", ".join(f"{k}: {counts[0].get(k)} != {other.get(k)}" for k in diff)
            raise SystemExit(f"error: exact-count self-check failed: {detail}")

    layers = {}
    for name in set().union(*(p["layers"] for p in traced)):
        values = [p["layers"].get(name, 0) for p in traced]
        layers[name] = values[0] if name in counts[0] else statistics.mean(values)
    layers["trace.overhead_s"] = statistics.mean(p["wall_s"] for p in traced) - plain["wall_s"]
    return {"values": layers}, [plain, *traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "smclab", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("error: run from the root of an smclab checkout (src/smclab and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    child = Child(root, time.monotonic() + DEADLINE_S)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        measured, passes = _traced(child, base, out_dir)
    else:
        measured, passes = _untraced(child, base, args.seconds)

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    correct = not any(not c["statistical"] for c in failed)
    manifest = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "git_commit": _git_commit(root),
                "src_sha256": _source_digest(root), **passes[0]["manifest"]}
    metrics = {m["name"]: {"value": float(measured["values"].get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}

    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"manifest": manifest, "measured": measured, "passes": passes}, fh, indent=1)
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for name, detail in {c["name"]: c["detail"] for c in failed}.items():
        print(f"FAILED CHECK {name}: {detail}", file=sys.stderr)
    for name, m in metrics.items():
        n = measured.get("samples", {}).get(name)
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f" (median of {n})" if n else ""))
    print(f"fail_ratio = {len(failed) / len(checks):.6g} ratio "
          f"({len(failed)} of {len(checks)} checks failed)")
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
