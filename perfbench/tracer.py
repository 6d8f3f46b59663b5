"""Span tracer that wraps smclab's public functions from the outside.

Every wrapper is installed on the module attribute through which its callers
look the function up (``smclab._engine.batched_select``, not
``smclab.batched_select``), so no file of the package is touched.  A span
records name, process id, start, end and parent span; counts are recorded at
the same boundaries.  Spans stay in memory and are written out at the end.

Pool workers forked by ``run_stream`` inherit the wrappers.  Each worker
appends its spans and counts to ``<spool>/<pid>.jsonl`` whenever its
outermost span (one engine batch) ends, before the batch result is sent
back, so the parent has every worker span once ``run_stream`` returns.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from collections import Counter, defaultdict

TASK_CLASSES = ("SelectedSumTask", "WindowPhiSumTask", "WeightedRatioTask",
                "Conjecture2Task", "PhiTupleTask")


def _size(value) -> int:
    return int(getattr(value, "size", 1))


class Tracer:
    """In-memory spans and counts of one process, spooled from workers."""

    def __init__(self, spool_dir: str):
        self.main_pid = os.getpid()
        self.spool_dir = spool_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.spans: list[tuple] = []  # (span id, name, pid, start, end, parent id)
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.next_id = 0

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span ``name``; ``count(args, kwargs, result)``
        yields (counter, increment) pairs recorded with the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans.append((span_id, name, os.getpid(), start, end, parent))
                tracer.counts[name + ".calls"] += 1
            if count is not None:
                for key, inc in count(args, kwargs, result):
                    tracer.counts[key] += inc
            if not tracer.stack and os.getpid() != tracer.main_pid:
                tracer._spool()
            return result

        return traced

    def _spool(self):
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self):
        """All spans and counts: this process's plus every spooled worker's."""
        spans = list(self.spans)
        counts = Counter(self.counts)
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name)) as fh:
                for line in fh:
                    rec = json.loads(line)
                    spans.extend(tuple(s) for s in rec["spans"])
                    counts.update(rec["counts"])
        return spans, counts


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of smclab where their callers look them up."""
    from smclab import _engine, experiments, filtering, resampling, variance

    def patch(module, attr, name, count=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), count))

    elements = lambda a, k, r: [("variance.beta_pair_u_integral.elements", _size(r))]
    patch(_engine, "beta_pair_u_integral", "variance.beta_pair_u_integral", elements)
    patch(_engine, "beta0_u_integral", "variance.beta0_u_integral")
    patch(variance, "_cube_gap", "variance._cube_gap")
    patch(_engine, "batched_select", "engine.batched_select",
          lambda a, k, r: [("engine.batched_select.queries", _size(a[0]))])
    patch(_engine, "section7_pf1", "model.section7_pf1")

    build_model = _engine.build_model

    def traced_model(ref):
        model = build_model(ref)
        potential, kernel = model.potential, model.kernel

        def traced_potential(n):
            spec = potential(n)
            return dataclasses.replace(spec, fn=tracer.wrap("model.potential", spec.fn))

        def traced_kernel(n):
            spec = kernel(n)
            return dataclasses.replace(spec, sample=tracer.wrap("model.kernel_sample", spec.sample))

        return dataclasses.replace(
            model,
            sample_positions=tracer.wrap("model.sample_positions", model.sample_positions),
            potential=traced_potential,
            kernel=traced_kernel,
        )

    _engine.build_model = traced_model

    for cls_name in TASK_CLASSES:
        cls = getattr(_engine, cls_name)
        cls.__call__ = tracer.wrap(f"engine.task.{cls_name}", cls.__call__,
                                   lambda a, k, r: [("engine.batches", 1)])

    patch(experiments, "run_stream", "engine.run_stream")
    patch(experiments, "sigma1_sq", "variance.sigma1_sq")
    patch(experiments, "_mc_resample_sums", "experiments._mc_resample_sums")
    for attr in ("variance_estimate", "mean_estimate", "normality_check"):
        patch(experiments, attr, f"estimators.{attr}")

    nnz = lambda a, k, r: [("resampling.selection_coefficients.nnz", int(r.matrix.nnz))]
    kahan = lambda a, k, r: [("numerics.kahan_cumsum.elements", _size(r))]
    library = {
        "weight_profile": ("resampling.weight_profile", None),
        "selection_coefficients": ("resampling.selection_coefficients", nnz),
        "conditional_variance_exact": ("resampling.conditional_variance_exact", None),
        "conditional_variance_oracle": ("resampling.conditional_variance_oracle", None),
        "multinomial_conditional_variance": ("resampling.baseline_variance", None),
        "residual_conditional_variance": ("resampling.baseline_variance", None),
        "systematic_conditional_variance": ("resampling.systematic_conditional_variance", None),
        "stratified_resample": ("resampling.stratified_resample", None),
        "kahan_cumsum": ("numerics.kahan_cumsum", kahan),
        "beta0": ("variance.beta0", None),
        "beta1": ("variance.beta1", None),
        "run_filter": ("filtering.run_filter", None),
    }
    for module in (resampling, experiments, filtering):
        for attr, (name, count) in library.items():
            if hasattr(module, attr):
                patch(module, attr, name, count)


def layer_metrics(spans, counts, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``<name>.s`` is self time: span duration minus the durations of its child
    spans in the same process, summed over every process.
    """
    children = defaultdict(float)
    for span_id, _, pid, start, end, parent in spans:
        if parent is not None:
            children[(pid, parent)] += end - start
    self_s = defaultdict(float)
    for span_id, name, pid, start, end, _ in spans:
        self_s[name] += (end - start) - children[(pid, span_id)]

    main_pid = os.getpid()
    roots = [s for s in spans if s[2] == main_pid and s[5] is None]
    batches = [s for s in spans if s[1].startswith("engine.task.")]
    streams = [s for s in spans if s[1] == "engine.run_stream" and s[2] == main_pid]
    overhead = delay = pool_busy = pool_capacity = 0.0
    for _, _, _, start, end, _ in streams:
        inside = [b for b in batches if start <= b[3] and b[4] <= end]
        workers = {b[2] for b in inside if b[2] != main_pid}
        busy = sum(b[4] - b[3] for b in inside)
        overhead += (end - start) - busy / max(1, len(workers))
        if inside:
            delay += min(b[3] for b in inside) - start
        if workers:
            pool_busy += busy
            pool_capacity += len(workers) * (end - start)

    metrics = {f"{name}.s": value for name, value in self_s.items()}
    metrics.update(counts)
    metrics["engine.pool_overhead_s"] = overhead
    metrics["engine.first_batch_delay_s"] = delay
    metrics["engine.worker_idle_frac"] = 1.0 - pool_busy / pool_capacity if pool_capacity else 0.0
    metrics["experiments.self_s"] = wall_s - sum(end - start for _, _, _, start, end, _ in roots)
    return metrics

