"""The benchmark's span tracer patches smclab by module attribute name; a
renamed or moved layer must fail here rather than in a traced benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs(tmp_path):
    """Install the tracer, then fire its count hooks and experiment patches."""
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracer\n"
        f"t = tracer.Tracer({str(tmp_path)!r})\n"
        "tracer.install(t)\n"
        "from smclab import resampling\n"
        "from smclab.experiments import default_config, run_experiment\n"
        "resampling.selection_coefficients(resampling.weight_profile([1.0, 2.0, 3.0]))\n"
        "run_experiment(default_config('compare-resamplers', particles=20, replicates=200,\n"
        "                              timing=False))\n"
        "spans, counts = t.collect()\n"
        "print(sorted({s[1] for s in spans}))\n"
        "print(counts['resampling.selection_coefficients.nnz'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names, nnz = proc.stdout.splitlines()
    for name in ("resampling.selection_coefficients", "resampling.weight_profile",
                 "experiments._mc_resample_sums", "estimators.variance_estimate",
                 "resampling.conditional_variance_exact"):
        assert repr(name) in names, name
    assert int(nnz) > 0


def test_import_leaves_scipy_integrate_unloaded():
    """``import smclab`` must not pull in ``scipy.integrate`` (about 26 MiB
    and 0.3 s per process); only the tests use quadrature from scipy."""
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}]\n"
        "import smclab\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
