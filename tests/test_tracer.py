"""The benchmark's span tracer patches smclab by module attribute name; a
renamed or moved layer must fail here rather than in a traced benchmark run."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs(tmp_path):
    script = (
        "import sys\n"
        f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {os.path.join(ROOT, 'perfbench')!r}]\n"
        "import tracer\n"
        f"tracer.install(tracer.Tracer({str(tmp_path)!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
