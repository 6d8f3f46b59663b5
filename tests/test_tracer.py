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
