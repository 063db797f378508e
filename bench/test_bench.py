"""The benchmark's own test: ``python3 -m pytest bench/test_bench.py``.

Runs ``run.py --smoke``, which runs every workload at a small size and
checks the printed metrics and the counting of a wrong reference value.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
