"""The benchmark's own self-test (bench/selftest.py) as part of the suite.

It pins the bindings the bench tracer patches and the routing counts its
per-layer metrics rest on, so a library change that breaks either fails
here and not first in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "selftest.py"], cwd=BENCH,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
