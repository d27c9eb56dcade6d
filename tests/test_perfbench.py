"""The benchmark's self-test, run against this tree.

perfbench parses the v1 log and the CLI artifacts, so a change under src/
that breaks what it reads fails here, not first in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    """python3 perfbench/selftest.py, from the repository root, exits 0 (about 10 s)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
