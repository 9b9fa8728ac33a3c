"""The benchmark's self-test runs in the test suite.

``perfbench/run.py --smoke`` runs every workload at tiny sizes, with and
without its tracer, which wraps module-level names of ``solver`` and
``estimators``.  A renamed or removed name that the benchmark imports or
wraps therefore fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
