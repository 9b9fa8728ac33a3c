"""The benchmark's self-test runs in the test suite.

``perfbench/run.py --smoke`` runs every workload at tiny sizes, with and
without its tracer, which wraps module-level names of ``solver`` and
``estimators`` and two ``MixingVI`` methods.  The tracer lists a wrapped
name that is gone in ``absent`` instead of raising, so the smoke run alone
would not notice one; the tracer test below asserts that none is absent.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from vistep import estimators, problems, solver

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_name_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = (solver.est_pair, estimators.eval_full, problems.MixingVI.phi)
    tracer = tracer_module.Tracer()
    tracer.install(solver, estimators, problems)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert (solver.est_pair, estimators.eval_full, problems.MixingVI.phi) == originals


def test_benchmark_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
