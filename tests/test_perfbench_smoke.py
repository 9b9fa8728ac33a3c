"""The benchmark's self-test runs in the test suite.

``perfbench/run.py --smoke`` runs every workload at tiny sizes, with and
without its tracer, which wraps module-level names of ``solver`` and
``estimators`` and two ``MixingVI`` methods.  The tracer lists a wrapped
name that is gone in ``absent`` instead of raising, so the smoke run alone
would not notice one; the tracer test below asserts that none is absent.
The benchmark prices every solve with the tracer's ``full_work``, traced or
not, so a payload it cannot price must give None, never an error.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from vistep import estimators, problems, solver

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_finds_every_name_it_wraps():
    tracer_module = _load_tracer()
    originals = (solver.est_pair, estimators.eval_full, problems.MixingVI.phi)
    tracer = tracer_module.Tracer()
    tracer.install(solver, estimators, problems)
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert (solver.est_pair, estimators.eval_full, problems.MixingVI.phi) == originals


def test_full_work_prices_every_payload_or_gives_none():
    # the --smoke run's n = 4 game never reaches the grid form of n >= 23
    full_work = _load_tracer().full_work
    quad = problems.gen_quadratic_vi(6, 0.5, 2.0, seed=1)
    mixing = problems.gen_mixing_vi([quad, problems.gen_quadratic_vi(6, 0.5, 2.0, seed=2)], 1.0)
    for p in (problems.gen_policeman_burglar(3), problems.gen_policeman_burglar(23), quad, mixing):
        work = full_work(p.payload)
        assert work is None or type(work) is int, type(p.payload).__name__


def test_benchmark_smoke_runs_clean():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, proc.stdout
