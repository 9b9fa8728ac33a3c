"""vistep benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload game-n5-session --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each workload runs in a fresh
``worker.py`` process, so ``peak_rss_mb`` is that workload's own, with the
BLAS thread pools set to one thread through the worker's environment.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer split.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit); the lines
before it are the human report.  ``--smoke`` runs all three workloads at tiny
sizes with and without tracing and checks that every metric BENCHMARK.json
declares is printed with its unit.  A missing ``src/vistep`` is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("game-n5-session", "game-n30-dense", "free-sm")
WORKER_TIMEOUT_S = 170
# One BLAS thread.  On a shared 2-CPU host two threads made round times
# swing by about 20% between 10 s windows (free-sm, game-n30-dense); one
# thread held that to 2-7% at a cost of 10% (free-sm) to 2x (game-n30-dense).
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit() -> str:
    """HEAD of the checkout; git looks no higher than the checkout itself."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True).stdout
    except OSError:
        out = ""
    return out.strip() or "unknown (not a git checkout)"


def declared_metrics() -> dict[int, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple[list[str], dict]:
    env = dict(os.environ, **BLAS_THREADS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}\n{err.strip()}")
    lines = out.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: malformed result {lines[-1]!r}")
    return lines[:-1], result


def check_metrics(result: dict, declared: dict[str, str]) -> list[str]:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing {k}" for k in declared if k not in got]
    problems += [f"undeclared {k}" for k in got if k not in declared]
    problems += [f"{k}: unit {got[k]} != {u}" for k, u in declared.items() if k in got and got[k] != u]
    return problems


def environment_lines() -> list[str]:
    return [
        f"host: {platform.node()} ({platform.machine()}, {platform.system()} {platform.release()})",
        f"nproc: {usable_cpus()}; BLAS threads: {BLAS_THREADS['OPENBLAS_NUM_THREADS']}",
        f"python: {platform.python_version()}",
        f"commit: {commit()}",
    ]


def smoke() -> int:
    declared = declared_metrics()
    attempted = failed = 0
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_worker(workload, 0, 0, trace, smoke=True)
            attempted += result["attempted"]
            failed += result["failed"]
            found = check_metrics(result, declared[trace])
            for name, unit in declared[trace].items():
                if not any(ln.startswith(f"{name} = ") and ln.split()[3:4] == [unit] for ln in lines):
                    found.append(f"{name} not printed with unit {unit}")
            if not result["correct"]:
                found.append("a check failed")
            status = "ok" if not found else "; ".join(found)
            print(f"smoke {workload} trace={trace}: {result['attempted']} ops, {status}")
            problems += found
    ok = not problems and failed == 0
    print(f"smoke: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="vistep benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads, self-test of the output")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "vistep" / "__init__.py").is_file():
        print(f"error: no vistep sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")

    try:
        if args.smoke:
            return smoke()
        declared = declared_metrics()[args.trace]
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for line in environment_lines():
            print(line)
        for workload in workloads:
            lines, result = run_worker(workload, args.seed, args.seconds, args.trace, smoke=False)
            bad = check_metrics(result, declared)
            if bad:
                raise RuntimeError(f"{workload}: output does not match BENCHMARK.json: {'; '.join(bad)}")
            print(f"== {workload} (seed {args.seed}, trace {args.trace})")
            for line in lines:
                print(line)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}/"
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except (RuntimeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
