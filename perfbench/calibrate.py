"""Regenerate perfbench/references.json: golden accuracies and digests,
ceilings and the probe's reference time.

    python3 perfbench/calibrate.py

For every workload and size mode it runs the golden round (seed 0), whose
final accuracies (gap_avg on games, dist_sq on the quadratic, |F(z_K)| on
mixing) and trace sha256 digests are pinned, and one round per seed in
CALIBRATION_SEEDS with the same problem/run seed scheme as ``worker.py``.
A solve's ceiling, the divergence guard for every other seed, is
CEILING_FACTOR times the worst accuracy seen, and at least the worker's
NOISE_FLOOR.  The calibration seeds are kept apart from the seeds the
benchmark is proven on (31-50 in NOTES.md), so the ceilings are tested on
inputs they were not fitted to.  ``probe_ref_s`` is the median of all the
probe bursts the rounds ran; the worker scales its CPU times by it (see
NOTES.md, "Steadiness").

Rerun only when the workloads change; a program change that moves these
numbers must show up as a failed check or a digest mismatch, not be
recalibrated away.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
from pathlib import Path

from run import BLAS_THREADS

# the same BLAS thread cap as the benchmark, so the pinned digests match it
os.environ.update(BLAS_THREADS)

import worker  # noqa: E402

CALIBRATION_SEEDS = range(100, 130)
CEILING_FACTOR = 2.0


class _NoCeiling(dict):
    def __missing__(self, key):
        return math.inf


def calibrate(mode: str, workload: str, out_dir: Path, probes: list[float]) -> dict:
    refs = {"ceilings": _NoCeiling(), "digests": {}, "probe_ref_s": 1.0}
    golden = worker.run_round(workload, mode, worker.GOLDEN_SEED, worker.GOLDEN_SEED, None, refs, out_dir)
    seeded = [worker.run_round(workload, mode, s, s * 1000 + 1, None, refs, out_dir) for s in CALIBRATION_SEEDS]
    failures = [f for r in [golden] + seeded for f in r.failures]
    if failures:
        raise SystemExit(f"{mode}/{workload}: calibration round failed: {failures[:5]}")
    ceilings = {}
    for label in golden.accuracy:
        values = [golden.accuracy[label]] + [r.accuracy[label] for r in seeded]
        ceilings[label] = float(f"{max(CEILING_FACTOR * max(values), worker.NOISE_FLOOR):.3e}")
        print(
            f"{mode:5s} {workload:16s} {label:12s} golden {golden.accuracy[label]:.6e} min {min(values):.3e}"
            f" median {statistics.median(values):.3e} max {max(values):.3e} -> ceiling {ceilings[label]:.3e}"
        )
    probes.extend(b for r in [golden] + seeded for b in r.probes)
    return {"golden": dict(golden.accuracy), "ceilings": ceilings, "digests": dict(sorted(golden.digests.items()))}


def main() -> int:
    out_dir = worker.BENCH / "out" / "calibrate"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    probes: list[float] = []  # every probe burst's CPU time
    try:
        refs = {mode: {w: calibrate(mode, w, out_dir, probes) for w in worker.WORKLOADS} for mode in ("full", "smoke")}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    refs = {"probe_ref_s": float(f"{statistics.median(probes):.4e}"), **refs}
    path = worker.BENCH / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
