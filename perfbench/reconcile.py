"""Print this host's first numbers next to the figures ROADMAP.md quotes.

    python3 perfbench/reconcile.py

ROADMAP's baseline: 100-160 µs/it on the n=5 game (d=50), and fulldet on
the n=20 game at 561 µs/it with a gap every row and 283 µs/it with a gap
every 100 rows.  This script times the same cases (median wall time of a
few solves, with the host-speed probe read before and after) so the
difference can be recorded in NOTES.md; it checks nothing and is not part
of the benchmark run.
"""

from __future__ import annotations

import json
import os
import statistics
from time import perf_counter

from run import BLAS_THREADS

os.environ.update(BLAS_THREADS)

import worker  # noqa: E402
from worker import cli, problems, solver  # noqa: E402

REPEATS = 5


def us_per_it(p, kind, K: int, gap_every: int) -> float:
    config = solver.SolverConfig(kind, K=K, seed=1, gap_every=gap_every)
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        solver.run_solver(p, config)
        times.append((perf_counter() - t0) / K * 1e6)
    return statistics.median(times)


def host_speed() -> float:
    """Median probe time over the reference: above 1 is a slow host."""
    refs = json.loads((worker.BENCH / "references.json").read_text(encoding="utf-8"))
    return worker.probe_burst() / refs["probe_ref_s"]


def main() -> int:
    print(worker.versions_line())
    print(f"host speed before: probe at {host_speed():.3f}x its reference time (wall times below are unscaled)")
    cfg = cli.parse_config_text(
        worker.N5_CONFIG.format(seed=0, run_seed=1, strategies="fulldet", **worker.SIZES["full"]["game-n5-session"])
    )
    p5 = cli.build_problem(cfg)
    n5 = {name: us_per_it(p5, cli.build_estimator(cfg, p5, name), 2000, 100) for name in worker.N5_STRATEGIES}
    print("n=5, gap_every=100 (ROADMAP: 100-160 us/it): " + ", ".join(f"{k} {v:.1f}" for k, v in n5.items()))
    p20 = problems.gen_policeman_burglar(20)
    fulldet = cli.build_estimator(cfg, p20, "fulldet")
    every1 = us_per_it(p20, fulldet, 300, 1)
    every100 = us_per_it(p20, fulldet, 300, 100)
    print(f"n=20 fulldet (ROADMAP: 561 / 283 us/it): gap_every=1 {every1:.1f}, gap_every=100 {every100:.1f} us/it")
    print(f"host speed after: probe at {host_speed():.3f}x its reference time")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
