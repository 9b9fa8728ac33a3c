"""One benchmark workload in one fresh process.

Started by ``run.py``, which sets the BLAS threads to one in this process's
environment before numpy is imported.  vistep is imported from ``src/``
because it is not installed.  The load is a closed loop: one client makes
sequential library calls, grouped in rounds.  A round is everything a user
of the workload does once: set-up, contract verification, the solves, and
writing and reading back every trace.  Rounds repeat until ``--seconds``
have passed; end-to-end metrics are medians over rounds.

    python3 perfbench/worker.py --workload game-n5-session --seed 1 \
        --seconds 30 --trace 0 [--smoke]

The last stdout line is the result object described in ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from vistep import cli, core, estimators, metrics, problems, solver  # noqa: E402
from vistep.estimators import EstimatorKind, Quantizer  # noqa: E402
from vistep.solver import SolverConfig  # noqa: E402

from tracer import (  # noqa: E402
    ORACLE_SPANS,
    PROX_SPANS,
    Tracer,
    full_work,
    phi_work,
    self_times,
    write_spans,
)

WORKLOADS = ("game-n5-session", "game-n30-dense", "free-sm")

# Problem sizes and run lengths.  "smoke" runs the same code paths at tiny
# sizes; it is the benchmark's self-test, not a measurement.
SIZES = {
    "full": {
        "game-n5-session": {"n": 5, "K": 2000, "gap_every": 100, "randk_k": 2, "sigma": 0.05, "points": 3},
        "game-n30-dense": {"n": 30, "K": 100, "gap_every": 1, "points": 1, "mc": 200},
        "free-sm": {"d": 500, "K": 1000, "K_mix": 2000, "randk_k": 50, "sigma": 0.1, "workers": 8, "d_worker": 50, "points": 2, "mc": 2000},
    },
    "smoke": {
        "game-n5-session": {"n": 3, "K": 60, "gap_every": 20, "randk_k": 2, "sigma": 0.05, "points": 2},
        "game-n30-dense": {"n": 4, "K": 20, "gap_every": 1, "points": 1, "mc": 200},
        "free-sm": {"d": 40, "K": 60, "K_mix": 60, "randk_k": 8, "sigma": 0.1, "workers": 3, "d_worker": 10, "points": 2, "mc": 200},
    },
}

N5_STRATEGIES = ("fulldet", "noisy", "past", "vr", "is", "coord", "quant", "qvr")
N30_STRATEGIES = ("fulldet", "past", "vr", "coord")
MIN_ROUNDS = 3
PROBE_PASSES = 3
PROBED_PHASES = ("gen", "verify", "solve")  # the long calls; a burst runs before each
MAX_ATOMS = 5000  # randk quantizers with more subsets than this are verified by Monte Carlo
GOLDEN_SEED = 0  # the round whose accuracies and trace digests are pinned in references.json
# The golden round's inputs are fixed, so each of its solves must land on the
# pinned final accuracy: within GOLDEN_RTOL of it, or within NOISE_FLOOR for
# solves that converge to floating-point noise.  Reordered floating-point
# sums pass; coord on n=30 without its coordinate correction moves its
# accuracy by 9e-8 relative and fails (see NOTES.md).
GOLDEN_RTOL = 1e-9
NOISE_FLOOR = 1e-12

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_us_p50": "us",
    "verify_s": "s",
    "trace_io_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.prox_calls": "count",
    "core.prox_s": "s",
    "core.prox_share": "ratio",
    "problems.gen_s": "s",
    "problems.payload_mb": "MB",
    "problems.oracle_calls": "count",
    "problems.oracle_s": "s",
    "problems.billed_work_ratio": "ratio",
    "problems.billed_work_ratio.fulldet": "ratio",
    "problems.billed_work_ratio.past": "ratio",
    "problems.billed_work_ratio.vr": "ratio",
    "problems.billed_work_ratio.coord": "ratio",
    "estimators.est_pair_self_s": "s",
    "estimators.refreshes": "count",
    "estimators.snapshot_s": "s",
    "estimators.quantize_s": "s",
    "solver.solve_s": "s",
    "solver.loop_self_s": "s",
    "solver.lyapunov_s": "s",
    "metrics.gap_calls": "count",
    "metrics.gap_s": "s",
    "metrics.gap_work_share": "ratio",
    "metrics.verify_rows": "count",
    "metrics.verify_pass_ratio": "ratio",
    "cli.parse_s": "s",
    "cli.write_trace_s": "s",
    "cli.read_trace_s": "s",
    "cli.trace_bytes": "bytes",
    "tracing_overhead_ratio": "ratio",
}


_PROBE_VEC = np.linspace(0.0, 1.0, 1000)
_PROBE_MAT = np.outer(_PROBE_VEC, _PROBE_VEC[::-1]) + np.eye(1000)


def probe() -> float:
    """CPU seconds of a fixed piece of work that involves no vistep code:
    Python-level calls on small arrays, and matvecs on an 8 MB matrix, the
    two kinds of work the workloads are made of."""
    c0 = process_time()
    acc = 0.0
    for _ in range(300):
        acc += float(np.sum(_PROBE_VEC[:50]))
    for _ in range(3):
        acc += float((_PROBE_MAT @ _PROBE_VEC)[0])
    return process_time() - c0


def probe_burst() -> float:
    """The host's speed between two calls: the median of PROBE_PASSES
    probes, after one untimed pass that brings the probe's arrays back into
    cache, so the figure does not depend on what the call before it did."""
    probe()
    return statistics.median(probe() for _ in range(PROBE_PASSES))


class Round:
    """Timings, checks and records of one round.

    Times are process CPU seconds, which leave out the time the hypervisor
    keeps the vCPU from running, scaled to the host's reference speed.  A
    probe burst runs at the start and end of the round and before every
    call of a PROBED_PHASES phase, so where the probes fall is fixed by the
    workload's sequence of calls and not by how long the calls take.  The
    CPU time between two bursts is multiplied by ``probe_ref_s`` over their
    mean (see NOTES.md, "Steadiness")."""

    def __init__(self, tracer: Tracer | None, refs: dict, out_dir: Path, golden: bool = False):
        self.tracer = tracer
        self.refs = refs
        self.out_dir = out_dir
        self.golden = golden
        self.cpu = dict.fromkeys(("parse", "gen", "setup", "verify", "solve", "write", "read"), 0.0)
        self.t = dict(self.cpu)  # the same at the reference speed
        self.busy_cpu = 0.0  # CPU time of the whole round, probes left out
        self.busy = 0.0  # the same at the reference speed
        self.wall = 0.0  # wall time of the whole round, probes included
        self.probes: list[float] = []
        self._calls: list[list] = []  # [phase, cpu seconds, scale factor]
        self._segment: list[list] = []  # calls since the last burst
        self._segment_cpu0 = 0.0
        # per solve: label, its _calls record, iterations, ledger-billed work, run_solver span index
        self.solve_calls: list[tuple[str, list, int, float | None, int]] = []
        self.traces: list[tuple[str, object]] = []  # kept only until trace_io writes them
        self.attempted = 0
        self.failures: list[str] = []
        self.verify_rows = 0
        self.verify_passed = 0
        self.trace_bytes = 0
        self.payload_bytes = 0
        self.digests: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}

    def checkpoint(self) -> None:
        """A probe burst; scales the CPU time since the previous one."""
        segment = process_time() - self._segment_cpu0
        burst = probe_burst()
        if self.probes:
            f = 2.0 * self.refs["probe_ref_s"] / (self.probes[-1] + burst)
            self.busy_cpu += segment
            self.busy += segment * f
            for rec in self._segment:
                rec[2] = f
        self.probes.append(burst)
        self._segment = []
        self._segment_cpu0 = process_time()

    def finish(self) -> None:
        self.checkpoint()
        for phase, cpu, f in self._calls:
            self.cpu[phase] += cpu
            self.t[phase] += cpu * f

    def call(self, phase: str, span: str, fn, *args, info=None, **kwargs):
        if phase in PROBED_PHASES:
            self.checkpoint()
        rec = [phase, 0.0, 1.0]
        self._calls.append(rec)
        self._segment.append(rec)
        c0 = process_time()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(span, info):
                return fn(*args, **kwargs)
        finally:
            rec[1] = process_time() - c0

    def op(self, label: str, fn) -> None:
        """One checked operation: fails if it raises or returns False."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as e:  # every failure is counted, none stops the run
            self.failures.append(f"{label}: {type(e).__name__}: {e}")
            return
        if not ok:
            self.failures.append(f"{label}: check failed")

    # -- the steps every workload is made of -------------------------------

    def build(self, fn, *args, **kwargs):
        p = self.call("gen", "problems.gen", fn, *args, **kwargs)
        self.payload_bytes += _payload_bytes(p.payload)
        return p

    def prepare(self, p, kind: EstimatorKind, regime: str, run_seed: int) -> None:
        """Constants table, step-size rule and estimator initialisation."""

        def go():
            consts = estimators.constants_for_problem(kind, p)
            solver.step_size_bound(kind, regime, consts, p.mu_F, p.mu_h, consts.tau_star)
            z0 = problems.initial_point(p, run_seed)
            estimators.init_estimator(kind, p, z0, core.rng_stream(run_seed, 0))

        self.call("setup", "estimators.setup", go)

    def verify(self, label: str, kind: EstimatorKind, p, size: dict, seed: int) -> None:
        """Contract checks; Monte Carlo (size["mc"] draws) where the outcomes
        cannot be enumerated."""

        def go():
            name = kind.name
            q = kind.quantizer
            too_many_subsets = q is not None and q.kind == "randk" and math.comb(p.d, q.k) > MAX_ATOMS
            enumerable = name not in ("noisy", "past") and not too_many_subsets
            n_samples = 0 if enumerable else size["mc"]
            rep = self.call("verify", "metrics.verify", _verify, kind, p, size["points"], n_samples, seed, info=label)
            passed = sum(1 for r in rep.rows if r.passed)
            self.verify_rows += len(rep.rows)
            self.verify_passed += passed
            return len(rep.rows) > 0 and passed == len(rep.rows)

        self.op(f"verify {label}", go)

    def solve(self, label: str, p, config: SolverConfig, accuracy) -> None:
        def go():
            span = len(self.tracer.spans) if self.tracer else -1
            trace = self.call("solve", "solver.run_solver", solver.run_solver, p, config, info=label)
            self.solve_calls.append((label, self._calls[-1], config.K, billed_work(trace, p), span))
            self.traces.append((label, trace))
            acc = self.accuracy[label] = accuracy(p, trace)
            if not (np.all(np.isfinite(trace.z_final)) and math.isfinite(acc)):
                return False
            if self.golden:
                pinned = self.refs["golden"][label]
                return abs(acc - pinned) <= GOLDEN_RTOL * abs(pinned) + NOISE_FLOOR
            # other seeds: a guard against divergence, not an exact check
            return acc <= self.refs["ceilings"][label]

        self.op(f"solve {label}", go)

    def trace_io(self, echo: list[str]) -> None:
        traces, self.traces = self.traces, []
        for label, trace in traces:
            path = self.out_dir / f"{label}.csv"
            lines = echo + [f"run.estimator = {label}"]

            def go():
                self.call("write", "cli.write_trace", cli.write_trace, str(path), trace, lines)
                tf = self.call("read", "cli.read_trace", cli.read_trace, str(path))
                data = path.read_bytes()
                self.trace_bytes += len(data)
                self.digests[label] = hashlib.sha256(data).hexdigest()
                return _round_trips(trace, tf, lines)

            self.op(f"trace {label}", go)


def _verify(kind, p, points, n_samples, seed):
    rep = metrics.verify_unbiasedness(kind, p, n_points=points, n_samples=n_samples, seed=seed)
    return rep.extend(metrics.verify_assumption2(kind, p, n_points=points, n_samples=n_samples, seed=seed))


def _payload_bytes(payload) -> int:
    """Bytes of the arrays a problem payload holds (nested problems too)."""
    total = 0
    for value in vars(payload).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += sum(_payload_bytes(v.payload) for v in value if hasattr(v, "payload"))
    return total


def _round_trips(trace, tf, echo: list[str]) -> bool:
    if tf.config_text != "\n".join(echo):
        return False
    for name in cli.TRACE_COLUMNS:
        a = np.asarray(getattr(trace, name))
        b = tf.columns[name]
        if a.shape != b.shape or not np.array_equal(a, b, equal_nan=a.dtype.kind == "f"):
            return False
    return True


def gap_accuracy(p, trace) -> float:
    return float(trace.gap_avg[-1])


def dist_accuracy(p, trace) -> float:
    return float(trace.dist_sq[-1])


def residual_accuracy(p, trace) -> float:
    return float(np.linalg.norm(problems.eval_full(p, trace.z_final)))


# -- workloads -------------------------------------------------------------

N5_CONFIG = """\
# the paper's reference grid game, driven as a user session
problem.kind = pvb
problem.n = {n}
problem.seed = {seed}
run.K = {K}
run.seed = {run_seed}
run.gap_every = {gap_every}
run.sigma = {sigma}
run.quantizer = randk
run.randk_k = {randk_k}
verify.estimators = {strategies}
verify.n_points = {points}
"""


def game_n5_session(r: Round, size: dict, seed: int, run_seed: int) -> None:
    text = N5_CONFIG.format(seed=seed, run_seed=run_seed, strategies=",".join(N5_STRATEGIES), **size)
    cfg = r.call("parse", "cli.parse", cli.parse_config_text, text)
    p = r.build(cli.build_problem, cfg)
    kinds = {}
    for name in N5_STRATEGIES:
        kinds[name] = r.call("setup", "cli.build_estimator", cli.build_estimator, cfg, p, name)
        r.prepare(p, kinds[name], "mono", run_seed)

    report = r.out_dir / "verify.csv"

    def verify():
        code = r.call("verify", "cli.cmd_verify", cli.cmd_verify, cfg, str(report), info="all")
        rows = report.read_text(encoding="utf-8").splitlines()[1:]
        passed = sum(1 for row in rows if row.rsplit(",", 1)[-1] == "1")
        r.verify_rows += len(rows)
        r.verify_passed += passed
        return code == 0 and len(rows) > 0 and passed == len(rows)

    r.op("verify session", verify)
    for name in N5_STRATEGIES:
        r.solve(name, p, cli.build_solver_config(cfg, kinds[name]), gap_accuracy)
    r.trace_io(cfg.echo_lines())


def game_n30_dense(r: Round, size: dict, seed: int, run_seed: int) -> None:
    n, K = size["n"], size["K"]
    p = r.build(problems.gen_policeman_burglar, n, seed=seed)
    kinds = [EstimatorKind(name) for name in N30_STRATEGIES]
    for kind in kinds:
        r.prepare(p, kind, "mono", run_seed)
    for kind in kinds:
        r.verify(kind.name, kind, p, size, run_seed)
    for kind in kinds:
        config = SolverConfig(kind, K=K, seed=run_seed, gap_every=size["gap_every"])
        r.solve(kind.name, p, config, gap_accuracy)
    echo = ["problem.kind = pvb", f"problem.n = {n}", f"problem.seed = {seed}", f"run.K = {K}", f"run.seed = {run_seed}"]
    r.trace_io(echo + [f"run.gap_every = {size['gap_every']}"])


def free_sm(r: Round, size: dict, seed: int, run_seed: int) -> None:
    d, K, sigma = size["d"], size["K"], size["sigma"]
    quad = r.build(problems.gen_quadratic_vi, d, 0.1, 1.0, seed=seed)
    quad_kinds = {
        "fulldet": EstimatorKind("fulldet"),
        "noisy": EstimatorKind("noisy", sigma=sigma),
        "past": EstimatorKind("past", sigma=sigma),
        "vr": EstimatorKind("vr"),
        "coord": EstimatorKind("coord"),
        "quant": EstimatorKind("quant", quantizer=Quantizer("randk", k=size["randk_k"], d=d)),
    }
    workers, d_worker = size["workers"], size["d_worker"]

    def mixing():
        base = [problems.gen_quadratic_vi(d_worker, 0.1, 1.0, seed=seed * 100 + m) for m in range(workers)]
        return problems.gen_mixing_vi(base, 1.0)

    mix = r.build(mixing)
    split = estimators.optimal_tau(EstimatorKind("local", tau_split=0.5), L=mix.payload.l_phi, lam=mix.payload.lam)
    mix_kinds = {"mix-local": EstimatorKind("local", tau_split=split), "mix-fulldet": EstimatorKind("fulldet")}

    for kind in quad_kinds.values():
        r.prepare(quad, kind, "sm", run_seed)
    for kind in mix_kinds.values():
        r.prepare(mix, kind, "sm", run_seed)
    for label, kind in quad_kinds.items():
        r.verify(label, kind, quad, size, run_seed)
    for label, kind in mix_kinds.items():
        r.verify(label, kind, mix, size, run_seed)
    for label, kind in quad_kinds.items():
        r.solve(label, quad, SolverConfig(kind, K=K, seed=run_seed, regime="sm"), dist_accuracy)
    for label, kind in mix_kinds.items():
        r.solve(label, mix, SolverConfig(kind, K=size["K_mix"], seed=run_seed, regime="sm"), residual_accuracy)
    echo = [f"problem.seed = {seed}", f"run.seed = {run_seed}", "run.regime = sm"]
    r.trace_io(echo)


RUNNERS = {"game-n5-session": game_n5_session, "game-n30-dense": game_n30_dense, "free-sm": free_sm}


def run_round(workload: str, mode: str, seed: int, run_seed: int, tracer, refs: dict, out_dir: Path, golden: bool = False) -> Round:
    r = Round(tracer, refs, out_dir, golden)
    t0 = perf_counter()
    r.checkpoint()
    RUNNERS[workload](r, SIZES[mode][workload], seed, run_seed)
    r.finish()
    r.wall = perf_counter() - t0
    return r


# -- per-layer split from one traced round ---------------------------------


def billed_work(trace, p) -> float | None:
    """Multiply-adds the cost ledger bills: full and component calls at the
    full operator's shape, one coordinate at 1/d of it, a local step at one
    Phi evaluation."""
    w = full_work(p.payload)
    if w is None:
        return None
    billed = (int(trace.full_calls[-1]) + int(trace.comp_calls[-1])) * w + int(trace.coords[-1]) * w / p.d
    steps = int(trace.local_steps[-1])
    if steps:
        phi = phi_work(p.payload)
        if phi is None:
            return None
        billed += steps * phi
    return float(billed)


def layer_metrics(spans: list[list], r: Round) -> dict:
    own = self_times(spans)
    solve_of = [-1] * len(spans)  # index of the enclosing run_solver span
    done: dict[int, list[float]] = {}  # run_solver span -> [oracle work, gap work]
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for i, s in enumerate(spans):
        name, parent = s[0], s[1]
        if name == "solver.run_solver":
            solve_of[i] = i
            done[i] = [0.0, 0.0]
            out["solver.solve_s"] += s[3] - s[2]
            out["solver.loop_self_s"] += own[i]
            continue
        if parent < 0 or solve_of[parent] < 0:
            continue
        solve_of[i] = solve_of[parent]
        dur = s[3] - s[2]
        if name in PROX_SPANS:
            out["core.prox_calls"] += 1
            out["core.prox_s"] += dur
        elif name in ORACLE_SPANS and spans[parent][0] not in ORACLE_SPANS:
            out["problems.oracle_calls"] += 1
            out["problems.oracle_s"] += dur
            done[solve_of[i]][0] += math.nan if s[4] is None else s[4]
        elif name == "solver.est_pair":
            out["estimators.est_pair_self_s"] += own[i]
        elif name == "solver.snapshot_update":
            out["estimators.snapshot_s"] += dur
            out["estimators.refreshes"] += bool(s[4])
        elif name == "estimators.quantize":
            out["estimators.quantize_s"] += dur
        elif name == "solver.lyapunov_value":
            out["solver.lyapunov_s"] += dur
        elif name == "solver.duality_gap_bilinear":
            out["metrics.gap_calls"] += 1
            out["metrics.gap_s"] += dur
            done[solve_of[i]][1] += math.nan if s[4] is None else s[4]
    out["core.prox_share"] = out["core.prox_s"] / out["solver.solve_s"] if out["solver.solve_s"] else 0.0

    # ledger audit: work billed / work done, per strategy and overall
    by_label: dict[str, list[float]] = {}
    for label, _, _, billed, span in r.solve_calls:
        oracle, gap = done.get(span, (math.nan, math.nan))
        acc = by_label.setdefault(label, [0.0, 0.0, 0.0])
        acc[0] += math.nan if billed is None else billed
        acc[1] += oracle + gap
        acc[2] += gap
    billed_all = sum(v[0] for v in by_label.values())
    done_all = sum(v[1] for v in by_label.values())
    gap_all = sum(v[2] for v in by_label.values())
    out["problems.billed_work_ratio"] = billed_all / done_all if done_all else math.nan
    out["metrics.gap_work_share"] = gap_all / done_all if done_all else math.nan
    out["billed_by_strategy"] = {k: v[0] / v[1] if v[1] else math.nan for k, v in by_label.items()}
    for label in ("fulldet", "past", "vr", "coord"):
        out[f"problems.billed_work_ratio.{label}"] = out["billed_by_strategy"].get(label, math.nan)

    out["problems.gen_s"] = r.t["gen"]
    out["problems.payload_mb"] = r.payload_bytes / 1e6
    out["metrics.verify_rows"] = r.verify_rows
    out["metrics.verify_pass_ratio"] = r.verify_passed / r.verify_rows if r.verify_rows else 0.0
    out["cli.parse_s"] = r.t["parse"]
    out["cli.write_trace_s"] = r.t["write"]
    out["cli.read_trace_s"] = r.t["read"]
    out["cli.trace_bytes"] = r.trace_bytes
    return out


# -- main loop -------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def end_to_end(rounds: list[Round], scaled: bool = True) -> dict:
    """Medians over rounds, at the reference speed or, with ``scaled``
    False, in plain process CPU seconds."""
    times = [rd.t if scaled else rd.cpu for rd in rounds]
    return {
        "setup_s": _median([t["gen"] + t["setup"] for t in times]),
        "solve_s": _median([t["solve"] for t in times]),
        "iter_us_p50": _median(list(per_strategy_us(rounds, scaled).values())),
        "verify_s": _median([t["verify"] for t in times]),
        "trace_io_s": _median([t["write"] + t["read"] for t in times]),
        "wall_s": _median([rd.busy if scaled else rd.busy_cpu for rd in rounds]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_strategy_us(rounds: list[Round], scaled: bool = True) -> dict:
    """Each strategy's median µs per iteration over the rounds.  The median
    over strategies of these is ``iter_us_p50``: the plain median of all
    solves sits between two strategies' clusters and jumps with them, and
    one round's vr/coord time moves with its refresh count."""
    by: dict[str, list[float]] = {}
    for rd in rounds:
        for label, (_, cpu, f), K, _, _ in rd.solve_calls:
            by.setdefault(label, []).append(cpu * (f if scaled else 1.0) / max(K, 1) * 1e6)
    return {k: _median(v) for k, v in by.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    all_refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    refs = dict(all_refs[mode][args.workload], probe_ref_s=all_refs["probe_ref_s"])
    out_root = BENCH / "out"
    out_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    lines: list[str] = []

    try:
        # The golden round warms caches and lazy imports before timing.  Its
        # inputs are fixed: its accuracies are checked against the pinned
        # ones and its trace digests compared with the pinned digests.
        golden = run_round(args.workload, mode, GOLDEN_SEED, GOLDEN_SEED, None, refs, out_dir, golden=True)
        pinned = refs["digests"]
        mismatched = sorted(k for k, v in golden.digests.items() if pinned.get(k) != v)
        mismatched += sorted(k for k in pinned if k not in golden.digests)
        all_rounds = [golden]
        untraced: list[Round] = []
        traced: list[dict] = []
        walls_traced: list[float] = []
        tracer = Tracer()
        last_spans: list[list] = []
        absent: list[str] = []
        t_start = perf_counter()
        i = 0
        while perf_counter() - t_start < args.seconds or len(untraced) < MIN_ROUNDS:
            run_seed = args.seed * 1000 + i + 1
            rd = run_round(args.workload, mode, args.seed, run_seed, None, refs, out_dir)
            untraced.append(rd)
            all_rounds.append(rd)
            if args.trace:
                tracer.reset()
                tracer.install(solver, estimators, problems)
                try:
                    rt = run_round(args.workload, mode, args.seed, run_seed, tracer, refs, out_dir)
                finally:
                    absent = list(tracer.absent)
                    tracer.uninstall()
                all_rounds.append(rt)
                traced.append(layer_metrics(tracer.spans, rt))
                walls_traced.append(rt.busy)
                last_spans = tracer.spans
            i += 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = sum(rd.attempted for rd in all_rounds)
    failures = [f for rd in all_rounds for f in rd.failures]
    values = end_to_end(untraced)
    raw = end_to_end(untraced, scaled=False)
    n_solves = sum(len(rd.solve_calls) for rd in untraced)
    lines.append(f"rounds: {len(untraced)} untraced ({args.seconds:g} s budget) + 1 golden")
    probes = [b for rd in untraced for b in rd.probes]
    speed = _median(probes) / refs["probe_ref_s"]
    lines.append(
        f"host speed: probe at {speed:.3f}x its reference time (median over {len(probes)} bursts); "
        f"wall time per round {_median([rd.wall for rd in untraced]):.6g} s"
    )
    lines.append(f"fail_ratio = {len(failures) / attempted:.6g} ({len(failures)} failed / {attempted} attempted)")
    lines.append(f"digest_mismatches = {len(mismatched)} of {len(pinned)} pinned traces (golden seed {GOLDEN_SEED}; reported, not gated)")
    if mismatched:
        lines.append(f"  changed traces: {', '.join(mismatched)}")
    for f in failures[:20]:
        lines.append(f"  failure: {f}")
    for name, unit in END_TO_END_UNITS.items():
        extra = f"  (n={n_solves} solves in {len(untraced)} rounds)" if name == "iter_us_p50" else ""
        if name != "peak_rss_mb":
            extra += f"  [unscaled CPU {raw[name]:.6g} {unit}]"
        lines.append(f"{name} = {values[name]:.6g} {unit}{extra}")
    us = per_strategy_us(untraced)
    lines.append("us/it per strategy (median): " + ", ".join(f"{k} {v:.1f}" for k, v in us.items()))

    if args.trace:
        layer = {k: _median([t[k] for t in traced]) for k in PER_LAYER_UNITS if k != "tracing_overhead_ratio"}
        layer["tracing_overhead_ratio"] = _median(walls_traced) / values["wall_s"]
        lines.append(f"traced rounds: {len(traced)}; tracing_overhead_ratio base: untraced wall_s {values['wall_s']:.6g} s")
        if absent:
            lines.append(f"absent layers (names not found, reported as 0): {', '.join(absent)}")
        for k, unit in PER_LAYER_UNITS.items():
            lines.append(f"{k} = {layer[k]:.6g} {unit}")
        lines.append(f"  core.prox_share base: solver.solve_s {layer['solver.solve_s']:.6g} s (traced)")
        ratios = traced[-1]["billed_by_strategy"]
        lines.append("billed_work_ratio per strategy: " + ", ".join(f"{k} {v:.4g}" for k, v in ratios.items()))
        spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.csv"
        write_spans(spans_path, last_spans)
        lines.append(f"spans of the last traced round: {spans_path.relative_to(ROOT)} ({len(last_spans)} spans)")
        metrics = {k: {"value": _finite(layer[k]), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    print(versions_line())
    for ln in lines:
        print(ln)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def versions_line() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_text = "unknown"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, scipy {scipy.__version__}, BLAS {blas_text}, OPENBLAS_NUM_THREADS={threads}"


def _finite(x: float) -> float:
    """JSON has no NaN: a layer the audit cannot size is reported as 0."""
    return x if math.isfinite(x) else 0.0


if __name__ == "__main__":
    raise SystemExit(main())
