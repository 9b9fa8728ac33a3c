"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line on the terminal (bypassing
capture) and then asserts, so `pytest -v` gives a per-criterion verdict
in both the test ids and the printed summary.
"""

import dataclasses
import time

import numpy as np
import pytest
from conftest import simplex_projection_oracle

from vistep import (
    EstimatorKind,
    Quantizer,
    SolverConfig,
    constants_for_problem,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    importance_weights,
    init_estimator,
    initial_point,
    iterate_once,
    project_simplex,
    rng_stream,
    run_solver,
    step_size_bound,
    verify_assumption2,
    verify_unbiasedness,
)
from vistep.cli import main
from vistep.estimators import STRATEGIES


def _verdict(capsys, num, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def pvb3():
    return gen_policeman_burglar(3, seed=1)


def mixing3():
    base = [gen_quadratic_vi(8, 0.5, 2.0, seed=3) for _ in range(3)]
    return gen_mixing_vi(base, lam=1.0)


def test_criterion_01_strongly_monotone_linear_rate(capsys):
    p = gen_quadratic_vi(50, 0.1, 10.0, seed=0)
    t0 = time.perf_counter()
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=2000, seed=0, regime="sm"))
    elapsed = time.perf_counter() - t0
    assert trace.gamma == pytest.approx(1.0 / 60.0, rel=1e-15)
    rate = 1.0 - trace.gamma * p.mu_F / 16.0
    k = np.arange(2001)
    bound = trace.lyapunov[0] * rate ** (k - 1)
    ok = bool(np.all(trace.lyapunov <= bound * (1.0 + 1e-12))) and elapsed < 5.0
    worst = float(np.max(trace.lyapunov / bound))
    _verdict(capsys, 1, ok, f"V_k within (1-gamma*mu/16)^(k-1)*V_0, worst ratio {worst:.3f}, {elapsed:.2f}s")


def test_criterion_02_monotone_averaged_gap(capsys):
    p = gen_policeman_burglar(5, seed=0)
    gamma = 1.0 / (3.0 * p.L)
    t0 = time.perf_counter()
    trace = run_solver(
        p, SolverConfig(kind=EstimatorKind("fulldet"), K=10**4, seed=0, gamma=gamma, tau=0.0, gap_every=100)
    )
    elapsed = time.perf_counter() - t0
    diam_sq = 4.0  # product of two unit simplices
    budget = 8.0 * diam_sq * 1.05
    products = {k: trace.gap_avg[k] * gamma * k for k in (10**2, 10**3, 10**4)}
    ok = all(v <= budget for v in products.values())
    decay = trace.gap_avg[10**4] <= trace.gap_avg[10**2] / 50.0
    ok = ok and decay and elapsed < 120.0
    _verdict(
        capsys,
        2,
        ok,
        "gap*gamma*K = "
        + ", ".join(f"{v:.2f}" for v in products.values())
        + f" (cap {budget}), decade decay {trace.gap_avg[10**2] / trace.gap_avg[10**4]:.1f}x"
        f" (needs 50x), {elapsed:.1f}s",
    )


def test_criterion_03_exact_reductions(capsys):
    p = gen_quadratic_vi(20, 0.5, 2.0, seed=4)
    gamma = 1.0 / 12.0

    def trajectory(kind):
        est = rng_stream(11, 0)
        coin = rng_stream(11, 1)
        z = initial_point(p, 11)
        state = init_estimator(kind, p, z, est)
        out = []
        for _ in range(500):
            z, _ = iterate_once(state, p, z, 0.0, gamma, est, coin)
            out.append(z.copy())
        return np.array(out)

    base = trajectory(EstimatorKind("fulldet"))
    single = trajectory(EstimatorKind("vr"))
    ident = trajectory(EstimatorKind("quant", quantizer=Quantizer("identity")))
    dev_vr = float(np.max(np.abs(single - base)))
    dev_q = float(np.max(np.abs(ident - single)))
    ok = dev_vr <= 1e-12 and dev_q <= 1e-12
    _verdict(capsys, 3, ok, f"max coordinate deviation {dev_vr:.1e} (single-component), {dev_q:.1e} (identity quantizer)")


def test_criterion_04_unbiasedness_monte_carlo(capsys, monkeypatch):
    p = pvb3()
    kinds = [
        EstimatorKind("noisy", sigma=0.7),
        EstimatorKind("past", sigma=0.5),
        EstimatorKind("vr"),
        EstimatorKind("coord"),
        EstimatorKind("quant", quantizer=Quantizer("randk", k=5, d=18)),
        EstimatorKind("qvr", quantizer=Quantizer("randk", k=5, d=18)),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
    ]
    failures = []
    for kind in kinds:
        report = verify_unbiasedness(kind, p, n_points=5, n_samples=10**5)
        if not report.all_pass:
            failures.append(kind.name)
    report = verify_unbiasedness(EstimatorKind("local", tau_split=2.0 / 3.0), mixing3(), n_points=5, n_samples=10**5)
    if not report.all_pass:
        failures.append("local")

    original = STRATEGIES["vr"].correct

    def halved(kind, p, o, diff, fw):
        return 0.5 * original(kind, p, o, diff, fw)

    monkeypatch.setitem(STRATEGIES, "vr", dataclasses.replace(STRATEGIES["vr"], correct=halved))
    control = verify_unbiasedness(EstimatorKind("vr"), p, n_points=5, n_samples=10**5)
    ok = not failures and not control.all_pass
    _verdict(
        capsys,
        4,
        ok,
        f"8 strategies pass 4-sigma at N=1e5 ({'none failed' if not failures else ','.join(failures)}), "
        f"mis-scaled control {'fails as required' if not control.all_pass else 'PASSED (bad)'}",
    )


def test_criterion_05_second_moment_exact(capsys):
    worst = 0.0
    report = verify_assumption2(EstimatorKind("coord"), pvb3(), n_points=100)
    ok = report.all_pass
    worst = max(worst, *(r.slack for r in report.rows))
    quad6 = gen_quadratic_vi(6, 0.5, 3.0, seed=2)
    for k in (1, 2, 3):
        report = verify_assumption2(EstimatorKind("quant", quantizer=Quantizer("randk", k=k, d=6)), quad6, n_points=100)
        ok = ok and report.all_pass
        worst = max(worst, *(r.slack for r in report.rows))
    _verdict(capsys, 5, ok, f"coordinate and rand-k enumerations hold exactly, worst lhs/rhs {worst:.3f}")


def test_criterion_06_second_moment_monte_carlo(capsys):
    p = pvb3()
    kinds = [
        EstimatorKind("vr"),
        EstimatorKind("is", weights=importance_weights(p.L_m)),
        EstimatorKind("qvr", quantizer=Quantizer("randk", k=6, d=18)),
    ]
    worst = 0.0
    ok = True
    for kind in kinds:
        report = verify_assumption2(kind, p, n_points=3, n_samples=10**5)
        ok = ok and report.all_pass
        worst = max(worst, *(r.slack for r in report.rows))
    _verdict(capsys, 6, ok, f"sampled moment bounds hold at slack 1+5/sqrt(N), worst lhs/rhs {worst:.3f}")


def test_criterion_07_stochastic_noise_floor(capsys):
    p = gen_quadratic_vi(50, 0.1, 10.0, seed=0)
    kind = EstimatorKind("noisy", sigma=1.0)
    consts = constants_for_problem(kind, p)
    gamma, _ = step_size_bound(kind, "sm", consts, p.mu_F)
    assert gamma == pytest.approx(1.0 / 60.0, rel=1e-15)
    assert consts.D1 == pytest.approx(6.0)
    trace = run_solver(p, SolverConfig(kind=kind, K=4000, seed=0, regime="sm"))
    floor = gamma**2 * 2.0 * consts.D1 / (gamma * p.mu_F / 16.0)
    tail = float(np.mean(trace.dist_sq[-400:]))
    ok = tail <= 2.0 * floor
    _verdict(capsys, 7, ok, f"trailing-10% mean distance^2 {tail:.3f} <= {2.0 * floor:.0f} (2x theory floor)")


def test_criterion_08_single_call_budget_parity(capsys):
    p = gen_policeman_burglar(5, seed=0)
    gamma = 1.0 / (3.0 * p.L)
    tf = run_solver(
        p, SolverConfig(kind=EstimatorKind("fulldet"), K=5000, seed=0, gamma=gamma, tau=0.0, gap_every=5000)
    )
    tp = run_solver(
        p, SolverConfig(kind=EstimatorKind("past"), K=9999, seed=0, gamma=gamma, tau=0.0, gap_every=9999)
    )
    counts = np.array_equal(tf.full_calls, 2 * np.arange(5001)) and np.array_equal(
        tp.full_calls, np.arange(10000) + 1
    )
    budget = tf.full_calls[-1] == 10000 and tp.full_calls[-1] == 10000
    gap_f = tf.gap_avg[-1]
    gap_p = tp.gap_avg[-1]
    ratio = max(gap_p / gap_f, gap_f / gap_p)
    ok = counts and budget and ratio <= 3.0
    _verdict(
        capsys,
        8,
        ok,
        f"K+1 vs 2K oracle calls exact, equal-budget gap ratio {ratio:.2f} <= 3 "
        f"(stored-half {gap_p:.2e}, two-call {gap_f:.2e})",
    )


def test_criterion_09_projection_oracle(capsys):
    rng = rng_stream(123, 0)
    worst = 0.0
    for _ in range(1000):
        d = rng.integers(6) + 1
        scale = 10.0 ** (rng.integers(3) - 1)
        v = scale * rng.normal(d)
        got = project_simplex(v)
        want = simplex_projection_oracle(v)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-10
    _verdict(capsys, 9, ok, f"1000 random vectors, max deviation from active-set oracle {worst:.1e}")


def test_criterion_10_local_branch_accounting(capsys):
    p = mixing3()
    mix = p.payload
    t = mix.l_phi / (mix.l_phi + mix.lam)
    K = 10**5
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("local", tau_split=t), K=K, seed=0, gap_every=K))
    assert trace.tau == pytest.approx(t, rel=1e-15)
    frac = (K - trace.local_steps[-1]) / K
    band = 4.0 * np.sqrt(t * (1.0 - t) / K)
    branch_ok = abs(frac - (1.0 - t)) <= band
    v = rng_stream(77, 0).normal(8)
    resid = float(np.linalg.norm(mix.consensus(np.tile(v, 3))))
    consensus_ok = resid <= 1e-12
    ok = branch_ok and consensus_ok
    _verdict(
        capsys,
        10,
        ok,
        f"communication fraction {frac:.4f} within {band:.4f} of {1.0 - t:.4f}, "
        f"consensus residual {resid:.1e}",
    )


def test_criterion_11_reproducible_runs(capsys, tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "problem.kind = pvb\n"
        "problem.n = 3\n"
        "run.estimator = vr\n"
        "run.K = 40\n"
        "run.seed = 7\n"
        "run.gap_every = 10\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    rc1 = main(["run", "-c", str(cfg), "-o", str(out1)])
    rc2 = main(["run", "-c", str(cfg), "-o", str(out2)])
    ok = rc1 == 0 and rc2 == 0 and out1.read_bytes() == out2.read_bytes()
    _verdict(capsys, 11, ok, f"repeated run produced byte-identical {len(out1.read_bytes())}-byte traces")
