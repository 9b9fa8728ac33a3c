"""Linear convergence on a strongly monotone instance, with and without noise.

The deterministic run contracts the Lyapunov value at least as fast as
the guaranteed envelope (1 - gamma*mu/16)^k.  Adding oracle noise keeps
the early linear phase but parks the iterates on a noise floor whose
level the step-size rule predicts.
"""

import numpy as np

from vistep import (
    EstimatorKind,
    SolverConfig,
    constants_for_problem,
    gen_quadratic_vi,
    run_solver,
    step_size_bound,
)

p = gen_quadratic_vi(50, 0.1, 10.0, seed=0)
print(f"quadratic VI: d = {p.d}, mu = {p.mu_F}, L = {p.L}")

trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=2000, seed=0, regime="sm"))
rate = 1.0 - trace.gamma * p.mu_F / 16.0
print(f"\ndeterministic oracle, gamma = {trace.gamma:.5f}, envelope rate {rate:.6f}")
print(f"{'k':>6} {'V_k':>12} {'envelope':>12}")
for k in (0, 250, 500, 1000, 2000):
    env = trace.lyapunov[0] * rate ** max(k - 1, 0)
    print(f"{k:>6} {trace.lyapunov[k]:>12.3e} {env:>12.3e}")

kind = EstimatorKind("noisy", sigma=1.0)
consts = constants_for_problem(kind, p)
gamma, _ = step_size_bound(kind, "sm", consts, p.mu_F)
floor = gamma**2 * 2.0 * consts.D1 / (gamma * p.mu_F / 16.0)
trace = run_solver(p, SolverConfig(kind=kind, K=4000, seed=0, regime="sm"))
tail = float(np.mean(trace.dist_sq[-400:]))
print(f"\nnoisy oracle (sigma = 1), same step rule, D1 = {consts.D1}")
print(f"theory floor gamma^2*2*D1/(gamma*mu/16) = {floor:.2f}")
print(f"trailing-10% mean of |z_k - z*|^2      = {tail:.3f}")
print(f"{'k':>6} {'dist_sq':>12}")
for k in (0, 100, 500, 2000, 4000):
    print(f"{k:>6} {trace.dist_sq[k]:>12.3e}")
