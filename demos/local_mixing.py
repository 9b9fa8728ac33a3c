"""Federated mixing: several workers coupled to their average model.

The stacked operator splits into local terms and a consensus penalty.
The local strategy flips a coin each iteration: with probability t it
runs a free local step, otherwise it pays one communication round.  The
split t = L/(L+lam) balances the two Lipschitz constants, and the cost
ledger shows communication becoming the rare event.
"""

import numpy as np

from vistep import (
    EstimatorKind,
    SolverConfig,
    eval_full,
    gen_mixing_vi,
    gen_quadratic_vi,
    optimal_tau,
    run_solver,
)

workers = [gen_quadratic_vi(8, 0.5, 2.0, seed=3 + m) for m in range(3)]
p = gen_mixing_vi(workers, lam=1.0)
mix = p.payload
t = mix.l_phi / (mix.l_phi + mix.lam)
print(f"3 workers, local L = {mix.l_phi}, coupling lam = {mix.lam}, split t = {t:.3f}")
kind = EstimatorKind("local", tau_split=t)
print(f"optimal snapshot probability tau = {optimal_tau(kind, L=mix.l_phi, lam=mix.lam):.3f}")

K = 20000
trace = run_solver(p, SolverConfig(kind=kind, K=K, seed=0, gap_every=K))
comm_branches = K - trace.local_steps[-1]
print(f"\n{K} iterations:")
print(f"  local steps          {trace.local_steps[-1]}")
print(f"  communication branches {comm_branches} (expected about {K * (1 - t):.0f})")
print(f"  total comm rounds    {trace.comms[-1]} (branches plus snapshot syncs)")
print(f"  bits transmitted     {trace.bits[-1]}")
# workers disagree on their local solutions, so the coupled optimum is
# only implicit; the operator residual shows the run closing in on it
print(f"  final |F(z)|         {np.linalg.norm(eval_full(p, trace.z_final)):.3e}")

# states already in consensus are invisible to the coupling operator
v = np.linspace(-1.0, 1.0, 8)
resid = float(np.linalg.norm(mix.consensus(np.tile(v, 3))))
print(f"\nconsensus residual on a replicated state: {resid:.1e}")
