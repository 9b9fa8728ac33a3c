"""Solve the policeman-and-burglar matrix game with the extra-step method.

The burglar picks a house on an n x n grid, the policeman picks a post;
the expected loot decays with distance and scales with the house wealth.
Both mixed strategies live on a simplex, so the duality gap has a closed
form and we can watch the averaged iterate drive it to zero.
"""

from vistep import EstimatorKind, SolverConfig, duality_gap_bilinear, gen_policeman_burglar, run_solver

p = gen_policeman_burglar(5, seed=0)
print(f"grid 5x5: dimension {p.d}, {p.M} component matrices, L = {p.L:.3f}")

gamma = 1.0 / (3.0 * p.L)
trace = run_solver(
    p, SolverConfig(kind=EstimatorKind("fulldet"), K=5000, seed=0, gamma=gamma, tau=0.0, gap_every=250)
)

print(f"\nstep size gamma = 1/(3L) = {gamma:.5f}")
print(f"{'k':>6} {'gap(z_k)':>12} {'gap(avg)':>12}")
for k in range(250, 5001, 750):
    print(f"{k:>6} {trace.gap_last[k]:>12.3e} {trace.gap_avg[k]:>12.3e}")

# the last iterate orbits the saddle; the running average settles
print(f"\nfinal averaged gap  {trace.gap_avg[-1]:.3e}")
print(f"final last-iterate gap {trace.gap_last[-1]:.3e}")
print(f"gap at the averaged point, recomputed: {duality_gap_bilinear(p.payload, trace.z_avg):.3e}")

x, y = trace.z_avg[: p.d // 2], trace.z_avg[p.d // 2 :]
# ranked by the printed value, so mirror-image cells that print alike keep
# their index order whatever their last bits
top = sorted(range(y.size), key=lambda i: (-float(f"{y[i]:.3f}"), i))[:3]
print("\nburglar's three favourite houses (cell: probability):")
for i in top:
    print(f"  ({i // 5},{i % 5}): {y[i]:.3f}")
