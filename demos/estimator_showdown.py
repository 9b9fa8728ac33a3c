"""Run every gradient-estimation strategy on one game and compare costs.

Same problem, same iteration count; what differs is what each strategy
asks of the oracle (full evaluations, single components, coordinates)
and what it would transmit (bits).  The trace ledger makes the trade
visible: cheap iterations buy more of them per budget.
"""

from vistep import (
    EstimatorKind,
    Quantizer,
    SolverConfig,
    gen_policeman_burglar,
    importance_weights,
    run_solver,
)

p = gen_policeman_burglar(3, seed=1)
K = 3000

strategies = [
    EstimatorKind("fulldet"),
    EstimatorKind("past"),
    EstimatorKind("vr"),
    EstimatorKind("is", weights=importance_weights(p.L_m)),
    EstimatorKind("coord"),
    EstimatorKind("quant", quantizer=Quantizer("randk", k=6, d=p.d)),
    EstimatorKind("qvr", quantizer=Quantizer("randk", k=6, d=p.d)),
]

print(f"policeman-burglar 3x3, d = {p.d}, K = {K} iterations each\n")
header = f"{'strategy':>9} {'tau':>6} {'full':>6} {'comp':>6} {'coords':>7} {'kbits':>8} {'gap(avg)':>10}"
print(header)
for kind in strategies:
    trace = run_solver(p, SolverConfig(kind=kind, K=K, seed=0, gap_every=K))
    print(
        f"{kind.name:>9} {trace.tau:>6.2f} {trace.full_calls[-1]:>6} {trace.comp_calls[-1]:>6} "
        f"{trace.coords[-1]:>7} {trace.bits[-1] / 1000:>8.0f} {trace.gap_avg[-1]:>10.2e}"
    )

print(
    "\nsnapshot strategies refresh their anchor with probability 1-tau per"
    "\niteration, so their full/component counts stay far below 2K while the"
    "\ncompressed ones also shrink the bits column.  (is matches vr exactly"
    "\nhere: this game's components are scalar multiples of one matrix, so"
    "\nimportance weighting has nothing to exploit.)"
)
