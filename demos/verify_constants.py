"""Check the estimator contracts numerically and print the evidence.

Every strategy promises an unbiased half-step estimate and a second
moment bounded by its constants table.  Strategies with finitely many
outcomes are checked by exact enumeration (slack is the worst lhs/rhs
ratio, at most 1); the gaussian-noise ones by Monte Carlo.
"""

from vistep import (
    EstimatorKind,
    Quantizer,
    gen_policeman_burglar,
    importance_weights,
    verify_assumption2,
    verify_unbiasedness,
)

p = gen_policeman_burglar(3, seed=1)
strategies = [
    EstimatorKind("vr"),
    EstimatorKind("is", weights=importance_weights(p.L_m)),
    EstimatorKind("coord"),
    EstimatorKind("quant", quantizer=Quantizer("randk", k=6, d=p.d)),
    EstimatorKind("qvr", quantizer=Quantizer("randk", k=6, d=p.d)),
    EstimatorKind("noisy", sigma=0.5),
    EstimatorKind("past"),
]

print(f"{'check':>24} {'strategy':>9} {'lhs':>11} {'rhs':>11} {'slack':>7} {'n':>6} pass")
for kind in strategies:
    n_mc = 20000 if kind.strategy.atoms is None else 0
    report = verify_unbiasedness(kind, p, n_points=5, n_samples=n_mc)
    report.extend(verify_assumption2(kind, p, n_points=20))
    for r in report.rows:
        print(
            f"{r.lemma:>24} {r.variant:>9} {r.lhs:>11.3e} {r.rhs:>11.3e} "
            f"{r.slack:>7.3f} {r.n:>6} {'yes' if r.passed else 'NO'}"
        )
