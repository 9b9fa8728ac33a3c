"""The verification suite for the estimator contracts.

Every estimation strategy promises unbiasedness of g^{k+1/2} and a
second-moment contract with its table constants.  For strategies with
finitely many outcomes both are checked exactly by enumerating the
outcome atoms; otherwise by Monte Carlo with a slack that scales like
1/sqrt(n).  The noisy oracle strategies (noisy, past) have no atoms, so
their unbiasedness rows average Monte Carlo draws that include the noise;
in their second-moment rows the noise terms enter analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Vector, _block_rows, _check_integers, rng_stream
from .estimators import (
    FRESH,
    PAST,
    CostLedger,
    EstimatorKind,
    check_problem,
    constants_for_problem,
    half_atoms,
    init_estimator,
    sample_half_batch,
)
from .problems import VIProblem, eval_full, random_feasible
from .solver import iterate_once


@dataclass(frozen=True)
class CheckRow:
    """One verified inequality: lhs <= rhs up to the stated slack."""

    lemma: str
    variant: str
    lhs: float
    rhs: float
    slack: float
    n: int
    passed: bool


@dataclass
class VerificationReport:
    rows: list

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    def extend(self, other: "VerificationReport") -> "VerificationReport":
        self.rows.extend(other.rows)
        return self


def _row(lemma: str, variant: str, lhs: float, rhs: float, n: int, tol: float) -> CheckRow:
    if rhs > 0:
        slack = lhs / rhs
    else:
        slack = 0.0 if lhs <= 0 else math.inf
    return CheckRow(lemma, variant, float(lhs), float(rhs), float(slack), int(n), bool(lhs <= rhs * (1.0 + tol) + 1e-300))


MC_SAMPLES = 4000  # Monte Carlo draws when n_samples = 0 and the outcomes cannot be enumerated


def _draws(kind: EstimatorKind, p: VIProblem, n_points: int, n_samples: int, seed: int) -> int:
    """Validate a verifier call; return 0 to enumerate the outcome atoms
    (n_samples = 0 and the strategy has atoms), else the number of Monte
    Carlo draws (n_samples, or MC_SAMPLES)."""
    check_problem(kind, p)
    _check_integers(n_points=n_points, n_samples=n_samples, seed=seed)
    if n_points < 1:
        raise ValueError("need n_points >= 1")
    if n_samples == 1 or n_samples < 0:
        raise ValueError(f"need n_samples = 0 or n_samples >= 2, got {n_samples}")
    if n_samples == 0 and kind.strategy.atoms is None:
        return MC_SAMPLES
    return n_samples


def _outcome_sets(kind: EstimatorKind, p: VIProblem, n_points: int, draws: int | None, seed: int):
    """Random state pairs (z^{k+1/2}, w) with the strategy's refresh at w
    (None without a snapshot), the target F(z^{k+1/2}) and the outcome set
    of g^{k+1/2} as (probs, blocks of value rows): every atom, a block of
    _block_rows(d) at a time, when draws = 0; (None, one block) of that
    many Monte Carlo draws; or (None, None) when draws is None."""
    points, rng = rng_stream(seed, 5), rng_stream(seed, 6)
    refresh = kind.strategy.refresh
    for _ in range(n_points):
        z_half, w = random_feasible(p, points), random_feasible(p, points)
        snap = None if refresh is None else refresh(kind, p, w, CostLedger())
        probs = blocks = None
        if draws == 0:
            probs, blocks = half_atoms(kind, p, z_half, snap)
        elif draws is not None:
            blocks = (sample_half_batch(kind, p, z_half, snap, rng, draws),)
        yield z_half, w, snap, eval_full(p, z_half), probs, blocks


def _sq_dists(values: np.ndarray, ref: Vector) -> np.ndarray:
    """|v - ref|^2 for each row v, a block of rows at a time, so no second
    array of the values' size is made."""
    rows = _block_rows(len(ref))
    return np.concatenate([np.sum((values[i : i + rows] - ref) ** 2, axis=1) for i in range(0, len(values), rows)])


def _keep_worst(worst: dict, row: CheckRow) -> None:
    """Keep the largest-slack row per lemma, or a failing one."""
    if row.lemma not in worst or row.slack > worst[row.lemma].slack or not row.passed:
        worst[row.lemma] = row


def verify_unbiasedness(
    kind: EstimatorKind,
    p: VIProblem,
    n_points: int = 5,
    n_samples: int = 0,
    seed: int = 0,
) -> VerificationReport:
    """Check E[g^{k+1/2}] = F(z^{k+1/2}) at random state pairs.

    n_samples = 0 enumerates the outcome atoms where the strategy has them
    (exact, tolerance at float precision) and otherwise averages
    MC_SAMPLES Monte Carlo draws; n_samples >= 2 averages that many draws.
    Monte Carlo means are held to four standard errors.
    """
    draws = _draws(kind, p, n_points, n_samples, seed)
    worst = {}
    for z_half, w, snap, target, probs, blocks in _outcome_sets(kind, p, n_points, draws, seed):
        scale = 1.0 + float(np.linalg.norm(target))
        if probs is not None:
            mean, n = np.zeros(p.d), 0
            for values in blocks:
                # the running sum enters as a first row of weight 1, so the
                # additions keep the order of one pass over every atom
                weights = np.concatenate([[1.0], probs[n : n + len(values)]])
                mean = np.einsum("i,ij->j", weights, np.vstack([mean, values]))
                n += len(values)
            lhs = float(np.linalg.norm(mean - target))
            rhs = 1e-9 * scale
        else:
            (values,) = blocks
            n = len(values)
            lhs = float(np.linalg.norm(values.mean(axis=0) - target))
            trace_cov = float(np.sum(values.var(axis=0))) / n
            rhs = 4.0 * math.sqrt(trace_cov) + 1e-12 * scale
        _keep_worst(worst, _row("unbiased", kind.name, lhs, rhs, n, 0.0))
    return VerificationReport(list(worst.values()))


def _second_moment_rows_past(kind: EstimatorKind, p: VIProblem, n_points: int, seed: int) -> list:
    """Realized-trajectory checks for the stored-half-step strategy.

    With sigma_k^2 = |F(z^{k-1/2}) - F(z^{k+1/2})|^2 the contract holds
    pointwise along any trajectory run with gamma <= 1/(3L); the noise
    contributions enter both sides analytically.  The memory recursion is
    only a pointwise statement for a noise-free oracle, so that row is
    emitted when sigma = 0.  The solver's own iteration runs at tau = 0.
    """
    c = constants_for_problem(kind, p)
    s2 = kind.sigma**2
    gamma = 1.0 / (3.0 * p.L)
    rng = rng_stream(seed, 6)
    coin = rng_stream(seed, 7)
    z = random_feasible(p, rng)
    state = init_estimator(kind, p, z, rng)
    worst = {}
    f_prev = sigma_prev = None
    for _ in range(n_points + 2):
        w_k = z
        z, z_half = iterate_once(state, p, z, 0.0, gamma, rng, coin)
        f_curr = state.f_half  # F(z^{k+1/2}), from the iteration's own oracle call
        if f_prev is not None:
            sigma_sq = float(np.sum((f_prev - f_curr) ** 2))
            diff_lhs = sigma_sq + 2.0 * s2
            _keep_worst(worst, _row("diff-second-moment", kind.name, diff_lhs, c.B * sigma_sq + c.D1, 0, 1e-9))
            if s2 == 0.0 and sigma_prev is not None:
                move_sq = float(np.sum((z_half - w_k) ** 2))
                rhs = (1.0 - c.rho) * sigma_prev + c.C * move_sq + c.D2
                _keep_worst(worst, _row("sigma-recursion", kind.name, sigma_sq, rhs, 0, 1e-9))
            sigma_prev = sigma_sq
        f_prev = f_curr
    return list(worst.values()) + [_row("residual-second-moment", kind.name, s2, c.D3, 0, 1e-9)]


def verify_assumption2(
    kind: EstimatorKind,
    p: VIProblem,
    n_points: int = 5,
    n_samples: int = 0,
    seed: int = 0,
) -> VerificationReport:
    """Check the second-moment contract against the strategy's constants.

    Emits the worst-case row per inequality: the anchored-difference bound
    (A, B, D1), the residual bound (E, D3), and for the stored-half-step
    strategy the memory recursion (rho, C, D2).  n_samples as for
    verify_unbiasedness; the strategies whose g^k is a fresh oracle sample
    are checked analytically and the stored-half-step one along a
    trajectory, so neither uses an outcome set.
    """
    draws = _draws(kind, p, n_points, n_samples, seed)
    anchor = kind.strategy.anchor
    if anchor == PAST:
        return VerificationReport(_second_moment_rows_past(kind, p, n_points, seed))
    c = constants_for_problem(kind, p)
    s2 = kind.sigma**2
    worst = {}
    for z_half, w, snap, target, probs, blocks in _outcome_sets(
        kind, p, n_points, None if anchor == FRESH else draws, seed
    ):
        gap_sq = float(np.sum((z_half - w) ** 2))
        if blocks is None:
            # tau = 0 for these, so the anchor w is the current iterate
            diff_lhs, res_lhs, n, tol = float(np.sum((target - eval_full(p, w)) ** 2)) + 2.0 * s2, s2, 0, 1e-9
        else:
            sq = [(_sq_dists(values, snap.fw), _sq_dists(values, target)) for values in blocks]
            diff_sq, res_sq = (np.concatenate(parts) for parts in zip(*sq))
            n = len(diff_sq)
            if probs is None:
                diff_lhs, res_lhs, tol = float(np.mean(diff_sq)), float(np.mean(res_sq)), 5.0 / math.sqrt(n)
            else:
                diff_lhs, res_lhs, tol = sum((probs * diff_sq).tolist()), sum((probs * res_sq).tolist()), 1e-9
        _keep_worst(worst, _row("diff-second-moment", kind.name, diff_lhs, c.A * gap_sq + c.D1, n, tol))
        _keep_worst(worst, _row("residual-second-moment", kind.name, res_lhs, c.E * gap_sq + c.D3, n, tol))
    return VerificationReport(list(worst.values()))
