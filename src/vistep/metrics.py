"""The verification suite for the estimator contracts.

Every estimation strategy promises unbiasedness of g^{k+1/2} and a
second-moment contract with its table constants.  For strategies with
finitely many outcomes both are checked exactly by enumerating the
outcome atoms; otherwise by Monte Carlo with a slack that scales like
1/sqrt(n).  The noisy oracle strategies (noisy, past) have no atoms, so
their unbiasedness rows average Monte Carlo draws that include the noise;
in their second-moment rows the noise terms enter analytically.

Every row comes from one pass over a list of strategies (verify_contracts),
which checks its counts and seed once and each strategy against the problem
once.  At each random state pair (z^{k+1/2}, w) each distinct outcome set of
g^{k+1/2} is built once, by estimators.half_outcomes from the strategy's own
row, and one walk over it yields every row it serves.
Strategies share an outcome set when their rows have the same draw, diff,
correct, refresh and atoms and their parameters agree: noisy and past at
one sigma, or a strategy listed twice.  The stored-half-step strategy's
second-moment rows stay a trajectory check: its g^k is the previous half
step's sample, not a function of the state pair, so its contract bounds
a trajectory of the solver's own iteration, not a state pair.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .core import Vector, _block_rows, _check_integers, rng_stream
from .estimators import (
    FRESH,
    PAST,
    SNAPSHOT,
    EstimatorKind,
    check_problem,
    constants_for_problem,
    half_outcomes,
    init_estimator,
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


def _outcome_key(kind: EstimatorKind) -> tuple:
    """What fixes a strategy's outcome sets: the row fields that produce
    g^{k+1/2} and the kind's parameters.  Kinds with one key (noisy and
    past at one sigma, or a strategy listed twice) share their sets."""
    strat = kind.strategy
    return (strat.draw, strat.diff, strat.correct, strat.refresh, strat.atoms) + astuple(kind)[1:]


def _sq_dists(values: np.ndarray, ref: Vector) -> np.ndarray:
    """|v - ref|^2 for each row v, a block of rows at a time, so no second
    array of the values' size is made."""
    rows = _block_rows(len(ref))
    return np.concatenate([np.sum((values[i : i + rows] - ref) ** 2, axis=1) for i in range(0, len(values), rows)])


def _keep_worst(worst: dict, row: CheckRow) -> None:
    """Keep the largest-slack row per lemma, or a failing one."""
    if row.lemma not in worst or row.slack > worst[row.lemma].slack or not row.passed:
        worst[row.lemma] = row


def _moments(probs, blocks, target: Vector, fw: Vector | None, unbiased: bool):
    """One walk over an outcome set: the unbiasedness check's (lhs, rhs)
    when ``unbiased``, else None; given the snapshot's F(w) as fw, the
    anchored-difference and residual second moments with their tolerance,
    else None; and the number of outcomes."""
    scale = 1.0 + float(np.linalg.norm(target))
    check, mean, n, sq = None, np.zeros(len(target)), 0, []
    for values in blocks:
        if unbiased and probs is not None:
            # the running sum enters as a first row of weight 1, so the
            # additions keep the order of one pass over every atom
            weights = np.concatenate([[1.0], probs[n : n + len(values)]])
            mean = np.einsum("i,ij->j", weights, np.vstack([mean, values]))
        elif unbiased:  # the one block of Monte Carlo draws
            trace_cov = float(np.sum(values.var(axis=0))) / len(values)
            check = float(np.linalg.norm(values.mean(axis=0) - target)), 4.0 * math.sqrt(trace_cov) + 1e-12 * scale
        if fw is not None:
            sq.append((_sq_dists(values, fw), _sq_dists(values, target)))
        n += len(values)
    if unbiased and probs is not None:
        check = float(np.linalg.norm(mean - target)), 1e-9 * scale
    if fw is None:
        return check, None, n
    diff_sq, res_sq = (np.concatenate(parts) for parts in zip(*sq))
    if probs is None:
        return check, (float(np.mean(diff_sq)), float(np.mean(res_sq)), 5.0 / math.sqrt(n)), n
    return check, (sum((probs * diff_sq).tolist()), sum((probs * res_sq).tolist()), 1e-9), n


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


def verify_contracts(
    kinds, p: VIProblem, n_points: int, n_samples: int, seed: int, unbiased: bool = True, second: bool = True
) -> VerificationReport:
    """The contract rows of each kind in ``kinds``, in one pass: per kind
    its unbiased row (verify_unbiasedness's, when ``unbiased``), then its
    second-moment rows (verify_assumption2's, when ``second``), with the
    bits those report.

    The points come from one (seed, 5) stream, outermost.  Each distinct
    outcome key (see _outcome_key) is one sampler with its own (seed, 6)
    stream: at each point it builds its outcome set once, walks it once,
    and drops it before the next sampler builds its own.  A sampler is
    needed for the unbiased rows and for the second moments of a snapshot
    strategy; the fresh-oracle strategies' second moments are analytic
    and the stored-half-step one's come from its trajectory.
    """
    _check_integers(n_points=n_points, n_samples=n_samples, seed=seed)
    if n_points < 1:
        raise ValueError("need n_points >= 1")
    if n_samples == 1 or n_samples < 0:
        raise ValueError(f"need n_samples = 0 or n_samples >= 2, got {n_samples}")
    for kind in kinds:
        check_problem(kind, p)
    # 0 enumerates the outcome atoms; a strategy without atoms takes MC_SAMPLES draws
    draws = [MC_SAMPLES if n_samples == 0 and kind.strategy.atoms is None else n_samples for kind in kinds]
    anchors = [kind.strategy.anchor for kind in kinds]
    consts = [constants_for_problem(k, p) if second and a != PAST else None for k, a in zip(kinds, anchors)]
    samplers = {}  # outcome key -> (kind, draws, (seed, 6) stream, indices of the kinds it serves)
    for i, kind in enumerate(kinds):
        if unbiased or (second and anchors[i] == SNAPSHOT):
            samplers.setdefault(_outcome_key(kind), (kind, draws[i], rng_stream(seed, 6), []))[3].append(i)
    fresh = [i for i, anchor in enumerate(anchors) if second and anchor == FRESH]
    worst = [{} for _ in kinds]
    points = rng_stream(seed, 5)
    # the stored-half-step strategy's second moments alone draw no points
    for _ in range(n_points if samplers or fresh else 0):
        z_half, w = random_feasible(p, points), random_feasible(p, points)
        target = eval_full(p, z_half)
        gap_sq = float(np.sum((z_half - w) ** 2))
        for kind, n_draws, rng, users in samplers.values():
            snap = None if kind.strategy.refresh is None else kind.strategy.refresh(kind, p, w)[0]
            fw = snap.fw if second and snap is not None else None
            check, moments, n = _moments(*half_outcomes(kind, p, z_half, snap, n_draws, rng), target, fw, unbiased)
            for i in users:
                name, c = kinds[i].name, consts[i]
                if check is not None:
                    _keep_worst(worst[i], _row("unbiased", name, *check, n, 0.0))
                if moments is not None:
                    diff_lhs, res_lhs, tol = moments
                    _keep_worst(worst[i], _row("diff-second-moment", name, diff_lhs, c.A * gap_sq + c.D1, n, tol))
                    _keep_worst(worst[i], _row("residual-second-moment", name, res_lhs, c.E * gap_sq + c.D3, n, tol))
        # tau = 0 for the fresh-oracle strategies, so the anchor w is the current iterate
        f_w = eval_full(p, w) if fresh else None
        for i in fresh:
            name, c, s2 = kinds[i].name, consts[i], kinds[i].sigma ** 2
            diff_lhs = float(np.sum((target - f_w) ** 2)) + 2.0 * s2
            _keep_worst(worst[i], _row("diff-second-moment", name, diff_lhs, c.A * gap_sq + c.D1, 0, 1e-9))
            _keep_worst(worst[i], _row("residual-second-moment", name, s2, c.E * gap_sq + c.D3, 0, 1e-9))
    rows = []
    for i, kind in enumerate(kinds):
        rows += worst[i].values()
        if second and anchors[i] == PAST:
            rows += _second_moment_rows_past(kind, p, n_points, seed)
    return VerificationReport(rows)


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
    return verify_contracts([kind], p, n_points, n_samples, seed, second=False)


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
    return verify_contracts([kind], p, n_points, n_samples, seed, unbiased=False)
