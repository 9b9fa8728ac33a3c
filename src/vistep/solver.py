"""Extra-step solver with snapshot momentum.

One iteration from (z^k, w^k):

    z_bar     = tau * z^k + (1 - tau) * w^k
    z^{k+1/2} = prox_{gamma h}(z_bar - gamma * g^k)
    z^{k+1}   = prox_{gamma h}(z_bar - gamma * g^{k+1/2})
    w^{k+1}   = z^{k+1} with probability 1 - tau, else w^k

where (g^k, g^{k+1/2}) come from the configured estimation strategy.
tau = 0 is the classic extra-step method: z_bar = z^k and w tracks z.

Step sizes follow the per-strategy theory bounds; progress is tracked by
the Lyapunov weight tau*|z - z*|^2 + |w - z*|^2 + T*gamma^2*sigma_k^2 in
the strongly monotone regime and by the duality gap of the averaged half
iterate in the monotone regime.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

import numpy as np

from .core import RngStream, Vector, _check_integers, prox_eval, rng_stream
from .estimators import (
    FRESH,
    PAST,
    AssumptionConstants,
    CostLedger,
    EstimatorKind,
    EstimatorState,
    constants_for_problem,
    est_pair,
    init_estimator,
    snapshot_update,
)
from .problems import BilinearGame, GridGame, VIProblem, duality_gap_bilinear, initial_point

REGIMES = ("mono", "sm")

COST_COLUMNS = tuple(f.name for f in fields(CostLedger))


class DivergenceError(ArithmeticError):
    """The iterate left the finite range; names the iteration and step size."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.  gamma=None takes the theory bound for the regime,
    tau=None the strategy's recommended momentum.  Gap columns are filled
    every gap_every rows (and at the last row) when the problem supports a
    closed-form gap."""

    kind: EstimatorKind
    K: int
    seed: int = 0
    regime: str = "mono"
    gamma: float | None = None
    tau: float | None = None
    gap_every: int = 1

    def __post_init__(self):
        _check_integers(K=self.K, seed=self.seed, gap_every=self.gap_every)
        if self.K < 0:
            raise ValueError("need K >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for name in ("gamma", "tau"):
            value = getattr(self, name)
            if value is None:
                continue
            # bool is an int subclass, but not a step size or a momentum
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.tau is not None and not 0.0 <= self.tau < 1.0:
            raise ValueError("need 0 <= tau < 1")
        if self.gap_every < 1:
            raise ValueError("need gap_every >= 1")


@dataclass
class RunTrace:
    """Per-iteration record, rows k = 0..K.  Cost columns are cumulative;
    dist_sq/lyapunov are NaN without a known solution, gap columns NaN off
    the gap_every schedule or without a closed-form gap."""

    k: np.ndarray
    full_calls: np.ndarray
    comp_calls: np.ndarray
    coords: np.ndarray
    bits: np.ndarray
    comms: np.ndarray
    local_steps: np.ndarray
    dist_sq: np.ndarray
    lyapunov: np.ndarray
    gap_last: np.ndarray
    gap_avg: np.ndarray
    z_final: Vector
    z_avg: Vector | None
    gamma: float
    tau: float
    T: float


def _safe_div(num: float, den: float) -> float:
    return np.inf if den == 0.0 else num / den


def step_size_bound(
    kind: EstimatorKind,
    regime: str,
    constants: AssumptionConstants,
    mu_F: float = 0.0,
    mu_h: float = 0.0,
    tau: float = 0.0,
) -> tuple[float, float]:
    """Largest step size the convergence theory allows, and the Lyapunov
    sigma-weight T that goes with it.

    Strongly monotone: gamma <= min{sqrt(1-tau)/(2*sqrt(2A+TC)),
    (1-tau)/(4(mu_F+mu_h))} with T = 4B/rho; monotone: gamma <=
    sqrt(1-tau)/(2*sqrt(2A+TC+E)) with T = 2B/rho.  The direct-oracle
    strategies use their sharper dedicated bounds (recovering L from the
    constants table): 1/(6L) (strongly monotone) and 1/(3L) (monotone) when
    g^k is a fresh oracle sample (fulldet/noisy), and the stored half-step
    rule min{1/(12*sqrt(2)*L), 1/(3L)} when it is the previous half step's
    (past); their strongly monotone cap is 1/(4(mu_F+mu_h)).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if not 0.0 <= tau < 1.0:
        raise ValueError("need 0 <= tau < 1")
    sm = regime == "sm"
    mu = mu_F + mu_h
    if sm and not mu > 0:
        raise ValueError("strongly monotone regime needs mu_F + mu_h > 0")
    c = constants
    anchor = kind.strategy.anchor
    T = (4.0 if sm else 2.0) * c.B / c.rho if c.B > 0 else 0.0
    # each anchor's rule, and the numerator of its mu cap
    if anchor == FRESH:
        L = math.sqrt(c.A / 3.0)
        gamma, room = _safe_div(1.0, (6.0 if sm else 3.0) * L), 1.0
    elif anchor == PAST:
        L = math.sqrt(c.C / 2.0)
        gamma, room = min(_safe_div(1.0, 12.0 * math.sqrt(2.0) * L), _safe_div(1.0, 3.0 * L)), 1.0
    else:
        E = 0.0 if sm else c.E
        gamma, room = _safe_div(math.sqrt(1.0 - tau), 2.0 * math.sqrt(2.0 * c.A + T * c.C + E)), 1.0 - tau
    if sm:
        gamma = min(gamma, room / (4.0 * mu))
    return gamma, T


def iterate_once(
    state: EstimatorState,
    p: VIProblem,
    z: Vector,
    tau: float,
    gamma: float,
    est_rng: RngStream,
    coin_rng: RngStream,
) -> tuple[Vector, Vector]:
    """One full iteration; returns (z^{k+1}, z^{k+1/2}).  Moves state.w."""
    z_bar = tau * z + (1.0 - tau) * state.w
    g_k, g_half, z_half = est_pair(state, p, z_bar, z, gamma, est_rng)
    z_next = prox_eval(p.prox, z_bar - gamma * g_half)
    snapshot_update(state, z_next, tau, coin_rng, p)
    return z_next, z_half


def lyapunov_value(
    dist_sq: float,
    w: Vector,
    sigma_sq: float,
    z_star: Vector,
    tau: float,
    gamma: float,
    T: float,
) -> float:
    """tau*|z - z*|^2 + |w - z*|^2 + T*gamma^2*sigma_sq, given
    dist_sq = |z - z*|^2."""
    dw = float(np.sum((w - z_star) ** 2))
    return tau * dist_sq + dw + T * gamma * gamma * sigma_sq


def _gap_supported(p: VIProblem) -> bool:
    return isinstance(p.payload, (BilinearGame, GridGame)) and not p.prox.free


def run_solver(p: VIProblem, config: SolverConfig) -> RunTrace:
    """Run K iterations from z^0 = w^0 = initial_point(p, seed) and record the trace.

    Streams: seed/0 feeds the estimator, seed/1 the snapshot coin, seed/2
    the initial point, so strategies consuming different numbers of draws
    per iteration still share coins and starting point at equal seeds.
    """
    kind = config.kind
    consts = constants_for_problem(kind, p)
    tau = consts.tau_star if config.tau is None else config.tau
    gamma_max, T = step_size_bound(kind, config.regime, consts, p.mu_F, p.mu_h, tau)
    gamma = gamma_max if config.gamma is None else config.gamma
    if not math.isfinite(gamma) or gamma <= 0:
        raise ValueError("no finite step size for this instance; pass gamma explicitly")

    est_rng = rng_stream(config.seed, 0)
    coin_rng = rng_stream(config.seed, 1)
    z = initial_point(p, config.seed)
    state = init_estimator(kind, p, z, est_rng)

    K = config.K
    rows = K + 1
    # one ledger column per row of the table, each a contiguous trace column;
    # an iteration's six counts are stored at once, down a column
    costs_of = operator.attrgetter(*COST_COLUMNS)
    cost = np.zeros((len(COST_COLUMNS), rows), dtype=np.int64)
    dist_sq = np.full(rows, np.nan)
    lyap = np.full(rows, np.nan)
    gap_last = np.full(rows, np.nan)
    gap_avg = np.full(rows, np.nan)

    z_star = p.known_solution
    with_gap = _gap_supported(p)
    half_sum = np.zeros(p.d)
    # a gap on every row of a game reads gap_avg off the F values already formed
    f_sum = np.zeros(p.d) if with_gap and config.gap_every == 1 else None
    last_half: Vector | None = None

    def record(row: int) -> None:
        cost[:, row] = costs_of(state.costs)
        if z_star is not None:
            dz = float(np.sum((z - z_star) ** 2))
            dist_sq[row] = dz
            lyap[row] = lyapunov_value(dz, state.w, state.sigma_sq, z_star, tau, gamma, T)
        on_schedule = row % config.gap_every == 0 or row == K
        if with_gap and row > 0 and on_schedule:
            # the step hands over F at the last half point; coord's and local's
            # steps never form it, so their gap rows form it here, unbilled
            f_last = p.payload.full(last_half) if state.f_half is None else state.f_half
            gap_last[row] = duality_gap_bilinear(p.payload, last_half, f_last)
            if f_sum is not None:
                # F is linear on a game: F(mean of the half points) = mean of their F values
                np.add(f_sum, f_last, out=f_sum)
                gap_avg[row] = duality_gap_bilinear(p.payload, None, f_sum / row)
            else:
                gap_avg[row] = duality_gap_bilinear(p.payload, half_sum / row)

    record(0)
    for k in range(1, rows):
        z, z_half = iterate_once(state, p, z, tau, gamma, est_rng, coin_rng)
        if not np.isfinite(z).all():
            raise DivergenceError(f"iterate is not finite at k={k} with gamma={gamma:.17g}")
        half_sum += z_half
        last_half = z_half
        record(k)

    return RunTrace(
        k=np.arange(rows, dtype=np.int64),
        **dict(zip(COST_COLUMNS, cost)),
        dist_sq=dist_sq,
        lyapunov=lyap,
        gap_last=gap_last,
        gap_avg=gap_avg,
        z_final=z,
        z_avg=half_sum / K if K else None,
        gamma=gamma,
        tau=tau,
        T=T,
    )
