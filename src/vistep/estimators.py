"""Gradient-estimation strategies for the extra-step loop.

Each strategy produces the pair (g^k, g^{k+1/2}) consumed by one iteration:
g^k drives the look-ahead half step, g^{k+1/2} the corrected full step.
Each is defined once, as a row of STRATEGIES; the solver step (est_pair),
the verifier's outcome sets of exact atoms or Monte Carlo draws
(half_outcomes), the contract constants, tau* and the step-size rule all
come from that row.  Each row function that does billed work returns its
bill, and the solver's state adds up the bills of the work it consumes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import combinations
from operator import add
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import RngStream, Vector, _block_rows, _check_integers, prox_eval
from .problems import MixingVI, VIProblem, eval_component, eval_full


@dataclass(frozen=True)
class Quantizer:
    """Unbiased random compression Q with E[Q(x)] = x, E|Q(x)|^2 = omega|x|^2.

    identity: Q(x) = x, omega = 1.
    randk:    keep k of d coordinates (uniform subset), scale kept entries
              by d/k, zero the rest; omega = d/k.
    """

    kind: str
    k: int = 0
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "randk"):
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        _check_integers(k=self.k, d=self.d)
        for name in ("k", "d"):
            if self.kind == "identity" and getattr(self, name) != 0:
                raise ValueError(f"identity does not read {name}")
        if self.kind == "randk" and not 1 <= self.k <= self.d:
            raise ValueError("randk needs 1 <= k <= d")

    @property
    def omega(self) -> float:
        if self.kind == "identity":
            return 1.0
        return self.d / self.k


def quantize(q: Quantizer, x: Vector, kept) -> Vector:
    """Q(x).  randk keeps the coordinates ``kept`` (None for identity); x
    may also hold one vector per row, with one row of k indices in ``kept``
    each."""
    x = np.asarray(x, dtype=float)
    if q.kind == "identity":
        return x.copy()
    if kept is None:
        raise ValueError("a randk quantizer needs the kept coordinates")
    if x.shape[-1] != q.d:
        raise ValueError(f"vector length {x.shape[-1]} does not match quantizer dimension {q.d}")
    at = kept if x.ndim == 1 else (np.arange(len(x))[:, None], kept)
    out = np.zeros(x.shape)
    out[at] = x[at] * (q.d / q.k)
    return out


@dataclass(frozen=True)
class EstimatorKind:
    """Strategy name plus the parameters it reads (its row's ``reads``);
    a parameter the strategy does not read must keep its default.

    sigma     oracle noise level for noisy/past (E|noise|^2 = sigma^2),
    quantizer compression of quant/qvr,
    weights   component probabilities for is (positive, summing to 1),
    tau_split branch probability of the local strategy's Phi part.
    """

    name: str
    sigma: float = 0.0
    quantizer: Quantizer | None = None
    weights: tuple[float, ...] | None = None
    tau_split: float = 0.0

    def __post_init__(self):
        if self.name not in STRATEGIES:
            raise ValueError(f"unknown estimator kind {self.name!r}")
        for name in ("sigma", "tau_split"):
            value = getattr(self, name)
            # bool is an int subclass, but neither a noise level nor a probability
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
                raise ValueError(f"{self.name}: {name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        reads = self.strategy.reads
        for name, default in _PARAMETER_DEFAULTS.items():
            # `is not None` for the None defaults: an array's != is elementwise
            value = getattr(self, name)
            if name not in reads and (value is not None if default is None else value != default):
                raise ValueError(f"{self.name} does not read {name}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"{self.name}: sigma must be nonnegative and finite, got {self.sigma!r}")
        if "quantizer" in reads and not isinstance(self.quantizer, Quantizer):
            raise ValueError(f"{self.name} requires a Quantizer as its quantizer, got {self.quantizer!r}")
        if "weights" in reads:
            try:
                w = np.asarray(self.weights, dtype=float)
            except (TypeError, ValueError):  # a string, or a ragged or non-numeric sequence
                w = np.empty(0)
            if self.weights is None or w.ndim != 1 or w.size == 0:
                raise ValueError(f"{self.name} weights must be a nonempty 1-d sequence of numbers, got {self.weights!r}")
            if not (np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-9):
                raise ValueError("component weights must be positive and sum to 1")
            object.__setattr__(self, "weights", tuple(float(x) for x in w))
        if "tau_split" in reads and not 0.0 < self.tau_split < 1.0:
            raise ValueError(f"{self.name} requires 0 < tau_split < 1")

    @property
    def strategy(self) -> Strategy:
        return STRATEGIES[self.name]

    @cached_property
    def _weight_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The is strategy's cumulative weights and inverse-probability
        scales 1/(M p_m), computed once per kind."""
        w = np.asarray(self.weights, dtype=float)
        return np.cumsum(w), 1.0 / (len(w) * w)


_PARAMETER_DEFAULTS = {f.name: f.default for f in fields(EstimatorKind) if f.name != "name"}


# everything a run consumes or transmits, in the order of a bill's counts
COST_COLUMNS = ("full_calls", "comp_calls", "coords", "bits", "comms", "local_steps")


def _bill(bits=0, full_calls=0, comp_calls=0, coords=0, comms=0, local_steps=0) -> tuple[int, ...]:
    """A bill: the six counts in COST_COLUMNS order."""
    return full_calls, comp_calls, coords, bits, comms, local_steps


def _dense_bits(d: int) -> int:
    return 64 * d


def _coord_bits(d: int) -> int:
    return 64 + math.ceil(math.log2(d)) if d > 1 else 64


def _payload_bits(kind: EstimatorKind, d: int) -> int:
    """Bits of one transmitted difference: dense unless randk-compressed."""
    q = kind.quantizer
    if q is None or q.kind == "identity":
        return _dense_bits(d)
    return q.k * _coord_bits(d)


class Snapshot(NamedTuple):
    """What a refresh keeps at the anchor w: the billed F(w), and what the
    differences read at w: F(w) for the finite-sum strategies (source s
    reads ratios[s] * F(w)), Phi(w) and the consensus term for local, None
    when the one source is F itself, whose value at w is fw."""

    fw: Vector
    at_w: Vector | Sequence[Vector] | None = None


@dataclass
class EstimatorState:
    """Mutable per-run state: snapshot anchor w and what the last refresh
    kept there, the past strategy's stored half-step value and sigma
    memory, and the sum of the bills so far, in COST_COLUMNS order."""

    kind: EstimatorKind
    w: Vector
    snap: Snapshot | None = None
    past_g: Vector | None = None
    # F at the last half point, before noise, when the step formed it there
    # (every strategy but coord and local); None otherwise
    f_half: Vector | None = None
    sigma_sq: float = 0.0
    costs: tuple[int, ...] = _bill()

    @property
    def fw(self) -> Vector | None:
        return None if self.snap is None else self.snap.fw


# ---------------------------------------------------------------------------
# The strategy table.  An outcome is a pair (s, r): s picks the difference
# source (a component, a coordinate, the Phi/consensus branch, or 0) and r
# holds the rest of the draw (oracle noise, randk's kept coordinates) or is
# None.  Each entry is an array with one element or row per draw, or a
# scalar or vector for the single draw of a solver step (n = None).

FRESH, PAST, SNAPSHOT = "fresh", "past", "snapshot"


@dataclass(frozen=True)
class Strategy:
    """One estimation strategy; est_pair, init_estimator, snapshot_update,
    half_outcomes, the contract constants, tau* and the step-size rule (by
    anchor) are all derived from it."""

    anchor: str  # g^k: an oracle sample at z^k (FRESH), the previous half step's (PAST), F(w) (SNAPSHOT)
    draw: Callable  # (kind, p, rng, n) -> n outcomes
    # (kind, p, s, z, snap) -> (source s's difference at z (F(z) without a snapshot), F(z) if a single draw
    # formed it, else None, its bill); for an index array s of distinct sources, one difference row per source
    # (coord's rows hold the one coordinate) or one vector for one source, and the sum of the sources' bills
    diff: Callable
    correct: Callable  # (kind, p, o, diff, fw) -> g^{k+1/2} for outcome o, one row per diff row when batched
    constants: Callable  # (kind, L, d=, M=, L_m=, lam=) -> the nonzero contract constants
    tau: Callable  # (kind, M=, d=, L=, lam=) -> tau*, None without its data
    refresh: Callable | None = None  # (kind, p, w) -> (the Snapshot at w, its bill); None without one
    atoms: Callable | None = None  # (kind, p) -> (probabilities, outcomes), if the outcomes are finite
    bound: Callable = lambda p: p.L  # p -> the Lipschitz constant L the constants are taken at
    reads: tuple[str, ...] = ()  # the EstimatorKind parameters it reads


# Bills follow the paper's cost model, not the work done: a refresh of the
# game's components bills M component calls for one product with the averaged
# matrix, and a difference bills F_s(w) although it reads it from the snapshot.


def _component_mean(kind, p, w):
    f = eval_full(p, w)
    # the billed F(w) is the mean of the components ratios[m] * F(w), whose bits may differ from F(w)'s
    fw = np.mean(p.payload.ratios[:, None] * f, axis=0)
    return Snapshot(fw, f), _bill(_dense_bits(p.d), comp_calls=p.M)


def _full_value(kind, p, w):
    return Snapshot(eval_full(p, w)), _bill(_dense_bits(p.d), full_calls=1)


def _branch_values(kind, p, w):
    """Phi(w) and the consensus term at w, kept apart; F(w) is their sum."""
    at_w = (p.payload.phi(w), p.payload.consensus(w))
    return Snapshot(at_w[0] + at_w[1], at_w), _bill(_dense_bits(p.d), full_calls=1, comms=1)


def _component_diff(kind, p, s, z, snap):
    """Component s's difference F_s(z) - F_s(w), F_s = ratios[s] * F, with
    F(w) from the snapshot.  A single draw forms F(z) and scales it; an
    index array reads one row per source off one eval_component."""
    if isinstance(s, np.ndarray):
        f, at_z, n = None, eval_component(p, s, z), len(s)
    else:
        f, n = eval_full(p, z), 1
        at_z = p.payload.ratios[s] * f
    at_w = _per_draw(p.payload.ratios, s) * snap.at_w
    return at_z - at_w, f, _bill(n * _payload_bits(kind, p.d), comp_calls=2 * n)


def _full_diff(kind, p, s, z, snap):
    """(F(z) - F(w), F(z), the bill): the difference and the F(z) it is formed from."""
    f = eval_full(p, z)
    return f - snap.fw, f, _bill(_payload_bits(kind, p.d), full_calls=1)


def _coordinate_diff(kind, p, s, z, snap):
    """Coordinate s's difference F_s(z) - F_s(w), from the payload's
    coordinate oracle: O(d) work for the one coordinate billed.  For an
    index array s, a one-entry row per coordinate, read off one F(z)."""
    if isinstance(s, np.ndarray):
        diff, n = (eval_full(p, z)[s] - snap.fw[s])[:, None], len(s)
    else:
        diff, n = p.payload.coordinate(s, z) - snap.fw[s], 1
    return diff, None, _bill(n * _coord_bits(p.d), coords=n)


def _branch_diff(kind, p, s, z, snap):
    """Phi's difference (s = 0, a local step) or consensus's (a broadcast)."""
    if isinstance(s, np.ndarray):
        diffs, _, bills = zip(*(_branch_diff(kind, p, int(t), z, snap) for t in s))
        return np.stack(diffs), None, tuple(map(sum, zip(*bills)))
    if s == 0:
        return p.payload.phi(z) - snap.at_w[0], None, _bill(local_steps=1)
    return p.payload.consensus(z) - snap.at_w[1], None, _bill(_dense_bits(p.d), comms=1)


def _per_draw(values, s):
    """values[s], shaped to scale the single draw's difference (s an int) or
    one difference row per draw (s an index array)."""
    return np.asarray(values)[s][:, None] if isinstance(s, np.ndarray) else values[s]


def _zeros(n):
    """Source 0 for each of n draws, or for the single draw (n = None)."""
    return 0 if n is None else np.zeros(n, dtype=np.int64)


def _with_kept(kind, rng, s, n):
    q = kind.quantizer
    return s, None if q.kind == "identity" else rng.subsets(q.d, q.k, n)


def _kept_atoms(kind, sources: int):
    """Every (source, kept subset) outcome, subsets in lexicographic order."""
    q = kind.quantizer
    kept = None if q.kind == "identity" else np.array(list(combinations(range(q.d), q.k)))
    count = 1 if kept is None else len(kept)
    s = np.repeat(np.arange(sources), count)
    return np.full(len(s), (1.0 / count) / sources), (s, None if kept is None else np.tile(kept, (sources, 1)))


def _one_coordinate(kind, p, o, diff, fw):
    """F(w) with the drawn coordinate moved by d times its difference."""
    g = np.empty(np.shape(diff)[:-1] + fw.shape)
    g[...] = fw
    at = o[0] if g.ndim == 1 else (np.arange(len(g)), o[0])
    g[at] += p.d * np.reshape(diff, np.shape(o[0]))
    return g


def _oracle_constants(kind, L, **_):
    s = kind.sigma
    return dict(A=3.0 * L * L, D1=6.0 * s * s, D3=s * s)


def _past_constants(kind, L, **_):
    s = kind.sigma
    return dict(rho=1.0 / 3.0, B=3.0, C=2.0 * L * L, D1=6.0 * s * s, D2=12.0 * s * s, D3=s * s)


def _variance_constants(omega, L):
    """A correction whose second moment is omega times the exact difference's."""
    return dict(A=omega * L * L, E=2.0 * (omega + 1) * L * L)


def _importance_constants(kind, L, M, L_m, **_):
    Lt = L_m / M
    pw = np.asarray(kind.weights, dtype=float)
    S = float(np.sum(Lt * Lt / pw))
    return dict(A=S, E=2.0 * (S + L * L))


def _split_constants(kind, L, lam, **_):
    t = kind.tau_split
    A = L * L / t + lam * lam / (1.0 - t)
    return dict(A=A, E=2.0 * (A + (L + lam) * (L + lam)))


def _finite_sum_tau(kind, M=None, **_):
    return None if M is None else M / (M + 1.0)


def _common_bound(p):
    """One Lipschitz bound over every component and the full operator."""
    return max(float(p.L), float(np.max(p.L_m)))


_NOISY = Strategy(
    FRESH, reads=("sigma",), constants=_oracle_constants, tau=lambda kind, **_: 0.0,
    draw=lambda kind, p, rng, n: (
        _zeros(n), rng.normal((p.d,) if n is None else (n, p.d)) if kind.sigma > 0 else None
    ),
    diff=lambda kind, p, s, z, snap: (eval_full(p, z),) * 2 + (_bill(_dense_bits(p.d), full_calls=1),),
    # a batch's F(z) rows arrive as a broadcast view of one row; return a real array
    correct=lambda kind, p, o, diff, fw: np.ascontiguousarray(diff) if o[1] is None
    else diff + (kind.sigma / math.sqrt(p.d)) * o[1],
)
_QUANT = Strategy(
    SNAPSHOT, reads=("quantizer",), refresh=_full_value, atoms=lambda kind, p: _kept_atoms(kind, 1),
    draw=lambda kind, p, rng, n: _with_kept(kind, rng, _zeros(n), n),
    diff=_full_diff,
    correct=lambda kind, p, o, diff, fw: quantize(kind.quantizer, diff, kept=o[1]) + fw,
    constants=lambda kind, L, **_: _variance_constants(kind.quantizer.omega, L),
    tau=lambda kind, **_: kind.quantizer.omega / (kind.quantizer.omega + 1.0),
)

STRATEGIES: dict[str, Strategy] = {
    "fulldet": replace(_NOISY, reads=(), atoms=lambda kind, p: (np.ones(1), (_zeros(1), None))),
    "noisy": _NOISY,
    "past": replace(_NOISY, anchor=PAST, constants=_past_constants),
    "vr": Strategy(
        SNAPSHOT, refresh=_component_mean, diff=_component_diff, bound=_common_bound, tau=_finite_sum_tau,
        draw=lambda kind, p, rng, n: (rng.integers(p.M, n), None),
        correct=lambda kind, p, o, diff, fw: diff + fw,
        atoms=lambda kind, p: (np.full(p.M, 1.0 / p.M), (np.arange(p.M), None)),
        constants=lambda kind, L, **_: _variance_constants(1, L),
    ),
    "coord": Strategy(
        SNAPSHOT, refresh=_full_value, constants=lambda kind, L, d, **_: _variance_constants(d, L),
        tau=lambda kind, d=None, **_: _finite_sum_tau(kind, d),
        draw=lambda kind, p, rng, n: (rng.integers(p.d, n), None),
        diff=_coordinate_diff,
        correct=_one_coordinate,
        atoms=lambda kind, p: (np.full(p.d, 1.0 / p.d), (np.arange(p.d), None)),
    ),
    "quant": _QUANT,
    "qvr": replace(
        _QUANT, refresh=_component_mean, diff=_component_diff, bound=_common_bound,
        draw=lambda kind, p, rng, n: _with_kept(kind, rng, rng.integers(p.M, n), n),
        atoms=lambda kind, p: _kept_atoms(kind, p.M),
    ),
    "is": Strategy(
        SNAPSHOT, refresh=_component_mean, diff=_component_diff, reads=("weights",),
        constants=_importance_constants, tau=_finite_sum_tau,
        draw=lambda kind, p, rng, n: (
            np.minimum(np.searchsorted(kind._weight_tables[0], rng.uniform(n), side="right"), p.M - 1),
            None,
        ),
        correct=lambda kind, p, o, diff, fw: diff * _per_draw(kind._weight_tables[1], o[0]) + fw,
        atoms=lambda kind, p: (np.array(kind.weights), (np.arange(p.M), None)),
    ),
    "local": Strategy(
        SNAPSHOT, reads=("tau_split",), refresh=_branch_values, diff=_branch_diff, constants=_split_constants,
        # source 0 is the Phi branch (probability tau_split), 1 the consensus branch
        draw=lambda kind, p, rng, n: ((rng.uniform(n) >= kind.tau_split) * 1, None),
        correct=lambda kind, p, o, diff, fw: diff / _per_draw((kind.tau_split, 1.0 - kind.tau_split), o[0]) + fw,
        atoms=lambda kind, p: (np.array([kind.tau_split, 1.0 - kind.tau_split]), (np.arange(2), None)),
        tau=lambda kind, L=None, lam=None, **_: None if L is None or lam is None else L / (L + lam),
        bound=lambda p: p.payload.l_phi,
    ),
}
KINDS = tuple(STRATEGIES)


def check_problem(kind: EstimatorKind, p: VIProblem) -> None:
    """Raise if the strategy's parameters do not fit the problem: a randk
    quantizer of another dimension, weights of another length than M, or
    a Phi/consensus split without a mixing problem."""
    q = kind.quantizer
    if q is not None and q.kind == "randk" and q.d != p.d:
        raise ValueError(f"quantizer dimension {q.d} does not match problem dimension {p.d}")
    if kind.weights is not None and len(kind.weights) != p.M:
        raise ValueError(f"{kind.name} weights have length {len(kind.weights)}, problem has M={p.M}")
    if "tau_split" in kind.strategy.reads and not isinstance(p.payload, MixingVI):
        raise TypeError(f"{kind.name} estimator requires a mixing problem")


def init_estimator(kind: EstimatorKind, p: VIProblem, z0: Vector, rng: RngStream) -> EstimatorState:
    """Set up the state at z^0 = w^0, paying any cache-fill cost."""
    check_problem(kind, p)
    state = EstimatorState(kind=kind, w=np.asarray(z0, dtype=float).copy())
    strat = kind.strategy
    if strat.anchor == PAST:
        state.past_g = _sample(state, p, state.w, rng)[1]
    elif strat.refresh is not None:
        state.snap, state.costs = strat.refresh(kind, p, state.w)  # the first bill of a new state
    return state


def _sample(state: EstimatorState, p: VIProblem, z: Vector, rng: RngStream) -> tuple[Vector | None, Vector]:
    """One billed draw at z: (F(z) if the draw formed it, else None; the estimate)."""
    kind = state.kind
    strat = kind.strategy
    outcome = strat.draw(kind, p, rng, None)
    diff, f, bill = strat.diff(kind, p, int(outcome[0]), z, state.snap)
    state.costs = tuple(map(add, state.costs, bill))
    return f, strat.correct(kind, p, outcome, diff, state.fw)


def est_pair(
    state: EstimatorState,
    p: VIProblem,
    z_bar: Vector,
    z_k: Vector,
    gamma: float,
    rng: RngStream,
) -> tuple[Vector, Vector, Vector]:
    """One iteration's estimates: returns (g^k, g^{k+1/2}, z^{k+1/2}) where
    z^{k+1/2} = prox(z_bar - gamma*g^k), with the problem's prox, and
    E[g^{k+1/2} | z^{k+1/2}] equals F(z^{k+1/2}).  Adds the draws' bills
    to state.costs; the past strategy stores g^{k+1/2} as the next
    iteration's g^k, and state.f_half keeps F(z^{k+1/2}) when the draw
    formed it (every strategy but coord and local), else None."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    strat = state.kind.strategy
    anchor = strat.anchor
    if anchor == FRESH:
        g_k = _sample(state, p, z_k, rng)[1]
    else:
        g_k = state.past_g if anchor == PAST else state.fw
        if g_k is None:
            raise RuntimeError("estimator used before initialization")
    z_half = prox_eval(p.prox, z_bar - gamma * g_k)
    state.f_half, g_half = _sample(state, p, z_half, rng)
    if anchor == PAST:
        state.sigma_sq = float(np.sum((g_half - g_k) ** 2))
        state.past_g = g_half
    return g_k, g_half, z_half


def snapshot_update(state: EstimatorState, z_next: Vector, tau: float, rng: RngStream, p: VIProblem) -> bool:
    """End-of-iteration update: with probability 1 - tau (one uniform draw)
    move w to z_next and take a new snapshot, adding its bill to
    state.costs.  Returns whether w moved."""
    if not 0.0 <= tau < 1.0:
        raise ValueError("need 0 <= tau < 1")
    refreshed = rng.uniform() < 1.0 - tau
    refresh = state.kind.strategy.refresh
    if refreshed:
        state.w = np.asarray(z_next, dtype=float).copy()
        if refresh is not None:
            state.snap, bill = refresh(state.kind, p, state.w)
            state.costs = tuple(map(add, state.costs, bill))
    return refreshed


@dataclass(frozen=True)
class AssumptionConstants:
    """The second-moment contract constants of one strategy:

    E|g^{k+1/2} - g^k|^2      <= A*E|z^{k+1/2}-w^k|^2 + B*E[sigma_k^2] + D1
    E[sigma_{k+1}^2]          <= (1-rho)*E[sigma_k^2]
                                 + C*E|z^{k+1/2}-w^k|^2 + D2
    E|g^{k+1/2}-F(z^{k+1/2})|^2 <= E_*E|z^{k+1/2}-w^k|^2 + D3

    tau_star is the recommended momentum (optimal_tau).  The Lyapunov
    weight T that goes with a step size comes from solver.step_size_bound.
    """

    A: float
    B: float
    C: float
    E: float
    D1: float
    D2: float
    D3: float
    rho: float
    tau_star: float


def optimal_tau(
    kind: EstimatorKind,
    M: int | None = None,
    d: int | None = None,
    L: float | None = None,
    lam: float | None = None,
) -> float:
    """Recommended momentum: balances per-iteration cost against the
    snapshot refresh cost (refresh happens with probability 1 - tau).
    vr/is need M, coord d, local L and lam."""
    tau = kind.strategy.tau(kind, M=M, d=d, L=L, lam=lam)
    if tau is None:
        raise ValueError(f"the {kind.name} tau rule needs problem data that was not given")
    return tau


def importance_weights(L_m) -> np.ndarray:
    """Optimal component probabilities p_m proportional to L_m."""
    L_m = np.asarray(L_m, dtype=float)
    if L_m.ndim != 1 or L_m.size == 0 or not np.all((L_m > 0) & np.isfinite(L_m)):
        raise ValueError("need a nonempty list of positive finite constants")
    with np.errstate(over="ignore"):
        total = L_m.sum()
    if not np.isfinite(total):
        raise ValueError(f"the constants {L_m.tolist()} sum past the float range")
    return L_m / total


def constants_for_problem(kind: EstimatorKind, p: VIProblem) -> AssumptionConstants:
    """The exact constants table of the strategy on the problem: its row's
    constants at L = strategy.bound(p) (the full operator's Lipschitz
    constant; for vr/qvr the common bound over every component and F; for
    local the stacked worker operator's, with lam the consensus strength),
    and tau_star = optimal_tau at the problem's M, d, L and lam.  For is,
    the L_m refer to components of the (1/M)-averaged sum and are rescaled
    by 1/M, so that the rescaled components sum to the full operator."""
    check_problem(kind, p)
    L = kind.strategy.bound(p)
    lam = p.payload.lam if isinstance(p.payload, MixingVI) else None
    c = dict(A=0.0, B=0.0, C=0.0, E=0.0, D1=0.0, D2=0.0, D3=0.0, rho=1.0)
    c.update(kind.strategy.constants(kind, L, d=p.d, M=p.M, L_m=p.L_m, lam=lam))
    return AssumptionConstants(**c, tau_star=optimal_tau(kind, M=p.M, d=p.d, L=L, lam=lam))


# ---------------------------------------------------------------------------
# The verification suite's view of g^{k+1/2}: the strategy's own draw and
# correction over every outcome atom (exact) or a batch of draws (Monte Carlo),
# given the snapshot the strategy's refresh made at w (None without one).

def half_outcomes(
    kind: EstimatorKind, p: VIProblem, z_half: Vector, snap: Snapshot | None, draws: int, rng: RngStream | None
):
    """The outcome set of g^{k+1/2} at z^{k+1/2} as (probs, blocks of value
    rows): every atom with its probability, _block_rows(d) atoms a block,
    when draws = 0 (for a strategy with atoms); else (None, one block) of
    ``draws`` Monte Carlo draws from rng.  Each distinct source's
    difference is formed once.

    The draws take their uniforms the way the solver step does, but each
    kind of random number in one block (all components before all subsets;
    all gaussian noise at once), so the batch is distribution-equal, not
    stream-equal, to that many solver draws.
    """
    strat = kind.strategy
    if draws:
        probs, outcomes, rows = None, strat.draw(kind, p, rng, draws), draws
    elif strat.atoms is None:
        raise ValueError(f"estimator kind {kind.name!r} is not enumerable")
    else:
        (probs, outcomes), rows = strat.atoms(kind, p), _block_rows(p.d)
    sources, index = np.unique(outcomes[0], return_inverse=True)
    diffs = np.atleast_2d(strat.diff(kind, p, sources, z_half, snap)[0])
    fw = None if snap is None else snap.fw

    def blocks():
        for start in range(0, len(index), rows):
            part = slice(start, start + rows)
            at = index[part]
            block = np.broadcast_to(diffs[0], (len(at), diffs.shape[1])) if len(diffs) == 1 else diffs[at]
            yield strat.correct(kind, p, tuple(o if o is None else o[part] for o in outcomes), block, fw)

    # the one block of draws is formed here, so the draws are dropped before it is walked
    return probs, blocks() if draws == 0 else tuple(blocks())
