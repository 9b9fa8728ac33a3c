"""The solver against a reference loop over its update equations.

``reference_run`` is the iteration of ``solver.py``'s docstring written as
a plain loop: every draw comes from ``conftest.OnDemandStream``, every
projection from ``conftest.sort_rule_projection`` block by block, F is
formed afresh wherever the equations read it, the gap is formed afresh at
each recorded row, and the bills that ``diff`` and ``refresh`` return are
added up here and read after each row.  It calls the strategy rows'
``draw``, ``diff``, ``correct`` and ``refresh``, so each strategy is still
defined once; what it replaces is the machinery: the tape, the row
projection, the reuse of F at the half point and the solver's sum of the
bills and its column store.  Every ``RunTrace`` field must agree with it byte
for byte.
"""

import dataclasses
import functools
import itertools

import numpy as np
from conftest import OnDemandStream, sort_rule_projection
from hypothesis import given, settings
from hypothesis import strategies as st

from vistep import (
    DivergenceError,
    EstimatorKind,
    Quantizer,
    RunTrace,
    SolverConfig,
    constants_for_problem,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    run_solver,
    step_size_bound,
)
from vistep.estimators import FRESH, KINDS, PAST
from vistep.solver import COST_COLUMNS


@functools.cache
def problem(name: str):
    """The problems the test draws from, built once: games on both forms
    (n = 23 is the grid form), a small quadratic and a 3-worker mixing VI."""
    if name.startswith("game"):
        return gen_policeman_burglar(int(name[4:]), seed=1)
    if name == "quadratic":
        return gen_quadratic_vi(6, 0.5, 2.0, seed=2)
    return gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0, seed=s) for s in (3, 4, 5)], 1.0)


def reference_prox(spec, v):
    """prox_eval written plainly: a copy, or the sort rule on each block."""
    if spec.blocks is None:
        return v.copy()
    ends = itertools.accumulate(spec.blocks)
    return np.concatenate([sort_rule_projection(v[end - b : end]) for b, end in zip(spec.blocks, ends)])


def gap(f):
    """max_i (A x)_i - min_j (A^T y)_j, read off F(x, y) = (A^T y, -A x)."""
    h = f.size // 2
    return float(-np.min(f[h:]) - np.min(f[:h]))


def reference_run(p, config: SolverConfig) -> RunTrace:
    kind, K = config.kind, config.K
    consts = constants_for_problem(kind, p)
    tau = consts.tau_star if config.tau is None else config.tau
    gamma, T = step_size_bound(kind, config.regime, consts, p.mu_F, p.mu_h, tau)
    gamma = gamma if config.gamma is None else config.gamma
    est, coin = OnDemandStream(config.seed, 0), OnDemandStream(config.seed, 1)
    if p.prox.free:
        e = OnDemandStream(config.seed, 2).normal(p.d)
        z = (np.zeros(p.d) if p.known_solution is None else p.known_solution) + e / np.linalg.norm(e)
    else:
        z = reference_prox(p.prox, np.zeros(p.d))
    strat = kind.strategy
    costs = np.zeros(len(COST_COLUMNS), dtype=np.int64)
    w, snap, past_g, sigma_sq = z.copy(), None, None, 0.0

    def sample(at):
        outcome = strat.draw(kind, p, est, None)
        diff, _, bill = strat.diff(kind, p, int(outcome[0]), at, snap)
        costs[:] += bill
        return strat.correct(kind, p, outcome, diff, None if snap is None else snap.fw)

    def refresh(at):
        snap, bill = strat.refresh(kind, p, at)
        costs[:] += bill
        return snap

    if strat.anchor == PAST:
        past_g = sample(w)
    elif strat.refresh is not None:
        snap = refresh(w)

    with_gap = hasattr(p.payload, "half") and not p.prox.free
    z_star = p.known_solution
    table = {name: [] for name in ("costs", "dist_sq", "lyapunov", "gap_last", "gap_avg")}
    half_sum, f_sum, z_half = np.zeros(p.d), np.zeros(p.d), None
    for k in range(K + 1):
        if k:
            z_bar = tau * z + (1.0 - tau) * w
            g_k = sample(z) if strat.anchor == FRESH else past_g if strat.anchor == PAST else snap.fw
            z_half = reference_prox(p.prox, z_bar - gamma * g_k)
            g_half = sample(z_half)
            if strat.anchor == PAST:
                sigma_sq, past_g = float(np.sum((g_half - g_k) ** 2)), g_half
            z = reference_prox(p.prox, z_bar - gamma * g_half)
            if coin.uniform() < 1.0 - tau:
                w = z.copy()
                if strat.refresh is not None:
                    snap = refresh(w)
            if not np.isfinite(z).all():
                raise DivergenceError(f"k={k}")
            half_sum = half_sum + z_half
        table["costs"].append(costs.copy())
        dz = lyap = gap_last = gap_avg = np.nan
        if z_star is not None:
            dz = float(np.sum((z - z_star) ** 2))
            lyap = tau * dz + float(np.sum((w - z_star) ** 2)) + T * gamma * gamma * sigma_sq
        if with_gap and k > 0 and (k % config.gap_every == 0 or k == K):
            f_last = p.payload.full(z_half)
            gap_last = gap(f_last)
            if config.gap_every == 1:
                # a gap on every row: F is linear on a game, so F at the mean
                # half point is read off the mean of the F values, in their order
                f_sum = f_sum + f_last
                gap_avg = gap(f_sum / k)
            else:
                gap_avg = gap(p.payload.full(half_sum / k))
        for name, value in zip(("dist_sq", "lyapunov", "gap_last", "gap_avg"), (dz, lyap, gap_last, gap_avg)):
            table[name].append(value)

    cost = np.array(table.pop("costs"), dtype=np.int64).T
    return RunTrace(
        k=np.arange(K + 1, dtype=np.int64),
        **dict(zip(COST_COLUMNS, cost)),
        **{name: np.array(values, dtype=float) for name, values in table.items()},
        z_final=z,
        z_avg=half_sum / K if K else None,
        gamma=gamma,
        tau=tau,
        T=T,
    )


def outcome(run, p, config):
    """The trace's fields as (dtype, shape, bytes), or the error raised."""
    try:
        trace = run(p, config)
    except DivergenceError:
        return "diverged"
    return {
        f.name: None if (v := getattr(trace, f.name)) is None else (np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())
        for f in dataclasses.fields(trace)
    }


@st.composite
def runs(draw):
    """A problem, a strategy that fits it with its parameters, and a run
    configuration; gamma is drawn in units of 1/L, tau up to 0.95."""
    name = draw(st.sampled_from(["game2", "game3", "game5", "game23", "quadratic", "mixing"]))
    p = problem(name)
    strategy = draw(st.sampled_from([k for k in KINDS if k != "local" or name == "mixing"]))
    params = {}
    if strategy in ("noisy", "past"):
        params["sigma"] = draw(st.sampled_from([0.0, 0.05, 1.0]))
    elif strategy in ("quant", "qvr"):
        k = draw(st.one_of(st.none(), st.integers(1, p.d)))
        params["quantizer"] = Quantizer("identity") if k is None else Quantizer("randk", k=k, d=p.d)
    elif strategy == "is":
        raw = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=p.M, max_size=p.M)))
        params["weights"] = tuple(raw / raw.sum())
    elif strategy == "local":
        params["tau_split"] = draw(st.floats(0.05, 0.95))
    regimes = ["mono"] if name.startswith("game") else ["mono", "sm"]
    scale = draw(st.one_of(st.none(), st.floats(0.05, 1.5)))
    config = SolverConfig(
        EstimatorKind(strategy, **params),
        K=draw(st.integers(0, 40)),
        seed=draw(st.integers(0, 2**31)),
        regime=draw(st.sampled_from(regimes)),
        gamma=None if scale is None else scale / p.L,
        tau=draw(st.one_of(st.none(), st.floats(0.0, 0.95))),
        gap_every=draw(st.integers(1, 12)),
    )
    return p, config


@settings(max_examples=500, deadline=None)
@given(case=runs())
def test_the_solver_keeps_the_reference_bits(case):
    p, config = case
    with np.errstate(all="ignore"):
        assert outcome(run_solver, p, config) == outcome(reference_run, p, config)

