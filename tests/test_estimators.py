"""Estimation strategies: update rules, cost ledgers, constants tables."""

import dataclasses
import itertools

import numpy as np
import pytest
from conftest import all_atoms, declared, declared_mixing, restricted_gap_ball

from vistep import (
    CostLedger,
    EstimatorKind,
    Quantizer,
    SolverConfig,
    constants_for_problem,
    est_pair,
    eval_full,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    importance_weights,
    init_estimator,
    initial_point,
    iterate_once,
    optimal_tau,
    prox_eval,
    quantize,
    random_feasible,
    rng_stream,
    run_solver,
    snapshot_update,
    verify_assumption2,
    verify_unbiasedness,
)
from vistep import core, estimators
from vistep.estimators import FRESH, PAST, SNAPSHOT, STRATEGIES, half_outcomes


def pvb3():
    return gen_policeman_burglar(3, seed=1)


def mixing3():
    return gen_mixing_vi([gen_quadratic_vi(8, 0.5, 2.0, seed=3) for _ in range(3)], 1.0)


def randk(k, d):
    return Quantizer("randk", k=k, d=d)


def costs_tuple(c):
    return (c.full_calls, c.comp_calls, c.coords, c.bits, c.comms, c.local_steps)


def component(p, m, z):
    """F_m(z) = ratios[m] * F(z): component m of the finite sum."""
    return p.payload.ratios[m] * eval_full(p, z)


def snapshot_at(kind, p, w):
    """The strategy's refresh at w, unbilled, as the verifiers take it."""
    return kind.strategy.refresh(kind, p, w, CostLedger())


# ---------------------------------------------------------------------------
# quantizers


def test_identity_quantizer_copies():
    x = np.array([1.0, -2.0, 3.0])
    q = Quantizer("identity")
    out = quantize(q, x, None)
    np.testing.assert_array_equal(out, x)
    out[0] = 9.0
    assert x[0] == 1.0
    assert q.omega == 1.0


def test_randk_full_keepset_is_identity():
    q = randk(5, 5)
    x = rng_stream(1, 0).normal(5)
    np.testing.assert_array_equal(quantize(q, x, rng_stream(2, 0).subsets(5, 5)), x)
    assert q.omega == 1.0


def test_randk_structure_and_twin_subset():
    q = randk(2, 6)
    x = rng_stream(3, 0).normal(6)
    rng = rng_stream(4, 0)
    twin = rng_stream(4, 0)
    out = quantize(q, x, rng.subsets(6, 2))
    idx = twin.subsets(6, 2)
    want = np.zeros(6)
    want[idx] = x[idx] * 3.0
    np.testing.assert_array_equal(out, want)
    assert np.sum(out != 0.0) <= 2


def test_randk_unbiased_monte_carlo():
    q = randk(2, 6)
    x = rng_stream(5, 0).normal(6)
    rng = rng_stream(6, 0)
    n = 6000
    batch = np.stack([quantize(q, x, rng.subsets(6, 2)) for _ in range(n)])
    err = np.linalg.norm(batch.mean(axis=0) - x)
    se = np.sqrt(np.sum(batch.var(axis=0)) / n)
    assert err <= 4.0 * se


def test_randk_second_moment_matches_subset_enumeration():
    # independent oracle for omega = d/k: averaging |Q(x)|^2 over every
    # k-subset must land exactly on (d/k)|x|^2
    x = rng_stream(7, 0).normal(6)
    for k in (1, 2, 3):
        total = 0.0
        subsets = list(itertools.combinations(range(6), k))
        for sub in subsets:
            v = np.zeros(6)
            v[list(sub)] = x[list(sub)] * (6.0 / k)
            total += float(np.sum(v * v))
        mean_sq = total / len(subsets)
        assert mean_sq == pytest.approx((6.0 / k) * float(np.sum(x * x)), rel=1e-12)
        assert randk(k, 6).omega == pytest.approx(6.0 / k, rel=1e-15)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer("topk")
    with pytest.raises(ValueError):
        Quantizer("randk", k=0, d=4)
    with pytest.raises(ValueError):
        Quantizer("randk", k=5, d=4)
    with pytest.raises(ValueError):
        quantize(randk(2, 6), np.zeros(5), rng_stream(0, 0).subsets(6, 2))
    # without its kept coordinates randk would scale the whole vector by d/k
    with pytest.raises(ValueError, match="kept coordinates"):
        quantize(randk(2, 4), np.ones(4), None)


def test_quantizer_rejects_non_integer_sizes():
    with pytest.raises(ValueError, match="k must be an integer, got 2.0"):
        Quantizer("randk", k=2.0, d=10)
    with pytest.raises(ValueError, match="d must be an integer, got 10.0"):
        Quantizer("randk", k=2, d=10.0)
    assert Quantizer("randk", k=np.int64(2), d=10).omega == 5.0


def test_identity_quantizer_refuses_the_sizes_it_does_not_read():
    # as EstimatorKind refuses a parameter its strategy does not read:
    # identity keeps every coordinate whatever k and d say
    for sizes, name in (({"k": 5, "d": 3}, "k"), ({"k": 5}, "k"), ({"d": 3}, "d")):
        with pytest.raises(ValueError, match=f"^identity does not read {name}$"):
            Quantizer("identity", **sizes)
    assert Quantizer("identity", k=0, d=0) == Quantizer("identity")


# ---------------------------------------------------------------------------
# kind construction


def test_estimator_kind_validation():
    with pytest.raises(ValueError):
        EstimatorKind("sgd")
    with pytest.raises(ValueError):
        EstimatorKind("noisy", sigma=-1.0)
    with pytest.raises(ValueError):
        EstimatorKind("quant")
    with pytest.raises(ValueError):
        EstimatorKind("qvr")
    with pytest.raises(ValueError):
        EstimatorKind("is")
    with pytest.raises(ValueError):
        EstimatorKind("is", weights=(0.5, -0.5, 1.0))
    with pytest.raises(ValueError):
        EstimatorKind("is", weights=(0.5, 0.4))
    # weights that are not a 1-d sequence of numbers raise naming weights, not a numpy TypeError
    for weights in [((0.5, 0.5),), 1.0, "ab", ((0.5,), 0.5), (), None]:
        with pytest.raises(ValueError, match="is weights must be a nonempty 1-d sequence of numbers"):
            EstimatorKind("is", weights=weights)
    with pytest.raises(ValueError):
        EstimatorKind("local", tau_split=0.0)
    with pytest.raises(ValueError):
        EstimatorKind("local", tau_split=1.0)
    # a parameter the strategy does not read is rejected, not ignored
    with pytest.raises(ValueError, match="does not read sigma"):
        EstimatorKind("fulldet", sigma=0.5)
    with pytest.raises(ValueError, match="does not read sigma"):
        EstimatorKind("vr", sigma=0.5)
    with pytest.raises(ValueError, match="does not read quantizer"):
        EstimatorKind("vr", quantizer=Quantizer("identity"))
    with pytest.raises(ValueError, match="does not read tau_split"):
        EstimatorKind("coord", tau_split=0.5)
    with pytest.raises(ValueError, match="vr does not read weights"):
        EstimatorKind("vr", weights=np.array([0.5, 0.5]))
    # a quantizer that is not a Quantizer fails here, not inside the solver
    with pytest.raises(ValueError, match="quant requires a Quantizer as its quantizer, got 'randk'"):
        EstimatorKind("quant", quantizer="randk")
    # sigma and tau_split are finite real scalars: no arrays, strings or bools
    for name, params, message in [
        ("noisy", {"sigma": np.array([0.5])}, r"noisy: sigma must be a real number, got array\(\[0.5\]\)"),
        ("local", {"tau_split": np.array([0.5])}, "local: tau_split must be a real number"),
        ("vr", {"sigma": np.array([0.5, 0.5])}, "vr: sigma must be a real number"),
        ("noisy", {"sigma": "0.5"}, "noisy: sigma must be a real number, got '0.5'"),
        ("noisy", {"sigma": True}, "noisy: sigma must be a real number, got True"),
        ("local", {"tau_split": np.bool_(True)}, "local: tau_split must be a real number"),
        ("noisy", {"sigma": float("inf")}, "noisy: sigma must be nonnegative and finite, got inf"),
        ("local", {"tau_split": float("inf")}, "local requires 0 < tau_split < 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            EstimatorKind(name, **params)
    # a numpy scalar is stored as a float, so the kind stays hashable
    assert hash(EstimatorKind("noisy", sigma=np.float64(0.5))) == hash(EstimatorKind("noisy", sigma=0.5))
    # an unread parameter equal to its default is accepted
    assert EstimatorKind("vr", sigma=0).sigma == 0
    assert EstimatorKind("is", weights=(0.5, 0.3, 0.2)).weights == (0.5, 0.3, 0.2)


def test_range_checks_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="sigma must be nonnegative"):
        EstimatorKind("noisy", sigma=nan)
    with pytest.raises(ValueError, match="weights must be positive"):
        EstimatorKind("is", weights=(0.5, nan))
    with pytest.raises(ValueError, match="theta"):
        gen_policeman_burglar(2, theta=nan)
    with pytest.raises(ValueError, match="sigma_w"):
        gen_policeman_burglar(2, sigma_w=nan)
    with pytest.raises(ValueError, match="lam"):
        gen_mixing_vi([gen_quadratic_vi(2, 0.5, 1.0)], nan)
    p = gen_quadratic_vi(4, 0.5, 2.0, seed=1)
    state = init_estimator(EstimatorKind("vr"), p, np.zeros(p.d), rng_stream(0, 0))
    for gamma in (nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="gamma must be positive"):
            est_pair(state, p, np.zeros(p.d), np.zeros(p.d), gamma, rng_stream(0, 0))
    with pytest.raises(ValueError, match="radius"):
        restricted_gap_ball(p, np.zeros(p.d), nan)
    for L_m in ([1.0, nan], [1.0, float("inf")]):
        with pytest.raises(ValueError, match="positive finite"):
            importance_weights(L_m)


def test_importance_weights_name_an_overflowing_sum():
    # each constant is finite, but their sum is not
    with pytest.raises(ValueError, match=r"\[1e\+308, 1e\+308\] sum past the float range"):
        importance_weights([1e308, 1e308])
    np.testing.assert_array_equal(importance_weights([1e307, 3e307]), [0.25, 0.75])


def test_init_estimator_guards():
    p = pvb3()
    with pytest.raises(TypeError):
        init_estimator(EstimatorKind("local", tau_split=0.5), p, initial_point(p, 0), rng_stream(0, 0))
    with pytest.raises(ValueError):
        init_estimator(EstimatorKind("is", weights=(0.5, 0.5)), p, initial_point(p, 0), rng_stream(0, 0))


def _fails_alike_everywhere(kind, p, error, message):
    """The solver and both verifiers (exact and Monte Carlo) raise the same
    error type with the same message."""
    with pytest.raises(error, match=message):
        run_solver(p, SolverConfig(kind, K=5))
    for n_samples in (0, 100):
        with pytest.raises(error, match=message):
            verify_unbiasedness(kind, p, n_points=2, n_samples=n_samples)
        with pytest.raises(error, match=message):
            verify_assumption2(kind, p, n_points=2, n_samples=n_samples)


def test_quantizer_dimension_mismatch_fails_fast_everywhere():
    # a randk quantizer built for d=6 on a d=12 problem: the error names both sizes
    kind = EstimatorKind("quant", quantizer=Quantizer("randk", k=2, d=6))
    message = "quantizer dimension 6 does not match problem dimension 12"
    _fails_alike_everywhere(kind, gen_quadratic_vi(12, 0.1, 1.0), ValueError, message)


def test_strategy_that_does_not_fit_the_game_fails_alike_everywhere():
    # a Phi/consensus split without a mixing problem, and weights of the wrong length
    p = pvb3()
    _fails_alike_everywhere(
        EstimatorKind("local", tau_split=0.5), p, TypeError, "local estimator requires a mixing problem"
    )
    _fails_alike_everywhere(
        EstimatorKind("is", weights=(0.5, 0.5)), p, ValueError, "is weights have length 2, problem has M=3"
    )


def test_solver_and_verifier_share_the_correction(monkeypatch):
    # halving coord's coordinate term biases the estimate: the solver's
    # trajectory moves and the exact unbiasedness check fails, because both
    # run the strategy's one correction
    p = pvb3()
    config = SolverConfig(EstimatorKind("coord"), K=30, seed=4)
    before = run_solver(p, config)
    assert verify_unbiasedness(EstimatorKind("coord"), p, n_points=2).all_pass

    original = STRATEGIES["coord"].correct

    def halved(kind, p, o, rows, fw):
        return fw + 0.5 * (original(kind, p, o, rows, fw) - fw)

    broken = dataclasses.replace(STRATEGIES["coord"], correct=halved)
    monkeypatch.setitem(STRATEGIES, "coord", broken)
    after = run_solver(p, config)
    assert not np.array_equal(after.z_final, before.z_final)
    assert not verify_unbiasedness(EstimatorKind("coord"), p, n_points=2).all_pass


# ---------------------------------------------------------------------------
# update rules, one kind at a time


def setup_pair(kind, p, seed=2):
    rng = rng_stream(seed, 0)
    w0 = random_feasible(p, rng)
    state = init_estimator(kind, p, w0, rng)
    z_bar = random_feasible(p, rng)
    return state, z_bar, rng


def test_fulldet_pair_is_plain_extra_step():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("fulldet"), p)
    gamma = 0.05
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, gamma, rng)
    np.testing.assert_array_equal(g_k, eval_full(p, z_bar))
    np.testing.assert_array_equal(z_half, prox_eval(p.prox, z_bar - gamma * g_k))
    np.testing.assert_array_equal(g_half, eval_full(p, z_half))


def test_noisy_pair_twin_reproduction():
    p = pvb3()
    sigma = 0.5
    state, z_bar, rng = setup_pair(EstimatorKind("noisy", sigma=sigma), p, seed=3)
    twin = rng_stream(3, 0)
    # replay the stream consumed during setup: two feasible draws
    random_feasible(p, twin)
    random_feasible(p, twin)
    gamma = 0.05
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, gamma, rng)
    want_gk = eval_full(p, z_bar) + (sigma / np.sqrt(p.d)) * twin.normal(p.d)
    np.testing.assert_array_equal(g_k, want_gk)
    want_half = prox_eval(p.prox, z_bar - gamma * want_gk)
    np.testing.assert_array_equal(z_half, want_half)
    want_ghalf = eval_full(p, z_half) + (sigma / np.sqrt(p.d)) * twin.normal(p.d)
    np.testing.assert_array_equal(g_half, want_ghalf)


def test_past_reuses_stored_half_step_value():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("past"), p)
    gamma = 0.05
    f_w0 = eval_full(p, state.w)
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, gamma, rng)
    np.testing.assert_array_equal(g_k, f_w0)
    np.testing.assert_array_equal(g_half, eval_full(p, z_half))
    assert state.sigma_sq == pytest.approx(float(np.sum((g_half - g_k) ** 2)), rel=1e-15)
    np.testing.assert_array_equal(state.past_g, g_half)
    snapshot_update(state, z_half, 0.0, rng_stream(9, 1), p)
    np.testing.assert_array_equal(state.past_g, g_half)
    # the committed value is what the next iteration anchors on
    g_k2, _, _ = est_pair(state, p, z_bar, z_bar, gamma, rng)
    np.testing.assert_array_equal(g_k2, g_half)


def test_past_commits_even_without_refresh():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("past"), p)
    _, g_half, z_half = est_pair(state, p, z_bar, z_bar, 0.05, rng)
    # tau close to 1 plus a coin seed that keeps w in place
    coin = rng_stream(0, 1)
    assert coin.uniform() >= 1e-6  # the draw the update will see
    refreshed = snapshot_update(state, z_half, 1.0 - 1e-6, rng_stream(0, 1), p)
    assert not refreshed
    np.testing.assert_array_equal(state.past_g, g_half)


def test_vr_anchors_at_snapshot_and_corrects_one_component():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("vr"), p)
    twin = rng_stream(2, 0)
    random_feasible(p, twin)
    random_feasible(p, twin)
    gamma = 0.05
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, gamma, rng)
    np.testing.assert_array_equal(g_k, state.fw)
    m = twin.integers(p.M)
    want = (component(p, m, z_half) - component(p, m, state.w)) + state.fw
    np.testing.assert_array_equal(g_half, want)


def test_coord_touches_one_coordinate():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("coord"), p)
    twin = rng_stream(2, 0)
    random_feasible(p, twin)
    random_feasible(p, twin)
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, 0.05, rng)
    i = twin.integers(p.d)
    fz = eval_full(p, z_half)
    want = state.fw.copy()
    want[i] += p.d * (fz[i] - state.fw[i])
    np.testing.assert_array_equal(g_half, want)
    assert np.sum(g_half != state.fw) <= 1


def test_is_scales_by_inverse_probability():
    p = pvb3()
    weights = (0.5, 0.3, 0.2)
    state, z_bar, rng = setup_pair(EstimatorKind("is", weights=weights), p)
    twin = rng_stream(2, 0)
    random_feasible(p, twin)
    random_feasible(p, twin)
    g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, 0.05, rng)
    u = twin.uniform()
    m = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), 2)
    scale = 1.0 / (p.M * weights[m])
    want = scale * (component(p, m, z_half) - component(p, m, state.w)) + state.fw
    np.testing.assert_array_equal(g_half, want)


def test_quant_identity_matches_vr_on_single_component():
    p = gen_quadratic_vi(10, 0.5, 2.0, seed=4)
    z0 = initial_point(p, 4)
    z_bar = z0 + 0.1
    sa = init_estimator(EstimatorKind("vr"), p, z0, rng_stream(5, 0))
    sb = init_estimator(EstimatorKind("quant", quantizer=Quantizer("identity")), p, z0, rng_stream(5, 0))
    ga = est_pair(sa, p, z_bar, z_bar, 0.05, rng_stream(5, 0))
    gb = est_pair(sb, p, z_bar, z_bar, 0.05, rng_stream(5, 0))
    for a, b in zip(ga, gb):
        np.testing.assert_array_equal(a, b)


def test_local_branches_between_phi_and_consensus():
    p = mixing3()
    mix = p.payload
    t = 0.6
    rng = rng_stream(6, 0)
    z0 = rng.normal(p.d)
    state = init_estimator(EstimatorKind("local", tau_split=t), p, z0, rng)
    z_bar = rng.normal(p.d)
    seen = set()
    for trial in range(20):
        twin = rng_stream(100 + trial, 0)
        use = rng_stream(100 + trial, 0)
        g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, 0.05, use)
        if twin.uniform() < t:
            want = (mix.phi(z_half) - mix.phi(state.w)) / t + state.fw
            seen.add("phi")
        else:
            want = (mix.consensus(z_half) - mix.consensus(state.w)) / (1.0 - t) + state.fw
            seen.add("consensus")
        np.testing.assert_array_equal(g_half, want)
    assert seen == {"phi", "consensus"}


def test_local_branch_expectation_recovers_operator():
    p = mixing3()
    rng = rng_stream(7, 0)
    z0 = rng.normal(p.d)
    state = init_estimator(EstimatorKind("local", tau_split=0.6), p, z0, rng)
    z_half = rng.normal(p.d)
    atoms = all_atoms(EstimatorKind("local", tau_split=0.6), p, z_half, state.snap)
    mean = sum(prob * val for prob, val in zip(*atoms))
    np.testing.assert_allclose(mean, eval_full(p, z_half), atol=1e-12)


# ---------------------------------------------------------------------------
# snapshot coin and cache coherence


def test_snapshot_update_always_refreshes_at_zero_tau():
    p = pvb3()
    state, z_bar, rng = setup_pair(EstimatorKind("vr"), p)
    z_next = random_feasible(p, rng)
    assert snapshot_update(state, z_next, 0.0, rng_stream(1, 1), p)
    np.testing.assert_array_equal(state.w, z_next)
    want = np.mean([component(p, m, z_next) for m in range(p.M)], axis=0)
    np.testing.assert_array_equal(state.fw, want)


def test_a_finite_sum_snapshot_keeps_d_entries_per_array():
    # a vr, is or qvr refresh keeps the billed mean of the components and
    # F(w), from which each component ratios[s] * F(w) is read: no (M, d)
    # stack of the components, at the first snapshot or a later one
    p = gen_policeman_burglar(5, seed=2)
    rng = rng_stream(3, 0)
    for kind in (
        EstimatorKind("vr"),
        EstimatorKind("is", weights=importance_weights(p.L_m)),
        EstimatorKind("qvr", quantizer=randk(4, p.d)),
    ):
        state = init_estimator(kind, p, initial_point(p, 3), rng)
        for _ in range(2):
            assert [np.shape(a) for a in state.snap] == [(p.d,), (p.d,)], kind.name
            assert state.snap.at_w.tobytes() == eval_full(p, state.w).tobytes(), kind.name
            assert snapshot_update(state, random_feasible(p, rng), 0.0, rng, p)


def test_snapshot_update_coin_frequency_and_twin():
    p = pvb3()
    tau = 0.7
    state, z_bar, rng = setup_pair(EstimatorKind("vr"), p)
    coin = rng_stream(11, 1)
    twin = rng_stream(11, 1)
    z_next = random_feasible(p, rng)
    n = 3000
    refreshed = 0
    for _ in range(n):
        got = snapshot_update(state, z_next, tau, coin, p)
        assert got == (twin.uniform() < 1.0 - tau)
        refreshed += got
    # Bernoulli(0.3): four standard errors around 900
    assert abs(refreshed - 900) <= 101


def test_snapshot_update_rejects_bad_tau():
    p = pvb3()
    state, _, rng = setup_pair(EstimatorKind("vr"), p)
    with pytest.raises(ValueError):
        snapshot_update(state, state.w, 1.0, rng, p)
    with pytest.raises(ValueError):
        snapshot_update(state, state.w, -0.1, rng, p)


# ---------------------------------------------------------------------------
# cost ledgers


def run_ledger(kind, p, iters=4, tau=0.0, seed=2):
    est = rng_stream(seed, 0)
    coin = rng_stream(seed, 1)
    z = initial_point(p, seed)
    state = init_estimator(kind, p, z, est)
    init_costs = dataclasses.replace(state.costs)
    gamma = 0.5 / p.L
    for _ in range(iters):
        z, _ = iterate_once(state, p, z, tau, gamma, est, coin)
    return costs_tuple(init_costs), costs_tuple(state.costs)


def test_ledger_direct_oracle_kinds():
    p = pvb3()
    dense = 64 * 18
    init, total = run_ledger(EstimatorKind("fulldet"), p)
    assert init == (0, 0, 0, 0, 0, 0)
    assert total == (8, 0, 0, 8 * dense, 0, 0)
    init, total = run_ledger(EstimatorKind("noisy", sigma=1.0), p)
    assert init == (0, 0, 0, 0, 0, 0)
    assert total == (8, 0, 0, 8 * dense, 0, 0)
    init, total = run_ledger(EstimatorKind("past"), p)
    assert init == (1, 0, 0, dense, 0, 0)
    assert total == (5, 0, 0, 5 * dense, 0, 0)


def test_ledger_snapshot_kinds_at_zero_tau():
    p = pvb3()
    dense = 64 * 18
    coord_payload = 64 + 5  # 64-bit value plus ceil(log2 18) index bits

    init, total = run_ledger(EstimatorKind("vr"), p)
    assert init == (0, 3, 0, dense, 0, 0)
    assert total == (0, 23, 0, dense + 4 * 2 * dense, 0, 0)

    init, total = run_ledger(EstimatorKind("is", weights=(0.5, 0.3, 0.2)), p)
    assert init == (0, 3, 0, dense, 0, 0)
    assert total == (0, 23, 0, dense + 4 * 2 * dense, 0, 0)

    init, total = run_ledger(EstimatorKind("coord"), p)
    assert init == (1, 0, 0, dense, 0, 0)
    assert total == (5, 0, 4, dense + 4 * (coord_payload + dense), 0, 0)

    init, total = run_ledger(EstimatorKind("quant", quantizer=randk(4, 18)), p)
    assert init == (1, 0, 0, dense, 0, 0)
    assert total == (9, 0, 0, dense + 4 * (4 * coord_payload + dense), 0, 0)

    init, total = run_ledger(EstimatorKind("quant", quantizer=Quantizer("identity")), p)
    assert total == (9, 0, 0, dense + 4 * 2 * dense, 0, 0)

    init, total = run_ledger(EstimatorKind("qvr", quantizer=randk(4, 18)), p)
    assert init == (0, 3, 0, dense, 0, 0)
    assert total == (0, 23, 0, dense + 4 * (4 * coord_payload + dense), 0, 0)


def test_ledger_local_with_twin_branches():
    p = mixing3()
    dense = 64 * p.d
    iters = 6
    init, total = run_ledger(EstimatorKind("local", tau_split=0.6), p, iters=iters, seed=5)
    assert init == (1, 0, 0, dense, 1, 0)
    twin = rng_stream(5, 0)
    phi_branches = sum(twin.uniform() < 0.6 for _ in range(iters))
    comm_branches = iters - phi_branches
    assert 0 < phi_branches < iters  # the seed exercises both branches
    # each iteration refreshes at tau=0: one full call, one broadcast
    want = (
        1 + iters,
        0,
        0,
        dense * (1 + iters + comm_branches),
        1 + iters + comm_branches,
        phi_branches,
    )
    assert total == want


def test_ledger_refresh_count_follows_the_coin():
    p = pvb3()
    tau = 0.8
    iters = 30
    _, total = run_ledger(EstimatorKind("vr"), p, iters=iters, tau=tau, seed=9)
    twin = rng_stream(9, 1)
    refreshes = sum(twin.uniform() < 1.0 - tau for _ in range(iters))
    dense = 64 * 18
    want = (0, 3 + 2 * iters + 3 * refreshes, 0, dense + iters * dense + refreshes * dense, 0, 0)
    assert total == want


# ---------------------------------------------------------------------------
# constants tables


def test_constants_direct_oracle():
    c = constants_for_problem(EstimatorKind("noisy", sigma=1.0), declared(2.0))
    assert (c.A, c.D1, c.D3, c.rho) == (12.0, 6.0, 1.0, 1.0)
    assert (c.B, c.C, c.E, c.D2, c.tau_star) == (0.0, 0.0, 0.0, 0.0, 0.0)
    c0 = constants_for_problem(EstimatorKind("fulldet"), declared(2.0))
    assert (c0.A, c0.D1, c0.D3) == (12.0, 0.0, 0.0)


def test_constants_past():
    c = constants_for_problem(EstimatorKind("past", sigma=1.0), declared(2.0))
    assert c.rho == pytest.approx(1.0 / 3.0)
    assert (c.B, c.C, c.D1, c.D2, c.D3) == (3.0, 8.0, 6.0, 12.0, 1.0)
    assert c.tau_star == 0.0
    cd = constants_for_problem(EstimatorKind("past"), declared(2.0))
    assert (cd.D1, cd.D2, cd.D3) == (0.0, 0.0, 0.0)


def test_constants_vr_and_identity_quant_agree():
    c = constants_for_problem(EstimatorKind("vr"), declared(3.0, ratios=np.ones(4)))
    assert (c.A, c.D1, c.E, c.D3) == (9.0, 0.0, 36.0, 0.0)
    assert c.tau_star == 0.8
    q = constants_for_problem(EstimatorKind("quant", quantizer=Quantizer("identity")), declared(3.0))
    assert (q.A, q.B, q.C, q.E, q.D1, q.D2, q.D3, q.rho) == (
        c.A,
        c.B,
        c.C,
        c.E,
        c.D1,
        c.D2,
        c.D3,
        c.rho,
    )


def test_constants_coord():
    c = constants_for_problem(EstimatorKind("coord"), declared(1.0, d=4))
    assert (c.A, c.E, c.D1, c.D3) == (4.0, 10.0, 0.0, 0.0)
    assert c.tau_star == 0.8
    # the tau* rule needs d
    with pytest.raises(ValueError):
        optimal_tau(EstimatorKind("coord"), L=1.0)


def test_constants_randk_quant():
    c = constants_for_problem(EstimatorKind("quant", quantizer=randk(2, 8)), declared(1.5, d=8))
    assert c.A == pytest.approx(4.0 * 2.25)
    assert c.E == pytest.approx(2.0 * 5.0 * 2.25)
    assert c.tau_star == 0.8


def test_constants_importance():
    kind = EstimatorKind("is", weights=(0.5, 0.5))
    # L_m = ratios * L = (2, 6)
    c = constants_for_problem(kind, declared(4.0, ratios=(0.5, 1.5)))
    assert c.A == pytest.approx(20.0)
    assert c.E == pytest.approx(2.0 * (20.0 + 16.0))
    assert c.tau_star == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        constants_for_problem(kind, declared(4.0, ratios=(0.5, 1.0, 1.5)))


def test_importance_weights_minimize_effective_constant():
    L_m = np.array([2.0, 6.0])
    w = importance_weights(L_m)
    np.testing.assert_allclose(w, [0.25, 0.75], atol=1e-15)
    tilde = L_m / 2.0
    best = float(np.sum(tilde**2 / w))
    assert best == pytest.approx(float(tilde.sum()) ** 2)
    rng = rng_stream(13, 0)
    for _ in range(100):
        raw = rng.uniform(2) + 1e-3
        p = raw / raw.sum()
        assert float(np.sum(tilde**2 / p)) >= best - 1e-12
    with pytest.raises(ValueError):
        importance_weights([])
    with pytest.raises(ValueError):
        importance_weights([1.0, -1.0])


def test_constants_local():
    c = constants_for_problem(EstimatorKind("local", tau_split=2.0 / 3.0), declared_mixing(2.0, 1.0))
    assert c.A == pytest.approx(9.0, rel=1e-12)
    assert c.E == pytest.approx(36.0, rel=1e-12)
    assert c.D3 == 0.0
    assert c.tau_star == pytest.approx(2.0 / 3.0)
    # the tau* rule needs lam
    with pytest.raises(ValueError):
        optimal_tau(EstimatorKind("local", tau_split=0.5), L=2.0)


def test_local_split_at_tau_star_hits_squared_sum():
    # L^2/t + lam^2/(1-t) is minimized at t = L/(L+lam) with value (L+lam)^2
    for L, lam in ((2.0, 1.0), (5.0, 0.5), (1.0, 3.0)):
        t = L / (L + lam)
        c = constants_for_problem(EstimatorKind("local", tau_split=t), declared_mixing(L, lam))
        assert c.A == pytest.approx((L + lam) ** 2, rel=1e-12)
        c_off = constants_for_problem(EstimatorKind("local", tau_split=0.5 * t), declared_mixing(L, lam))
        assert c_off.A >= c.A


def test_optimal_tau_rules():
    assert optimal_tau(EstimatorKind("fulldet")) == 0.0
    assert optimal_tau(EstimatorKind("past")) == 0.0
    assert optimal_tau(EstimatorKind("vr"), M=4) == 0.8
    assert optimal_tau(EstimatorKind("coord"), d=9) == 0.9
    assert optimal_tau(EstimatorKind("quant", quantizer=randk(1, 3))) == 0.75
    assert optimal_tau(EstimatorKind("local", tau_split=0.5), L=2.0, lam=1.0) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        optimal_tau(EstimatorKind("vr"))
    with pytest.raises(ValueError):
        optimal_tau(EstimatorKind("coord"))
    with pytest.raises(ValueError):
        optimal_tau(EstimatorKind("local", tau_split=0.5))


def test_constants_for_problem_conventions():
    p = pvb3()
    c_vr = constants_for_problem(EstimatorKind("vr"), p)
    L_common = max(p.L, float(p.L_m.max()))
    assert c_vr.A == pytest.approx(L_common**2, rel=1e-12)

    c_coord = constants_for_problem(EstimatorKind("coord"), p)
    assert c_coord.A == pytest.approx(18.0 * p.L**2, rel=1e-12)

    w = np.full(3, 1.0 / 3.0)
    c_is = constants_for_problem(EstimatorKind("is", weights=w), p)
    want = float(np.sum((p.L_m / 3.0) ** 2 / w))
    assert c_is.A == pytest.approx(want, rel=1e-12)

    m = mixing3()
    c_loc = constants_for_problem(EstimatorKind("local", tau_split=0.5), m)
    mix = m.payload
    assert c_loc.A == pytest.approx(mix.l_phi**2 / 0.5 + mix.lam**2 / 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# outcome atoms and batched draws


def enumerable_kinds(p):
    return [
        EstimatorKind("vr"),
        EstimatorKind("coord"),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
        EstimatorKind("quant", quantizer=randk(3, p.d)),
        EstimatorKind("quant", quantizer=Quantizer("identity")),
        EstimatorKind("qvr", quantizer=randk(3, p.d)),
    ]


def sample_batch(kind, p, z_half, snap, rng, n):
    """The Monte Carlo outcome set of n draws: its one block of value rows."""
    probs, blocks = half_outcomes(kind, p, z_half, snap, n, rng)
    assert probs is None
    (values,) = blocks
    return values


def test_half_atoms_probabilities_and_mean(monkeypatch):
    p = pvb3()
    rng = rng_stream(21, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    for kind in enumerable_kinds(p):
        atoms = all_atoms(kind, p, z_half, snapshot_at(kind, p, w))
        assert len(atoms[0]) <= core._block_rows(p.d)  # one block
        # the rows do not depend on how many atoms a block holds; the cache
        # rule is replaced for the atoms alone, since a shrunk rule would
        # also block the game's products and move their last bits
        with monkeypatch.context() as m:
            m.setattr(estimators, "_block_rows", lambda d: 2)
            two_per_block = all_atoms(kind, p, z_half, snapshot_at(kind, p, w))
        assert atoms[1].tobytes() == two_per_block[1].tobytes(), kind.name
        assert sum(prob for prob, _ in zip(*atoms)) == pytest.approx(1.0, abs=1e-12)
        mean = sum(prob * val for prob, val in zip(*atoms))
        scale = 1.0 + np.linalg.norm(eval_full(p, z_half))
        assert np.linalg.norm(mean - eval_full(p, z_half)) <= 1e-10 * scale


def test_half_atoms_rejects_gaussian_kinds():
    p = pvb3()
    z = initial_point(p, 0)
    with pytest.raises(ValueError):
        half_outcomes(EstimatorKind("noisy", sigma=1.0), p, z, None, 0, None)
    with pytest.raises(ValueError):
        half_outcomes(EstimatorKind("past"), p, z, None, 0, None)


def test_uniform_importance_equals_vr_atoms():
    p = pvb3()
    rng = rng_stream(22, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    snap = snapshot_at(EstimatorKind("vr"), p, w)
    a_vr = all_atoms(EstimatorKind("vr"), p, z_half, snap)
    a_is = all_atoms(EstimatorKind("is", weights=(1.0 / 3.0,) * 3), p, z_half, snap)
    for (pa, va), (pb, vb) in zip(zip(*a_vr), zip(*a_is)):
        assert pa == pytest.approx(pb, abs=1e-15)
        np.testing.assert_allclose(va, vb, atol=1e-12)


def test_lipschitz_importance_is_degenerate_on_proportional_components():
    # this game's components are scalar multiples of one base matrix, so
    # p proportional to L_m makes every scaled difference identical
    p = pvb3()
    rng = rng_stream(23, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    kind = EstimatorKind("is", weights=importance_weights(p.L_m))
    atoms = all_atoms(kind, p, z_half, snapshot_at(kind, p, w))
    vals = atoms[1]
    assert np.max(np.abs(vals - vals[0])) <= 1e-9


def test_sample_half_batch_vr_twin():
    p = pvb3()
    rng = rng_stream(24, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    fw = np.mean([component(p, m, w) for m in range(p.M)], axis=0)
    n = 200
    kind = EstimatorKind("vr")
    batch = sample_batch(kind, p, z_half, snapshot_at(kind, p, w), rng_stream(25, 0), n)
    twin = rng_stream(25, 0)
    diffs = np.stack([component(p, m, z_half) - component(p, m, w) for m in range(p.M)])
    idx = twin.integers(p.M, n)
    np.testing.assert_array_equal(batch, diffs[idx] + fw)


def test_solver_draw_equals_batch_of_one():
    # a one-row batch takes the uniforms of one solver draw, so this pins the
    # single-draw paths (scalar sources, 1-d corrections) the verifiers never run
    game = pvb3()
    kinds = {
        "fulldet": EstimatorKind("fulldet"),
        "noisy": EstimatorKind("noisy", sigma=0.5),
        "past": EstimatorKind("past", sigma=0.5),
        "vr": EstimatorKind("vr"),
        "coord": EstimatorKind("coord"),
        "quant": EstimatorKind("quant", quantizer=randk(3, game.d)),
        "qvr": EstimatorKind("qvr", quantizer=randk(3, game.d)),
        "is": EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
        "local": EstimatorKind("local", tau_split=0.6),
    }
    assert kinds.keys() == STRATEGIES.keys()
    for name, kind in kinds.items():
        p = mixing3() if name == "local" else game
        anchor = kind.strategy.anchor
        for seed in range(4):
            state, z_bar, rng = setup_pair(kind, p, seed)
            w, snap = state.w, state.snap
            twin = rng_stream(seed, 0)
            random_feasible(p, twin)
            if anchor == PAST:
                np.testing.assert_array_equal(state.past_g, sample_batch(kind, p, w, snap, twin, 1)[0])
            random_feasible(p, twin)
            g_k, g_half, z_half = est_pair(state, p, z_bar, z_bar, 0.05, rng)
            if anchor == FRESH:
                np.testing.assert_array_equal(g_k, sample_batch(kind, p, z_bar, snap, twin, 1)[0])
            if name == "coord":
                # the single draw reads its coordinate off the O(d) oracle and the
                # batch off a full product, so the batch is fed the oracle's value
                outcomes = kind.strategy.draw(kind, p, twin, 1)
                j = int(outcomes[0][0])
                diff = np.array([[p.payload.coordinate(j, z_half) - snap.fw[j]]])
                want = kind.strategy.correct(kind, p, outcomes, diff, snap.fw)[0]
            else:
                want = sample_batch(kind, p, z_half, snap, twin, 1)[0]
            np.testing.assert_array_equal(g_half, want)


def test_sample_half_batch_rows_are_atoms():
    p = pvb3()
    rng = rng_stream(26, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    for kind in (
        EstimatorKind("vr"),
        EstimatorKind("coord"),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
        EstimatorKind("quant", quantizer=randk(2, 18)),
    ):
        snap = snapshot_at(kind, p, w)
        atoms = all_atoms(kind, p, z_half, snap)[1]
        batch = sample_batch(kind, p, z_half, snap, rng_stream(27, 0), 40)
        for row in batch:
            dist = np.min(np.max(np.abs(atoms - row), axis=1))
            assert dist <= 1e-12


def test_sample_half_batch_component_frequencies():
    p = pvb3()
    rng = rng_stream(28, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    snap = snapshot_at(EstimatorKind("vr"), p, w)
    n = 9000
    batch = sample_batch(EstimatorKind("vr"), p, z_half, snap, rng_stream(29, 0), n)
    atoms = all_atoms(EstimatorKind("vr"), p, z_half, snap)[1]
    labels = np.array([int(np.argmin(np.max(np.abs(atoms - row), axis=1))) for row in batch])
    counts = np.bincount(labels, minlength=3)
    # uniform over 3 components, four standard errors around 3000
    assert np.all(np.abs(counts - 3000) <= 179)


def test_sample_half_batch_randk_touches_k_coordinates():
    p = pvb3()
    rng = rng_stream(30, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    fw = eval_full(p, w)
    kind = EstimatorKind("quant", quantizer=randk(4, 18))
    batch = sample_batch(kind, p, z_half, snapshot_at(kind, p, w), rng_stream(31, 0), 50)
    twin = rng_stream(31, 0)
    subs = twin.subsets(18, 4, 50)
    diff = eval_full(p, z_half) - fw
    for row, sub in zip(batch, subs):
        want = fw.copy()
        want[sub] += (18.0 / 4.0) * diff[sub]
        np.testing.assert_array_equal(row, want)


def test_sample_half_batch_gaussian_kinds_match_moments():
    p = pvb3()
    rng = rng_stream(32, 0)
    z_half = random_feasible(p, rng)
    w = random_feasible(p, rng)
    n = 20000
    for kind in (EstimatorKind("noisy", sigma=0.8), EstimatorKind("past", sigma=0.8)):
        batch = sample_batch(kind, p, z_half, None, rng_stream(33, 0), n)
        target = eval_full(p, z_half)
        err = np.linalg.norm(batch.mean(axis=0) - target)
        se = np.sqrt(np.sum(batch.var(axis=0)) / n)
        assert err <= 4.0 * se
        # total oracle-noise energy is sigma^2
        assert float(np.sum(batch.var(axis=0))) == pytest.approx(0.64, rel=0.1)


def test_sample_half_batch_local_branches():
    p = mixing3()
    mix = p.payload
    t = 0.6
    rng = rng_stream(34, 0)
    z_half = rng.normal(p.d)
    w = rng.normal(p.d)
    fw = eval_full(p, w)
    n = 10000
    kind = EstimatorKind("local", tau_split=t)
    batch = sample_batch(kind, p, z_half, snapshot_at(kind, p, w), rng_stream(35, 0), n)
    phi_row = (mix.phi(z_half) - mix.phi(w)) / t + fw
    con_row = (mix.consensus(z_half) - mix.consensus(w)) / (1.0 - t) + fw
    is_phi = np.all(batch == phi_row, axis=1)
    is_con = np.all(batch == con_row, axis=1)
    assert np.all(is_phi | is_con)
    # Bernoulli(0.6), four standard errors
    assert abs(int(is_phi.sum()) - 6000) <= 196


def test_snapshot_kind_list_matches_cache_usage():
    p = pvb3()
    for name in (name for name, strat in STRATEGIES.items() if strat.anchor == SNAPSHOT):
        if name == "local":
            continue
        kind = {
            "vr": EstimatorKind("vr"),
            "coord": EstimatorKind("coord"),
            "quant": EstimatorKind("quant", quantizer=Quantizer("identity")),
            "qvr": EstimatorKind("qvr", quantizer=Quantizer("identity")),
            "is": EstimatorKind("is", weights=(1.0 / 3.0,) * 3),
        }[name]
        state = init_estimator(kind, p, initial_point(p, 0), rng_stream(0, 0))
        assert state.fw is not None
