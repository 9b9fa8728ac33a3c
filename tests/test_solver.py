"""The extra-step loop: step-size rules, iteration algebra, run traces."""

import collections
import dataclasses
import math
import re

import numpy as np
import pytest
from conftest import declared, dense_game_matrix

from vistep import (
    FREE,
    BilinearGame,
    DivergenceError,
    EstimatorKind,
    GridGame,
    QuadraticOperator,
    SolverConfig,
    VIProblem,
    constants_for_problem,
    duality_gap_bilinear,
    est_pair,
    eval_full,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    importance_weights,
    init_estimator,
    initial_point,
    iterate_once,
    lyapunov_value,
    optimal_tau,
    Quantizer,
    rng_stream,
    run_solver,
    step_size_bound,
    verify_unbiasedness,
)
from vistep import problems
from vistep.solver import COST_COLUMNS


def test_step_size_direct_oracle():
    c = constants_for_problem(EstimatorKind("fulldet"), declared(2.0))
    gamma, T = step_size_bound(EstimatorKind("fulldet"), "sm", c, mu_F=0.5)
    assert gamma == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert T == 0.0
    gamma, T = step_size_bound(EstimatorKind("fulldet"), "mono", c)
    assert gamma == pytest.approx(1.0 / 6.0, rel=1e-12)
    # the noisy strategy shares the rule; sigma moves D1, not gamma
    cn = constants_for_problem(EstimatorKind("noisy", sigma=3.0), declared(2.0))
    gamma, _ = step_size_bound(EstimatorKind("noisy", sigma=3.0), "mono", cn)
    assert gamma == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_step_size_mu_cap_binds():
    c = constants_for_problem(EstimatorKind("fulldet"), declared(2.0))
    gamma, _ = step_size_bound(EstimatorKind("fulldet"), "sm", c, mu_F=30.0)
    assert gamma == pytest.approx(1.0 / 120.0, rel=1e-12)
    # mu_h counts toward the cap the same way
    gamma2, _ = step_size_bound(EstimatorKind("fulldet"), "sm", c, mu_F=10.0, mu_h=20.0)
    assert gamma2 == gamma


def test_step_size_past():
    c = constants_for_problem(EstimatorKind("past"), declared(2.0))
    gamma, T = step_size_bound(EstimatorKind("past"), "sm", c, mu_F=0.5)
    assert gamma == pytest.approx(1.0 / (24.0 * math.sqrt(2.0)), rel=1e-12)
    assert T == pytest.approx(36.0, rel=1e-12)
    gamma, T = step_size_bound(EstimatorKind("past"), "mono", c)
    assert gamma == pytest.approx(1.0 / (24.0 * math.sqrt(2.0)), rel=1e-12)
    assert T == pytest.approx(18.0, rel=1e-12)


def test_step_size_snapshot_kinds():
    c = constants_for_problem(EstimatorKind("vr"), declared(3.0, ratios=np.ones(4)))
    gamma, T = step_size_bound(EstimatorKind("vr"), "mono", c, tau=0.75)
    assert T == 0.0
    assert gamma == pytest.approx(0.5 / (2.0 * math.sqrt(2.0 * 9.0 + 36.0)), rel=1e-12)
    gamma, _ = step_size_bound(EstimatorKind("vr"), "sm", c, mu_F=10.0, tau=0.75)
    assert gamma == pytest.approx(0.25 / 40.0, rel=1e-12)  # the mu cap binds
    cc = constants_for_problem(EstimatorKind("coord"), declared(1.0, d=4))
    gamma, _ = step_size_bound(EstimatorKind("coord"), "mono", cc, tau=0.8)
    assert gamma == pytest.approx(math.sqrt(0.2) / (2.0 * math.sqrt(18.0)), rel=1e-12)


def test_step_size_degenerate_and_errors():
    c = constants_for_problem(EstimatorKind("vr"), declared(0.0))
    gamma, _ = step_size_bound(EstimatorKind("vr"), "mono", c)
    assert gamma == np.inf
    # the table's tau* is optimal_tau's, which needs M for vr
    with pytest.raises(ValueError, match="tau rule needs problem data"):
        optimal_tau(EstimatorKind("vr"), L=0.0)
    fulldet = EstimatorKind("fulldet")
    with pytest.raises(ValueError):
        step_size_bound(fulldet, "sm", constants_for_problem(fulldet, declared(1.0)))
    with pytest.raises(ValueError, match="mu_F"):
        step_size_bound(fulldet, "sm", constants_for_problem(fulldet, declared(2.0)), mu_F=math.nan)
    with pytest.raises(ValueError):
        step_size_bound(fulldet, "fast", constants_for_problem(fulldet, declared(1.0)))
    with pytest.raises(ValueError):
        step_size_bound(fulldet, "mono", constants_for_problem(fulldet, declared(1.0)), tau=1.0)


def test_iterate_once_is_plain_extragradient_at_zero_tau():
    p = gen_quadratic_vi(8, 0.5, 2.0, seed=1)
    gamma = 1.0 / 12.0
    est = rng_stream(4, 0)
    state = init_estimator(EstimatorKind("fulldet"), p, initial_point(p, 4), est)
    z = initial_point(p, 4)
    z_next, z_half = iterate_once(state, p, z, 0.0, gamma, est, rng_stream(4, 1))
    g = eval_full(p, z)
    want_half = z - gamma * g
    np.testing.assert_array_equal(z_half, want_half)
    np.testing.assert_array_equal(z_next, z - gamma * eval_full(p, want_half))


def test_solution_is_a_fixed_point():
    p = gen_quadratic_vi(6, 0.5, 2.0, seed=2)
    z = p.known_solution.copy()
    est = rng_stream(0, 0)
    state = init_estimator(EstimatorKind("fulldet"), p, z, est)
    for _ in range(5):
        z, z_half = iterate_once(state, p, z, 0.0, 0.05, est, rng_stream(0, 1))
        np.testing.assert_array_equal(z, p.known_solution)
        np.testing.assert_array_equal(z_half, p.known_solution)


def test_run_solver_deterministic_and_seed_sensitive():
    p = gen_policeman_burglar(2, seed=0)
    cfg = SolverConfig(kind=EstimatorKind("vr"), K=20, seed=5)
    a = run_solver(p, cfg)
    b = run_solver(p, cfg)
    np.testing.assert_array_equal(a.z_final, b.z_final)
    np.testing.assert_array_equal(a.gap_avg, b.gap_avg)
    np.testing.assert_array_equal(a.bits, b.bits)
    c = run_solver(p, SolverConfig(kind=EstimatorKind("vr"), K=20, seed=6))
    assert np.any(a.z_final != c.z_final)


def test_run_solver_matches_manual_loop():
    p = gen_policeman_burglar(2, seed=0)
    cfg = SolverConfig(kind=EstimatorKind("vr"), K=5, seed=3, gamma=0.02, tau=0.5)
    trace = run_solver(p, cfg)
    est = rng_stream(3, 0)
    coin = rng_stream(3, 1)
    z = initial_point(p, 3)
    state = init_estimator(EstimatorKind("vr"), p, z, est)
    acc = np.zeros(p.d)
    for _ in range(5):
        z, z_half = iterate_once(state, p, z, 0.5, 0.02, est, coin)
        acc += z_half
    np.testing.assert_array_equal(trace.z_final, z)
    np.testing.assert_array_equal(trace.z_avg, acc / 5.0)


def test_identity_quant_trace_equals_single_component_vr():
    p = gen_quadratic_vi(10, 0.5, 2.0, seed=4)
    ca = SolverConfig(kind=EstimatorKind("vr"), K=50, seed=2, gamma=0.05, tau=0.0)
    cb = SolverConfig(kind=EstimatorKind("quant", quantizer=Quantizer("identity")), K=50, seed=2, gamma=0.05, tau=0.0)
    a = run_solver(p, ca)
    b = run_solver(p, cb)
    np.testing.assert_array_equal(a.z_final, b.z_final)
    np.testing.assert_array_equal(a.dist_sq, b.dist_sq)


def test_feasibility_of_final_iterates():
    p = gen_policeman_burglar(3, seed=1)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("coord"), K=30, seed=1))
    for z in (trace.z_final, trace.z_avg):
        assert abs(z[:9].sum() - 1.0) <= 1e-10
        assert abs(z[9:].sum() - 1.0) <= 1e-10
        assert z.min() >= -1e-15


def test_divergence_fails_fast_naming_iteration_and_step():
    # gamma = 5 is far above the 1/(6L) bound: the iterate overflows at k = 311
    # and the trace would otherwise fill with NaN
    q = gen_quadratic_vi(10, 0.1, 1.0, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match=r"not finite at k=311 with gamma=5$"):
            run_solver(q, SolverConfig(kind=EstimatorKind("fulldet"), K=1000, regime="sm", gamma=5.0))
        last_finite = run_solver(q, SolverConfig(kind=EstimatorKind("fulldet"), K=310, regime="sm", gamma=5.0))
        assert np.isfinite(last_finite.z_final).all()


def test_huge_step_on_the_simplex_stays_feasible():
    # gamma = 1e200 puts the pre-projection points near 1e200: the projection
    # still lands on the simplex product, so nothing diverges
    p = gen_policeman_burglar(3)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=10, gamma=1e200))
    for z in (trace.z_final, trace.z_avg):
        assert z[:9].sum() == 1.0 and z[9:].sum() == 1.0
        assert z.min() >= 0.0


def test_lyapunov_value_arithmetic():
    z_star = np.zeros(2)
    z = np.array([1.0, 0.0])
    w = np.array([0.0, 2.0])
    got = lyapunov_value(float(np.sum((z - z_star) ** 2)), w, 4.0, z_star, tau=0.5, gamma=0.01, T=36.0)
    assert got == pytest.approx(0.5 * 1.0 + 4.0 + 36.0 * 1e-4 * 4.0, rel=1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(kind=EstimatorKind("fulldet"), K=-1)
    with pytest.raises(ValueError):
        SolverConfig(kind=EstimatorKind("fulldet"), K=1, regime="fast")
    with pytest.raises(ValueError):
        SolverConfig(kind=EstimatorKind("fulldet"), K=1, gamma=0.0)
    with pytest.raises(ValueError):
        SolverConfig(kind=EstimatorKind("fulldet"), K=1, tau=1.0)
    with pytest.raises(ValueError):
        SolverConfig(kind=EstimatorKind("fulldet"), K=1, gap_every=0)
    for field, value in (("K", 1e3), ("seed", 1.5), ("gap_every", 2.0), ("K", "10")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(kind=EstimatorKind("fulldet"), **{"K": 1, field: value})
    config = SolverConfig(kind=EstimatorKind("fulldet"), K=np.int64(3), seed=np.int32(1), gap_every=np.uint8(2))
    assert run_solver(gen_policeman_burglar(2, seed=0), config).k.size == 4


@pytest.mark.parametrize("name", ["gamma", "tau"])
@pytest.mark.parametrize(
    "value, shown",
    [(math.inf, "inf"), (math.nan, "nan"), (True, "True"), (np.bool_(False), "np.False_"), ("0.1", "'0.1'")],
    ids=["inf", "nan", "bool", "numpy-bool", "str"],
)
def test_solver_config_rejects_a_step_or_momentum_that_is_not_a_finite_real(name, value, shown):
    # inf once passed as a given gamma that run_solver then asked for; True ran
    # at gamma = 1; a string failed with a bare TypeError from the comparison
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number, got {re.escape(shown)}$"):
        SolverConfig(kind=EstimatorKind("fulldet"), K=1, **{name: value})


def test_solver_config_stores_gamma_and_tau_as_floats():
    config = SolverConfig(kind=EstimatorKind("fulldet"), K=1, gamma=np.float32(0.25), tau=0)
    assert type(config.gamma) is float and config.gamma == 0.25
    assert type(config.tau) is float and config.tau == 0.0
    trace = run_solver(gen_policeman_burglar(2, seed=0), config)
    assert (trace.gamma, trace.tau) == (0.25, 0.0)


def test_run_solver_defaults_follow_the_rules():
    p = gen_policeman_burglar(3, seed=1)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("vr"), K=3, seed=0))
    assert trace.tau == pytest.approx(0.75)
    consts = constants_for_problem(EstimatorKind("vr"), p)
    want, want_T = step_size_bound(EstimatorKind("vr"), "mono", consts, p.mu_F, p.mu_h, 0.75)
    assert trace.gamma == pytest.approx(want, rel=1e-15)
    assert trace.T == want_T


def test_gap_schedule_and_nan_pattern():
    p = gen_policeman_burglar(2, seed=0)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=10, seed=0, gap_every=4))
    finite = np.where(np.isfinite(trace.gap_avg))[0]
    np.testing.assert_array_equal(finite, [4, 8, 10])
    np.testing.assert_array_equal(np.where(np.isfinite(trace.gap_last))[0], [4, 8, 10])
    # no known solution for the game, so distance columns stay empty
    assert np.all(np.isnan(trace.dist_sq))
    assert np.all(np.isnan(trace.lyapunov))


def test_free_problems_have_no_gap_columns():
    p = gen_quadratic_vi(5, 0.5, 2.0, seed=1)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=5, seed=0, regime="sm"))
    assert np.all(np.isnan(trace.gap_avg))
    assert np.all(np.isnan(trace.gap_last))
    assert np.all(np.isfinite(trace.dist_sq))
    assert trace.z_avg is not None


def test_trace_rows_and_cost_monotonicity():
    p = gen_policeman_burglar(2, seed=0)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("coord"), K=12, seed=1))
    np.testing.assert_array_equal(trace.k, np.arange(13))
    for name in ("full_calls", "comp_calls", "coords", "bits", "comms", "local_steps"):
        col = getattr(trace, name)
        assert col.dtype == np.int64
        assert np.all(np.diff(col) >= 0)


def test_full_call_accounting_past_vs_fulldet():
    p = gen_policeman_burglar(2, seed=0)
    K = 7
    tp = run_solver(p, SolverConfig(kind=EstimatorKind("past"), K=K, seed=0, tau=0.0))
    tf = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=K, seed=0, tau=0.0))
    np.testing.assert_array_equal(tp.full_calls, np.arange(K + 1) + 1)
    np.testing.assert_array_equal(tf.full_calls, 2 * np.arange(K + 1))


class _CountedMatrix(np.ndarray):
    """A matrix that counts the products it takes part in under its tag:
    a product with one of its rows or columns under "avg line", a whole
    product under the tag, and none while the tag is None."""

    def __array_finalize__(self, obj):
        self.tag = getattr(obj, "tag", None)
        self.counts = getattr(obj, "counts", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and self.tag is not None:
            self.counts["avg line" if self.ndim == 1 else self.tag] += 1
        plain = [x.view(np.ndarray) if isinstance(x, _CountedMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _counted_game(n=3):
    """The n-game with its operator products counted under "avg", two per
    ``_apply`` (one per player) whichever form it takes, dense or grid; a
    product forms F, which every component F_m = ratios[m] * F is read off.
    A row or column of A read for one coordinate counts under "avg line".
    On a dense game a whole product with avg outside ``_apply`` counts
    under "avg outside", so no product escapes the count; a game in grid
    form holds no matrix to form one with."""
    p = gen_policeman_burglar(n, seed=1)
    game, counts = p.payload, collections.Counter()
    mat = None
    if isinstance(game, GridGame):
        for name in ("_row", "_column"):

            def line(i, method=getattr(game, name)):
                counts["avg line"] += 1
                return method(i)

            setattr(game, name, line)
    else:
        mat = game.avg.view(_CountedMatrix)
        mat.tag, mat.counts = "avg outside", counts
        game.avg = mat

    def counted_apply(z, apply=game._apply):
        counts["avg"] += 2
        if mat is None:
            return apply(z)
        mat.tag = None
        try:
            return apply(z)
        finally:
            mat.tag = "avg outside"

    game._apply = counted_apply
    return p, counts


def test_each_operator_product_is_formed_once():
    K = 30
    for gap_every in (10, 1):
        gap_rows = K // gap_every
        # a sparse schedule forms F at the average on each gap row; a
        # gap-every-row run reads it off the F values it has already formed
        avg_products = gap_rows if gap_every > 1 else 0
        # vr, is, qvr: one F product per step, which the drawn component
        # scales, and one per refresh, which every component's F_m(w) is
        # read off; the gap row reuses F at the half point
        for kind in (
            EstimatorKind("vr"),
            EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
            EstimatorKind("qvr", quantizer=Quantizer("identity")),
        ):
            p, counts = _counted_game()
            trace = run_solver(p, SolverConfig(kind, K=K, seed=3, gap_every=gap_every))
            refreshes = (trace.comp_calls[-1] - 2 * K) // p.M  # the first one included
            assert refreshes >= 2, kind.name
            assert counts == {"avg": 2 * (refreshes + K + avg_products)}, kind.name
        # fulldet, noisy, past and quant bill each F they form, and the gap
        # reuses F at the half point
        for kind, oracle_calls in (
            (EstimatorKind("fulldet"), 2 * K),
            (EstimatorKind("noisy", sigma=0.5), 2 * K),
            (EstimatorKind("past", sigma=0.5), K + 1),
            (EstimatorKind("quant", quantizer=Quantizer("identity")), None),
            (EstimatorKind("quant", quantizer=Quantizer("randk", k=4, d=18)), None),
        ):
            p, counts = _counted_game()
            trace = run_solver(p, SolverConfig(kind, K=K, seed=3, gap_every=gap_every))
            if oracle_calls is None:
                # one F per step and one per refresh, the first one included
                oracle_calls = trace.full_calls[-1]
                assert oracle_calls >= K + 2, kind
            assert trace.full_calls[-1] == oracle_calls
            assert counts == {"avg": 2 * (oracle_calls + avg_products)}, kind
        # coord reads one row or column of avg per step; whole products only
        # for the refreshes and for the gap rows
        p, counts = _counted_game()
        trace = run_solver(p, SolverConfig(EstimatorKind("coord"), K=K, seed=3, gap_every=gap_every))
        refreshes = trace.full_calls[-1]
        assert refreshes >= 2 and trace.coords[-1] == K
        assert counts == {"avg": 2 * (refreshes + gap_rows + avg_products), "avg line": K}
    # local: one Phi or consensus per step; a refresh forms each once
    base = [gen_quadratic_vi(8, 0.5, 2.0, seed=3) for _ in range(3)]
    p = gen_mixing_vi(base, 1.0)
    calls = collections.Counter()
    for name in ("phi", "consensus"):

        def counted(Z, name=name, method=getattr(p.payload, name)):
            calls[name] += 1
            return method(Z)

        setattr(p.payload, name, counted)
    trace = run_solver(p, SolverConfig(EstimatorKind("local", tau_split=0.6), K=K, seed=3))
    refreshes, phi_steps = trace.full_calls[-1], trace.local_steps[-1]
    assert 0 < phi_steps < K and refreshes >= 2
    assert calls == {"phi": phi_steps + refreshes, "consensus": (K - phi_steps) + refreshes}


@pytest.mark.parametrize("n, grid", [(3, False), (5, False), (3, True)], ids=["3", "5", "3-grid"])
def test_gap_every_row_reads_the_averaged_gap_off_formed_values(n, grid, monkeypatch):
    # the direct computation: F formed at the last half point and at the
    # average of the half points, on every row; F kept by the step is F
    # formed afresh to the bit, also in the grid form the large games take
    if grid:
        monkeypatch.setattr(problems, "_KERNEL_MIN_VALUES", 0)
    p = gen_policeman_burglar(n, seed=2)
    assert isinstance(p.payload, GridGame) == grid
    K = 300
    randk = Quantizer("randk", k=4, d=p.d)
    weights = importance_weights(p.L_m)
    for kind in (
        EstimatorKind("fulldet"),
        EstimatorKind("noisy", sigma=0.05),
        EstimatorKind("past"),
        EstimatorKind("vr"),
        EstimatorKind("is", weights=weights),
        EstimatorKind("coord"),
        EstimatorKind("quant", quantizer=randk),
        EstimatorKind("qvr", quantizer=randk),
    ):
        trace = run_solver(p, SolverConfig(kind, K=K, seed=4))
        est, coin = rng_stream(4, 0), rng_stream(4, 1)
        z = initial_point(p, 4)
        state = init_estimator(kind, p, z, est)
        half_sum = np.zeros(p.d)
        for k in range(1, K + 1):
            z, z_half = iterate_once(state, p, z, trace.tau, trace.gamma, est, coin)
            half_sum += z_half
            if kind.name == "coord":
                assert state.f_half is None
            else:
                assert state.f_half.tobytes() == p.payload.full(z_half).tobytes(), kind.name
            assert trace.gap_last[k] == duality_gap_bilinear(p.payload, z_half), kind.name
            assert abs(trace.gap_avg[k] - duality_gap_bilinear(p.payload, half_sum / k)) <= 1e-13, kind.name
            for name in COST_COLUMNS:
                assert getattr(trace, name)[k] == getattr(state.costs, name), (kind.name, name)
        np.testing.assert_array_equal(trace.z_final, z)
        np.testing.assert_array_equal(trace.z_avg, half_sum / K)


def test_a_kernel_operator_product_counts_as_one_pass(monkeypatch):
    # with the kernel threshold at 0 the n = 3 game is kept in grid form and
    # takes the FFT product; its runs count as many products as the dense
    # game's
    kinds = (
        EstimatorKind("fulldet"),
        EstimatorKind("past", sigma=0.5),
        EstimatorKind("vr"),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
        EstimatorKind("qvr", quantizer=Quantizer("randk", k=4, d=18)),
        EstimatorKind("quant", quantizer=Quantizer("randk", k=4, d=18)),
        EstimatorKind("coord"),
    )
    dense = []
    for kind in kinds:
        p, counts = _counted_game()
        assert isinstance(p.payload, BilinearGame)
        run_solver(p, SolverConfig(kind, K=10, seed=3, gap_every=1))
        dense.append(counts)
    monkeypatch.setattr(problems, "_KERNEL_MIN_VALUES", 0)
    for kind, want in zip(kinds, dense):
        p, counts = _counted_game()
        assert isinstance(p.payload, GridGame)
        run_solver(p, SolverConfig(kind, K=10, seed=3, gap_every=1))
        assert counts == want, kind.name


def test_kernel_game_runs_follow_the_dense_runs():
    # n = 23, the smallest game kept in grid form, against the same game
    # with its matrix stored: the FFT product moves only last bits
    p = gen_policeman_burglar(23, seed=1)
    assert isinstance(p.payload, GridGame)
    dense = dataclasses.replace(p, payload=BilinearGame(avg=dense_game_matrix(p.payload), ratios=p.payload.ratios))
    for kind in (EstimatorKind("fulldet"), EstimatorKind("past", sigma=0.5), EstimatorKind("vr"), EstimatorKind("coord")):
        cfg = SolverConfig(kind, K=50, seed=2, gap_every=1)
        got, want = run_solver(p, cfg), run_solver(dense, cfg)
        for name in COST_COLUMNS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        for name in ("gap_last", "gap_avg", "z_final"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0, atol=1e-12, err_msg=name)


def test_exact_verification_forms_one_component_stack_per_point():
    # one F product for the refresh at w, one that every component at
    # z^{k+1/2} is read off, and the target F(z^{k+1/2})
    for n in (5, 30):
        p, counts = _counted_game(n)
        assert verify_unbiasedness(EstimatorKind("vr"), p, n_points=1).all_pass
        assert counts == {"avg": 2 * 3}, n


def test_strongly_monotone_run_contracts():
    p = gen_quadratic_vi(12, 0.5, 2.0, seed=5)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("fulldet"), K=200, seed=1, regime="sm"))
    assert trace.dist_sq[-1] <= 1e-2 * trace.dist_sq[0]
    assert trace.lyapunov[-1] < trace.lyapunov[0]


def test_run_solver_requires_finite_step():
    zero_op = QuadraticOperator(mat=np.zeros((3, 3)), center=np.zeros(3))
    p = VIProblem(prox=FREE, payload=zero_op, L=0.0)
    with pytest.raises(ValueError):
        run_solver(p, SolverConfig(kind=EstimatorKind("vr"), K=2))
    # an explicit gamma unblocks the degenerate instance
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("vr"), K=2, gamma=0.1))
    assert trace.k.size == 3


def test_past_tracks_sigma_memory_in_lyapunov():
    p = gen_quadratic_vi(6, 0.5, 2.0, seed=6)
    trace = run_solver(p, SolverConfig(kind=EstimatorKind("past"), K=4, seed=2, regime="sm"))
    est = rng_stream(2, 0)
    z = initial_point(p, 2)
    state = init_estimator(EstimatorKind("past"), p, z, est)
    g_k, g_half, z_half = est_pair(state, p, z, z, trace.gamma, est)
    sigma_sq = float(np.sum((g_half - g_k) ** 2))
    z_new = z - trace.gamma * g_half
    # tau = 0 for this strategy, so the snapshot refreshes to the new iterate
    dist_sq = float(np.sum((z_new - p.known_solution) ** 2))
    want = lyapunov_value(dist_sq, z_new, sigma_sq, p.known_solution, trace.tau, trace.gamma, trace.T)
    assert trace.T == pytest.approx(36.0, rel=1e-12)
    assert trace.lyapunov[1] == pytest.approx(want, rel=1e-12)
