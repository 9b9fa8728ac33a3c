"""Gap functions and the estimator verification suite."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from conftest import all_atoms, restricted_gap_ball, restricted_gap_bruteforce
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vistep import (
    BilinearGame,
    CheckRow,
    EstimatorKind,
    FREE,
    ProxSpec,
    Quantizer,
    VIProblem,
    VerificationReport,
    duality_gap_bilinear,
    eval_full,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    importance_weights,
    random_feasible,
    rng_stream,
    verify_assumption2,
    verify_unbiasedness,
)
from vistep import core, metrics
from vistep.estimators import STRATEGIES
from vistep.metrics import MC_SAMPLES, verify_contracts
from vistep.problems import _gap_of_minima


def two_by_two(mat):
    """Wrap a 2x2 payoff matrix as a game on the product of two simplices."""
    mat = np.asarray(mat, dtype=float)
    game = BilinearGame(avg=mat, ratios=np.ones(1))
    return VIProblem(prox=ProxSpec(blocks=(2, 2)), payload=game, L=float(np.linalg.norm(mat, 2)))


def pvb3():
    return gen_policeman_burglar(3, seed=1)


def mixing3():
    base = [gen_quadratic_vi(8, 0.5, 2.0, seed=3) for _ in range(3)]
    return gen_mixing_vi(base, lam=1.0)


def test_closed_form_gap_matching_pennies():
    p = two_by_two([[1.0, -1.0], [-1.0, 1.0]])
    uniform = np.array([0.5, 0.5, 0.5, 0.5])
    assert duality_gap_bilinear(p.payload, uniform) == 0.0
    pure = np.array([1.0, 0.0, 1.0, 0.0])
    assert duality_gap_bilinear(p.payload, pure) == 2.0


def test_closed_form_gap_diagonal_saddle():
    p = two_by_two(np.diag([1.0, 3.0]))
    saddle = np.array([0.75, 0.25, 0.75, 0.25])
    assert duality_gap_bilinear(p.payload, saddle) == 0.0
    uniform = np.array([0.5, 0.5, 0.5, 0.5])
    assert duality_gap_bilinear(p.payload, uniform) == pytest.approx(1.0, abs=1e-15)


def test_bruteforce_matches_closed_form():
    p = gen_policeman_burglar(2, seed=0)
    rng = rng_stream(9, 0)
    for _ in range(20):
        z = random_feasible(p, rng)
        report = restricted_gap_bruteforce(p, z)
        assert report.value == pytest.approx(duality_gap_bilinear(p.payload, z), abs=1e-10)
        assert report.n_candidates == 16
        # best responses sit at simplex vertices
        for block in (report.maximizer[:4], report.maximizer[4:]):
            assert sorted(block) == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=0)


def test_gap_read_off_f_equals_the_two_matvec_formula():
    # -min(-A x) is max(A x) exactly, so reading the gap off F(z), formed
    # by the gap or by the solver's step, keeps the bits of max(A x) - min(A^T y)
    for n, seed in ((2, 0), (3, 1), (5, 4)):
        p = gen_policeman_burglar(n, seed=seed)
        game = p.payload
        rng = rng_stream(seed, 11)
        for _ in range(20):
            z = random_feasible(p, rng)
            x, y = z[: game.half], z[game.half :]
            want = float(np.max(game.avg @ x) - np.min(game.avg.T @ y)).hex()
            assert duality_gap_bilinear(game, z).hex() == want
            assert _gap_of_minima(eval_full(p, z)).hex() == want


@pytest.mark.parametrize("n", [3, 23])
def test_gap_names_a_wrong_length_and_a_payload_that_is_not_a_game(n):
    # n = 3 holds the game as a dense matrix and n = 23 in grid form
    p = gen_policeman_burglar(n)
    game, d = p.payload, p.d
    z = random_feasible(p, rng_stream(0, 3))
    for bad in (z[:-1], np.concatenate([z, z]), z[:0], z.reshape(2, -1)):
        with pytest.raises(ValueError, match=re.escape(f"z shape {bad.shape} does not match game dimension {d}")):
            duality_gap_bilinear(game, bad)
    quad = gen_quadratic_vi(4, 0.5, 1.0)
    with pytest.raises(TypeError, match="the duality gap needs a game payload, got QuadraticOperator"):
        duality_gap_bilinear(quad.payload, np.zeros(4))


# signed zeros, subnormals, the largest finite values and repeated entries,
# mixed with any finite float
F_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, 1.0, -1.0]),
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
F_VECTORS = st.integers(1, 6).flatmap(lambda h: arrays(np.float64, 2 * h, elements=F_ENTRIES))


@settings(max_examples=400, deadline=None)
@given(F_VECTORS, st.integers(1, 10**6))
# the minimum of f / row is a tie of -0.0 and 0.0, where min(f) / row is -0.0
@example(np.array([-5e-324, 0.0, 0.0, 0.0]), 2)
@example(np.array([1e308, -1e308, -1.7976931348623157e308, 5e-324]), 1)
def test_the_gap_of_the_minima_divided_is_the_gap_of_the_vector_divided(f, row):
    # a minimum is exact and division by a positive count is monotone under
    # rounding, so the solver's every-row gap_avg keeps the bits of the gap of f / row
    with np.errstate(over="ignore"):
        got = _gap_of_minima(f, row)
        h = f.size // 2
        g = f / row
        want = float(-np.min(g[h:]) - np.min(g[:h]) + 0.0)
    assert got.hex() == want.hex()


def test_gap_nonnegative_and_convex():
    p = gen_policeman_burglar(2, seed=3)
    game = p.payload
    rng = rng_stream(10, 0)
    for _ in range(10):
        a = random_feasible(p, rng)
        b = random_feasible(p, rng)
        ga, gb = duality_gap_bilinear(game, a), duality_gap_bilinear(game, b)
        assert ga >= 0.0 and gb >= 0.0
        for lam in (0.25, 0.5, 0.9):
            mid = duality_gap_bilinear(game, lam * a + (1.0 - lam) * b)
            assert mid <= lam * ga + (1.0 - lam) * gb + 1e-10


def test_ball_gap_zero_at_solution():
    p = gen_quadratic_vi(8, 0.5, 2.0, seed=1)
    z = p.known_solution
    report = restricted_gap_ball(p, z, 1.0, center=z)
    assert abs(report.value) <= 1e-12
    np.testing.assert_allclose(report.maximizer, z, atol=1e-12)


def test_ball_gap_positive_monotone_and_maximal():
    p = gen_quadratic_vi(8, 0.5, 2.0, seed=1)
    z = p.known_solution + np.eye(8)[0]
    small = restricted_gap_ball(p, z, 0.5, center=z)
    big = restricted_gap_ball(p, z, 1.0, center=z)
    assert small.value > 1e-3
    assert big.value >= small.value - 1e-12
    assert np.linalg.norm(big.maximizer - z) <= 1.0 + 1e-9
    # no random point in the ball beats the reported maximum
    rng = rng_stream(11, 0)
    for _ in range(200):
        direction = rng.normal(8)
        direction /= np.linalg.norm(direction)
        u = z + float(rng.uniform()) * direction
        assert float(np.dot(eval_full(p, u), z - u)) <= big.value + 1e-9


def test_gap_argument_errors():
    quad = gen_quadratic_vi(4, 0.5, 2.0, seed=0)
    with pytest.raises(TypeError):
        restricted_gap_bruteforce(quad, np.zeros(4))
    game = gen_policeman_burglar(2, seed=0)
    free_game = VIProblem(prox=FREE, payload=game.payload, L=game.L)
    with pytest.raises(ValueError):
        restricted_gap_bruteforce(free_game, np.zeros(8))
    with pytest.raises(ValueError):
        restricted_gap_ball(quad, np.zeros(4), 0.0)

    class NoLinear:
        dim = 3
        ratios = np.ones(1)

        def full(self, z):
            return z

    p = VIProblem(prox=FREE, payload=NoLinear(), L=1.0)
    with pytest.raises(TypeError):
        restricted_gap_ball(p, np.zeros(3), 1.0)


def test_verification_report_merging():
    assert VerificationReport([]).all_pass
    ok = CheckRow("unbiased", "vr", 0.0, 1.0, 0.0, 10, True)
    bad = CheckRow("unbiased", "vr", 2.0, 1.0, 2.0, 10, False)
    report = VerificationReport([ok])
    assert report.all_pass
    report.extend(VerificationReport([bad]))
    assert len(report.rows) == 2
    assert not report.all_pass


def test_unbiasedness_exact_enumerable_kinds():
    p = pvb3()
    kinds = [
        EstimatorKind("fulldet"),
        EstimatorKind("vr"),
        EstimatorKind("coord"),
        EstimatorKind("quant", quantizer=Quantizer("randk", k=5, d=18)),
        EstimatorKind("qvr", quantizer=Quantizer("randk", k=5, d=18)),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
    ]
    for kind in kinds:
        report = verify_unbiasedness(kind, p, n_points=4)
        assert report.all_pass, kind.name
        assert len(report.rows) == 1
        assert report.rows[0].lemma == "unbiased"
        assert report.rows[0].variant == kind.name
    report = verify_unbiasedness(EstimatorKind("local", tau_split=2.0 / 3.0), mixing3(), n_points=4)
    assert report.all_pass


def test_unbiasedness_monte_carlo_and_negative_control(monkeypatch):
    p = pvb3()
    assert verify_unbiasedness(EstimatorKind("noisy", sigma=0.7), p, n_points=3, n_samples=4000).all_pass

    # the negative control: a vr row whose estimate is halved
    original = STRATEGIES["vr"].correct

    def halved(kind, p, o, diff, fw):
        return 0.5 * original(kind, p, o, diff, fw)

    monkeypatch.setitem(STRATEGIES, "vr", dataclasses.replace(STRATEGIES["vr"], correct=halved))
    report = verify_unbiasedness(EstimatorKind("vr"), p, n_points=3, n_samples=4000)
    assert not report.all_pass
    with pytest.raises(ValueError):
        verify_unbiasedness(EstimatorKind("noisy", sigma=0.7), p, n_samples=1)


def test_exact_rows_equal_the_per_atom_loop_sums(monkeypatch):
    # the verifiers reduce over the atoms as arrays, a block of rows at a
    # time; with two atoms per block every kind's atoms span several blocks
    # (qvr's 2448 span 1224), and the per-atom Python sums are the
    # reference, bit for bit
    p = pvb3()
    monkeypatch.setattr(core, "_BLOCK_VALUES", 2 * p.d)
    for kind in (
        EstimatorKind("coord"),
        EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
        EstimatorKind("qvr", quantizer=Quantizer("randk", k=3, d=p.d)),
    ):
        points = rng_stream(0, 5)
        z_half, w = random_feasible(p, points), random_feasible(p, points)
        snap = kind.strategy.refresh(kind, p, w)[0]
        fw = snap.fw
        target = eval_full(p, z_half)
        probs, values = all_atoms(kind, p, z_half, snap)
        assert len(probs) > core._block_rows(p.d)
        atoms = list(zip(probs.tolist(), values))
        mean = sum(prob * val for prob, val in atoms)
        diff = sum(prob * float(np.sum((val - fw) ** 2)) for prob, val in atoms)
        res = sum(prob * float(np.sum((val - target) ** 2)) for prob, val in atoms)
        assert [r.lhs for r in verify_unbiasedness(kind, p, n_points=1).rows] == [np.linalg.norm(mean - target)]
        assert [r.lhs for r in verify_assumption2(kind, p, n_points=1).rows] == [diff, res]


@pytest.mark.parametrize(
    "make", [lambda: gen_policeman_burglar(20, seed=1), lambda: gen_quadratic_vi(800, 0.1, 1.0)], ids=["game", "quadratic"]
)
def test_coord_exact_verification_holds_no_dense_atom_array(make):
    # d = 800 (the game at n = 20), and the d atoms as dense rows, or the
    # d rows of the operator gathered for the coordinate reads, would be
    # one d x d array of 5.12 MB; blocks of atoms need a fraction of it
    p = make()
    one_matrix = p.d * p.d * 8
    verify_assumption2(EstimatorKind("coord"), pvb3(), n_points=1)  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        assert verify_unbiasedness(EstimatorKind("coord"), p, n_points=1).all_pass
        assert verify_assumption2(EstimatorKind("coord"), p, n_points=1).all_pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < one_matrix


def test_monte_carlo_batch_outlives_its_draws_by_nothing():
    # noisy's 2000 x 500 batch is formed from as many gaussian draws; the
    # draws are dropped before the batch is walked, so the peak is the
    # batch and one array of its size while it is formed, not three
    p = gen_quadratic_vi(500, 0.1, 1.0, seed=1)
    kind = EstimatorKind("noisy", sigma=0.5)
    one_batch = 2000 * p.d * 8
    verify_unbiasedness(kind, pvb3(), n_points=1)  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        verify_contracts([kind], p, 1, 2000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * one_batch


def test_zero_samples_enumerates_or_draws_the_default():
    p = pvb3()
    assert [r.n for r in verify_unbiasedness(EstimatorKind("vr"), p, n_points=2).rows] == [p.M]
    assert [r.n for r in verify_unbiasedness(EstimatorKind("noisy", sigma=0.7), p, n_points=2).rows] == [MC_SAMPLES]


def test_both_verifiers_reject_one_or_negative_samples():
    # one draw would hold the Monte Carlo moment rows to a 500% tolerance
    p = pvb3()
    for n_samples in (1, -2):
        for kind in (
            EstimatorKind("vr"),
            EstimatorKind("coord"),
            EstimatorKind("noisy", sigma=0.7),
            EstimatorKind("past"),
        ):
            with pytest.raises(ValueError, match="n_samples"):
                verify_unbiasedness(kind, p, n_points=2, n_samples=n_samples)
            with pytest.raises(ValueError, match="n_samples"):
                verify_assumption2(kind, p, n_points=2, n_samples=n_samples)


def test_session_checks_its_shared_arguments_with_no_kind_listed():
    p = pvb3()
    for kinds in ([], [EstimatorKind("vr")]):
        with pytest.raises(ValueError, match="need n_points >= 1"):
            verify_contracts(kinds, p, 0, 0, 0)
        with pytest.raises(ValueError, match="need n_samples = 0 or n_samples >= 2, got 1"):
            verify_contracts(kinds, p, 2, 1, 0)


@pytest.mark.parametrize(
    "argument, value",
    [("seed", 1.5), ("n_points", 2.5), ("n_samples", 2.5)],
)
def test_both_verifiers_reject_non_integer_counts_and_seeds(argument, value):
    p = pvb3()
    for verify in (verify_unbiasedness, verify_assumption2):
        for kind in (EstimatorKind("vr"), EstimatorKind("past")):
            with pytest.raises(ValueError, match=f"{argument} must be an integer, got {value}"):
                verify(kind, p, **{"n_points": 2, argument: value})


def test_assumption2_exact_modes():
    report = verify_assumption2(EstimatorKind("coord"), pvb3(), n_points=50)
    assert report.all_pass
    assert [r.lemma for r in report.rows] == ["diff-second-moment", "residual-second-moment"]
    quad6 = gen_quadratic_vi(6, 0.5, 3.0, seed=2)
    for k in (1, 2, 3):
        kind = EstimatorKind("quant", quantizer=Quantizer("randk", k=k, d=6))
        assert verify_assumption2(kind, quad6, n_points=50).all_pass


def test_assumption2_monte_carlo_mode():
    report = verify_assumption2(EstimatorKind("vr"), pvb3(), n_points=2, n_samples=2000)
    assert report.all_pass
    assert all(r.n == 2000 for r in report.rows)


def test_assumption2_stored_half_step_rows():
    p = pvb3()
    quiet = verify_assumption2(EstimatorKind("past"), p, n_points=6)
    assert quiet.all_pass
    assert [r.lemma for r in quiet.rows] == [
        "diff-second-moment",
        "sigma-recursion",
        "residual-second-moment",
    ]
    loud = verify_assumption2(EstimatorKind("past", sigma=0.3), p, n_points=6)
    assert loud.all_pass
    assert [r.lemma for r in loud.rows] == ["diff-second-moment", "residual-second-moment"]


def randk(k, d):
    return Quantizer("randk", k=k, d=d)


# (problem, kinds, n_samples) for one verification session each; every one
# lists a strategy twice and noisy/past at one sigma and at another
SESSIONS = {
    "game-exact": lambda: (
        pvb3(),
        [
            EstimatorKind("fulldet"),
            EstimatorKind("noisy", sigma=0.7),
            EstimatorKind("past", sigma=0.7),
            EstimatorKind("past", sigma=0.3),
            EstimatorKind("vr"),
            EstimatorKind("is", weights=(0.5, 0.3, 0.2)),
            EstimatorKind("coord"),
            EstimatorKind("quant", quantizer=randk(2, 18)),
            EstimatorKind("qvr", quantizer=randk(2, 18)),
            EstimatorKind("vr"),
        ],
        0,
    ),
    "game-mc": lambda: (
        pvb3(),
        [
            EstimatorKind("past"),
            EstimatorKind("noisy"),
            EstimatorKind("fulldet"),
            EstimatorKind("coord"),
            EstimatorKind("qvr", quantizer=randk(3, 18)),
            EstimatorKind("coord"),
            EstimatorKind("noisy", sigma=0.2),
        ],
        300,
    ),
    "quadratic": lambda: (
        gen_quadratic_vi(6, 0.5, 3.0, seed=2),
        [
            EstimatorKind("noisy", sigma=0.2),
            EstimatorKind("past", sigma=0.2),
            EstimatorKind("past", sigma=0.5),
            EstimatorKind("quant", quantizer=randk(2, 6)),
            EstimatorKind("fulldet"),
            EstimatorKind("coord"),
            EstimatorKind("quant", quantizer=randk(2, 6)),
        ],
        0,
    ),
    "mixing": lambda: (
        mixing3(),
        [
            EstimatorKind("local", tau_split=0.4),
            EstimatorKind("fulldet"),
            EstimatorKind("past", sigma=0.1),
            EstimatorKind("noisy", sigma=0.1),
            EstimatorKind("noisy", sigma=0.3),
            EstimatorKind("local", tau_split=0.4),
        ],
        0,
    ),
}


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("label", sorted(SESSIONS))
def test_session_rows_equal_the_single_lemma_rows(label, seed):
    # per kind the unbiased row, then the second-moment rows, field for
    # field and float for float (CheckRow's == compares the floats exactly)
    p, kinds, n_samples = SESSIONS[label]()
    want = []
    for kind in kinds:
        want += verify_unbiasedness(kind, p, n_points=3, n_samples=n_samples, seed=seed).rows
        want += verify_assumption2(kind, p, n_points=3, n_samples=n_samples, seed=seed).rows
    assert verify_contracts(kinds, p, 3, n_samples, seed).rows == want


@pytest.fixture
def outcome_sets(monkeypatch):
    """The outcome sets the verifiers build, in order: ("atoms", kind) for
    an exact set, ("draws", kind) for a Monte Carlo batch."""
    built = []

    def counted(kind, p, z_half, snap, draws, rng, original=metrics.half_outcomes):
        built.append(("draws" if draws else "atoms", kind))
        return original(kind, p, z_half, snap, draws, rng)

    monkeypatch.setattr(metrics, "half_outcomes", counted)
    return built


def test_session_builds_each_outcome_set_once_per_point(outcome_sets):
    p = pvb3()
    noisy, past, vr = EstimatorKind("noisy", sigma=0.7), EstimatorKind("past", sigma=0.7), EstimatorKind("vr")
    coord = EstimatorKind("coord")
    verify_contracts([EstimatorKind("fulldet"), noisy, past, vr, coord, vr], p, 3, 0, 0)
    # past shares noisy's Monte Carlo batch, and vr listed twice one atom set
    per_point = [("atoms", EstimatorKind("fulldet")), ("draws", noisy)]
    per_point += [("atoms", vr), ("atoms", coord)]
    assert outcome_sets == 3 * per_point


def test_session_at_unequal_sigma_builds_two_batches(outcome_sets):
    noisy, past = EstimatorKind("noisy", sigma=0.7), EstimatorKind("past", sigma=0.3)
    verify_contracts([noisy, past], pvb3(), 2, 0, 0)
    assert outcome_sets == 2 * [("draws", noisy), ("draws", past)]


def test_second_moments_of_the_oracle_strategies_draw_nothing(outcome_sets):
    p = pvb3()
    for kind in (EstimatorKind("fulldet"), EstimatorKind("noisy", sigma=0.7), EstimatorKind("past", sigma=0.7)):
        assert verify_assumption2(kind, p, n_points=3).all_pass
    assert outcome_sets == []
    verify_unbiasedness(EstimatorKind("noisy", sigma=0.7), p, n_points=3)
    assert len(outcome_sets) == 3
