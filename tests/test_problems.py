"""Problem generators: matrix games, quadratic operators, mixing stacks."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from conftest import cell_distance, dense_game_matrix, matrix_spectral_norm, svd_calibrated_alpha

from vistep import (
    FREE,
    GridGame,
    ProxSpec,
    QuadraticOperator,
    VIProblem,
    eval_component,
    eval_full,
    gen_mixing_vi,
    gen_policeman_burglar,
    gen_quadratic_vi,
    initial_point,
    random_feasible,
    rng_stream,
)
from vistep import problems
from vistep.problems import wealth_base


def published_components(n, theta=0.6, sigma_w=3.0, seed=0):
    """The (M, n^2, n^2) stack A^(k)_ij = (1 + xi_k) w_i (1 - exp(-theta d(i, j)))
    from the published wealth profile, cell distances and scalar wealth
    shocks: the component matrices the payload does not store."""
    xi = sigma_w * rng_stream(seed, 0).uniform(n)
    cells = range(n * n)
    loot = np.array([[1.0 - np.exp(-theta * cell_distance(i, j, n)) for j in cells] for i in cells])
    return (1.0 + xi)[:, None, None] * (wealth_base(n)[:, None] * loot)


def test_wealth_base_matches_scalar_loop():
    for n in (1, 2, 3, 5):
        got = wealth_base(n)
        for i in range(n * n):
            want = 1.0 - (2.0 / n) * min(abs(i // n - n / 2.0), abs(i % n - n / 2.0))
            assert got[i] == pytest.approx(want, abs=1e-15)


def test_wealth_base_small_grids():
    np.testing.assert_allclose(wealth_base(1), [0.0], atol=1e-15)
    np.testing.assert_allclose(wealth_base(2), [0.0, 1.0, 1.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError):
        wealth_base(0)


def test_cell_distance_examples():
    assert cell_distance(0, 0, 3) == 0.0
    assert cell_distance(0, 3, 2) == pytest.approx(np.sqrt(2.0))
    assert cell_distance(0, 2, 3) == pytest.approx(2.0)
    assert cell_distance(2, 8, 3) == pytest.approx(2.0)
    with pytest.raises(IndexError):
        cell_distance(4, 0, 2)
    with pytest.raises(IndexError):
        cell_distance(0, -1, 2)


def test_policeman_burglar_shapes_and_meta():
    p = gen_policeman_burglar(3, seed=1)
    assert p.d == 18
    assert p.M == 3
    assert p.prox.blocks == (9, 9)
    assert p.payload.avg.shape == (9, 9)
    assert p.payload.ratios.shape == (3,)
    assert not hasattr(p.payload, "mats")
    assert not hasattr(p.payload, "base")
    assert p.meta["kind"] == "pvb"
    assert p.known_solution is None
    assert p.L_m.shape == (3,)


def test_policeman_burglar_matrix_formula():
    # rebuild the component matrices entry by entry from the published
    # wealth profile, cell distances and the scalar wealth shocks
    n, theta, sigma_w, seed = 2, 0.6, 3.0, 5
    p = gen_policeman_burglar(n, theta=theta, sigma_w=sigma_w, seed=seed)
    xi = sigma_w * rng_stream(seed, 0).uniform(n)
    w = wealth_base(n)
    np.testing.assert_array_equal(p.payload.ratios, (1.0 + xi) / np.mean(1.0 + xi))
    for i in range(n * n):
        for j in range(n * n):
            loot = w[i] * (1.0 - np.exp(-theta * cell_distance(i, j, n)))
            assert p.payload.avg[i, j] == pytest.approx(np.mean(1.0 + xi) * loot, abs=1e-12)
            for k in range(n):
                assert p.payload.ratios[k] * p.payload.avg[i, j] == pytest.approx((1.0 + xi[k]) * loot, abs=1e-12)


def test_policeman_burglar_matrix_structure():
    p = gen_policeman_burglar(3, seed=2)
    assert np.all(np.diag(p.payload.avg) == 0.0)
    assert np.all(p.payload.avg >= 0.0)
    # ratios[k] = (1 + xi_k) / mean(1 + xi) with every shock xi_k in [0, sigma_w = 3]
    ratios = p.payload.ratios
    assert np.all((1.0 / 4.0 <= ratios) & (ratios <= 4.0))
    assert ratios.mean() == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("n", [3, 4])
def test_policeman_burglar_matches_the_component_stack(n):
    p = gen_policeman_burglar(n, seed=n)
    game = p.payload
    mats = published_components(n, seed=n)
    # A and every A^(k) = ratios[k] * A match the stack to rounding
    np.testing.assert_allclose(game.avg, mats.mean(axis=0), rtol=1e-15, atol=0)
    np.testing.assert_allclose(game.ratios[:, None, None] * game.avg, mats, rtol=1e-15, atol=0)
    assert p.L == matrix_spectral_norm(game.avg, tol=1e-12)
    assert p.L == pytest.approx(matrix_spectral_norm(mats.mean(axis=0), tol=1e-12), rel=1e-12)
    # one power iteration on A gives every component's norm; running it on
    # each component instead agrees to the routine's own tolerance
    np.testing.assert_array_equal(p.L_m, game.ratios * p.L)
    per_component = [matrix_spectral_norm(mats[k], tol=1e-12) for k in range(n)]
    np.testing.assert_allclose(p.L_m, per_component, rtol=1e-12, atol=0)
    rng = rng_stream(n, 1)
    for _ in range(3):
        z = random_feasible(p, rng)
        got = eval_component(p, np.arange(n), z)
        for m in range(n):
            want = _two_products(mats[m], z)
            assert np.max(np.abs(got[m] - want)) <= 1e-14 * np.max(np.abs(want))


def _two_products(mat: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(mat^T y, -mat x) as two whole products with mat: the reference for
    the game's product."""
    h = mat.shape[0]
    return np.concatenate([mat.T @ z[h:], -(mat @ z[:h])])


@pytest.mark.parametrize(
    "n, min_values, grid",
    [
        (3, None, False),
        (5, None, False),
        (16, None, False),
        (17, None, False),
        (22, None, False),
        (23, None, True),
        (29, None, True),
        (30, None, True),
        (3, 0, True),
    ],
)
def test_game_product_matches_two_whole_products(monkeypatch, n, min_values, grid):
    # a matrix of at most 2^18 floats (n <= 22) is stored, takes the two
    # whole products and keeps their bits; a larger one (23 and 29 are
    # prime) is kept in grid form and applied by one FFT product, which
    # moves only the last bits; min_values = 0 puts the n = 3 game in grid
    # form too.  The grid form packs x and a y into one complex grid, so
    # its error is bounded by the whole of F: the third point's x half is
    # 1e6 times its y half
    if min_values is not None:
        monkeypatch.setattr(problems, "_KERNEL_MIN_VALUES", min_values)
    p = gen_policeman_burglar(n, seed=n)
    game = p.payload
    assert isinstance(game, GridGame) == grid
    # the benchmark's audit tells the forms apart by this attribute
    assert hasattr(game, "avg") != grid
    rng = rng_stream(n, 3)
    lopsided = random_feasible(p, rng)
    lopsided[: game.half] *= 1e6
    for z in (random_feasible(p, rng), rng.normal(p.d), lopsided):
        want = _two_products(dense_game_matrix(game), z)
        pairs = [(game.full(z), want), (eval_component(p, np.arange(p.M), z), game.ratios[:, None] * want)]
        if grid:
            # the coordinate oracle reads the table, so it must agree with the FFT product
            pairs.append((np.array([game.coordinate(j, z) for j in range(p.d)]), game.full(z)))
        for got, ref in pairs:
            if grid:
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
            else:
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [23, 30])
def test_grid_game_spectrum_is_the_real_part_of_the_wrapped_table_transform(n):
    # the packed product is exact only for a real spectrum: the wrapped
    # table is even in both offsets, so its FFT's imaginary part is rounding
    # (N = 45 is odd at n = 23 and N = 60 even at n = 30)
    game = gen_policeman_burglar(n, seed=n).payload
    N = problems._fft_size(2 * n - 1)
    torus = np.zeros((N, N))
    torus[: 2 * n - 1, : 2 * n - 1] = game.table
    transform = np.fft.fft2(np.roll(torus, 1 - n, axis=(0, 1)))
    assert game.spectrum.dtype == np.float64
    np.testing.assert_array_equal(game.spectrum, transform.real)
    assert np.max(np.abs(transform.imag)) < 1e-15 * np.max(np.abs(game.spectrum))


@pytest.mark.parametrize("n", [23, 30])
def test_grid_game_products_run_one_pruned_fft_pair(monkeypatch, n):
    # every product is one forward and one inverse 2-d transform on the
    # N x N torus: only the n rows that hold the grid enter the pass along
    # rows, and only the n rows the crop keeps leave it.  F packs x and a y
    # into one complex grid; a single real grid takes the real transform
    # along its rows and N // 2 + 1 of the spectrum's columns
    p = gen_policeman_burglar(n, seed=n)
    game = p.payload
    N = problems._fft_size(2 * n - 1)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn"):

        def counted(a, *args, name=name, transform=getattr(np.fft, name), **kwargs):
            # the kind of the input and the points of the (padded) 1-d
            # transforms, read off the keywords problems passes
            a = np.asarray(a)
            axis = kwargs.get("axis", -1)
            calls.append((name, a.dtype.kind, a.size // a.shape[axis] * (kwargs.get("n") or a.shape[axis])))
            return transform(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    z = random_feasible(p, rng_stream(n, 4))
    h = game.half
    half_cols = N // 2 + 1
    packed = [("fft", "c", n * N), ("fft", "c", N * N), ("ifft", "c", N * N), ("ifft", "c", n * N)]
    real = [("rfft", "f", n * N), ("fft", "c", N * half_cols), ("ifft", "c", N * half_cols), ("irfft", "c", n * N)]
    for product, want in (
        (lambda: game.full(z), packed),
        (lambda: eval_component(p, np.arange(p.M), z), packed),
        (lambda: game._matvec(z[:h]), real),
        (lambda: game._rmatvec(z[h:]), real),
    ):
        calls.clear()
        product()
        assert calls == want


def test_fft_size_is_the_next_integer_with_no_prime_factor_above_5():
    # 2n - 1 for n = 23, 29, 30, 40, 8 and two primes
    sizes = {45: 45, 57: 60, 59: 60, 79: 80, 15: 15, 7: 8, 97: 100, 1: 1}
    assert {m: problems._fft_size(m) for m in sizes} == sizes


def test_a_game_without_a_kernel_takes_the_two_whole_products():
    # a hand-built BilinearGame stores its matrix, however large
    h = 600
    rng = rng_stream(4, 0)
    game = problems.BilinearGame(avg=rng.normal((h, h)), ratios=np.array([0.5, 1.5]))
    p = VIProblem(d=2 * h, prox=ProxSpec((h, h)), M=2, payload=game, L=1.0)
    z = rng.normal(2 * h)
    want = _two_products(game.avg, z)
    assert game.full(z).tobytes() == want.tobytes()
    assert eval_component(p, np.arange(2), z).tobytes() == (game.ratios[:, None] * want).tobytes()


def test_policeman_burglar_runs_one_power_iteration(monkeypatch):
    # on the averaged matrix, whatever M is: every component is a multiple of it
    calls = []
    spectral_norm = problems._spectral_norm

    def counted(game, tol):
        calls.append(game.half)
        return spectral_norm(game, tol)

    monkeypatch.setattr(problems, "_spectral_norm", counted)
    p = gen_policeman_burglar(6, seed=1)
    assert calls == [36]
    assert p.L_m.shape == (6,)


def test_coordinate_oracle_reads_one_entry_of_the_operator():
    quad = gen_quadratic_vi(20, 0.5, 2.0, seed=1)
    problems_with_coord = (
        gen_policeman_burglar(3, seed=1),
        gen_policeman_burglar(4, seed=2),
        quad,
        gen_mixing_vi([quad, gen_quadratic_vi(20, 0.5, 2.0, seed=2), gen_quadratic_vi(20, 0.5, 2.0, seed=3)], 1.5),
    )
    rng = rng_stream(6, 0)
    for p in problems_with_coord:
        for _ in range(3):
            z = random_feasible(p, rng)
            full = eval_full(p, z)
            # relative to the size of F(z): the entries of a free problem may cancel to near zero
            tol = 1e-14 * np.max(np.abs(full))
            one_at_a_time = np.array([p.payload.coordinate(j, z) for j in range(p.d)])
            assert np.max(np.abs(one_at_a_time - full)) <= tol, p.meta["kind"]


def test_coordinate_oracle_rejects_out_of_range_indices():
    # a negative index would wrap to another coordinate's oracle
    quad = gen_quadratic_vi(6, 0.5, 2.0, seed=1)
    mixing = gen_mixing_vi([quad, gen_quadratic_vi(6, 0.5, 2.0, seed=2)], 1.0)
    for p in (gen_policeman_burglar(3, seed=1), quad, mixing):
        z = random_feasible(p, rng_stream(1, 0))
        for j in (-1, p.d):
            with pytest.raises(IndexError, match=f"coordinate {j} out of range for d={p.d}"):
                p.payload.coordinate(j, z)


def test_policeman_burglar_generation_holds_no_component_stack():
    # n = 20: one n^2 x n^2 array is 1.28 MB and the stack of all M = 20
    # components would be 25.6 MB; set-up needs a handful of the former
    n = 20
    one_matrix = (n * n) ** 2 * 8
    gen_policeman_burglar(2)  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        gen_policeman_burglar(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * one_matrix


def test_grid_game_generation_allocates_no_matrix():
    # n = 40: one n^2 x n^2 array would be 20.5 MB; the grid form and the
    # power iteration need vectors, grids and one spectrum
    gen_policeman_burglar(23)  # imports and first-call caches out of the count
    tracemalloc.start()
    try:
        p = gen_policeman_burglar(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(p.payload, GridGame)
    assert peak < 2**20


@pytest.mark.parametrize("n", [23, 30])
def test_grid_game_lipschitz_constant_matches_the_dense_norm(n):
    p = gen_policeman_burglar(n, seed=n)
    assert isinstance(p.payload, GridGame)
    want = np.linalg.norm(dense_game_matrix(p.payload), 2)
    assert p.L == pytest.approx(want, rel=1e-12)
    np.testing.assert_array_equal(p.L_m, p.payload.ratios * p.L)


@pytest.mark.parametrize("n", [1, 3, 17, 22, 23, 30])
def test_game_payload_holds_one_matrix(n):
    # up to n = 22, A and the M ratios, each in its own buffer:
    # 8 n^4 + 8 M bytes; from n = 23 on, the grid form in O(n^2) bytes:
    # 8 n^2 of wealth, a (2n - 1) x (2n - 1) table, an N x N real spectrum
    # and the ratios
    p = gen_policeman_burglar(n, seed=n)
    game = p.payload
    if n <= 22:
        arrays = [game.avg, game.ratios]
        assert sum(a.nbytes for a in arrays) == 8 * n**4 + 8 * p.M
        assert [a.shape for a in arrays if a.ndim == 2] == [(n * n, n * n)]
    else:
        arrays = [game.a, game.table, game.spectrum, game.ratios]
        N = game.spectrum.shape[0]
        assert N == problems._fft_size(2 * n - 1) < 4 * n
        grid_bytes = 8 * n**2 + 8 * (2 * n - 1) ** 2 + 8 * N**2 + 8 * p.M
        assert sum(a.nbytes for a in arrays) == grid_bytes
        assert sorted(vars(game)) == ["a", "ratios", "spectrum", "table"]
    assert all(isinstance(a, np.ndarray) and a.base is None for a in arrays)
    # every component is read off the one matrix: F_m = ratios[m] * F
    z = random_feasible(p, rng_stream(n, 5))
    rows = eval_component(p, np.arange(p.M), z)
    for m in range(p.M):
        assert rows[m].tobytes() == (game.ratios[m] * eval_full(p, z)).tobytes()


def test_eval_component_rejects_non_integer_and_empty_indices():
    # a scalar index is rejected too, an integer one included: the indices
    # are always an array, whose rows come from one F(z)
    p = gen_policeman_burglar(3, seed=1)
    z = random_feasible(p, rng_stream(1, 0))
    for m in (True, np.bool_(False), 1.0, np.float64(0.0), 2, np.int64(2), [0, 1]):
        message = f"m: component indices must be a nonempty integer array, got {m!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            eval_component(p, m, z)
    for m in (np.array([], dtype=np.int64), np.array([0.0, 1.0]), np.array([True, False, True])):
        with pytest.raises(ValueError, match="component indices must be a nonempty integer array"):
            eval_component(p, m, z)


def test_components_rows_are_the_component_calls():
    quad = gen_quadratic_vi(6, 0.5, 2.0, seed=1)
    problems = (
        gen_policeman_burglar(3, seed=1),
        gen_policeman_burglar(4, seed=2),
        quad,
        gen_mixing_vi([quad, gen_quadratic_vi(6, 0.5, 2.0, seed=2)], 1.0),
    )
    # one row ratios[m] * F(z) per index, in the indices' order, repeats included
    for p in problems:
        z = random_feasible(p, rng_stream(4, 0))
        f = eval_full(p, z)
        for picked in (np.arange(p.M), np.arange(p.M)[::-1], np.zeros(3, dtype=np.int64)):
            rows = eval_component(p, picked, z)
            assert rows.shape == (len(picked), p.d)
            for row, m in zip(rows, picked):
                assert row.tobytes() == (p.payload.ratios[m] * f).tobytes()


def test_policeman_burglar_operator_is_skew_average_of_components():
    p = gen_policeman_burglar(3, seed=3)
    rng = rng_stream(9, 0)
    for _ in range(5):
        z = random_feasible(p, rng)
        f = eval_full(p, z)
        comps = np.mean(eval_component(p, np.arange(p.M), z), axis=0)
        np.testing.assert_allclose(comps, f, atol=1e-10)
        # skew bilinear: <F(z), z> = y.A x - x.A^T y = 0
        assert abs(float(np.dot(f, z))) <= 1e-12 * (1.0 + np.linalg.norm(f))


def test_policeman_burglar_zero_shock_makes_components_equal():
    p = gen_policeman_burglar(3, sigma_w=0.0, seed=4)
    np.testing.assert_array_equal(p.payload.ratios, np.ones(3))
    np.testing.assert_allclose(p.payload.avg, published_components(3, sigma_w=0.0, seed=4)[0], rtol=1e-15, atol=0)
    # every component is A itself, with A's Lipschitz constant
    np.testing.assert_array_equal(p.L_m, np.full(3, p.L))
    z = random_feasible(p, rng_stream(4, 1))
    for row in eval_component(p, np.arange(3), z):
        assert row.tobytes() == eval_full(p, z).tobytes()


def test_policeman_burglar_lipschitz_constant():
    p = gen_policeman_burglar(3, seed=1)
    # the game operator [[0, A^T], [-A, 0]] has spectral norm |A|_2
    assert p.L == pytest.approx(np.linalg.norm(p.payload.avg, 2), rel=1e-9)
    mats = published_components(3, seed=1)
    for k in range(3):
        assert p.L_m[k] == pytest.approx(np.linalg.norm(mats[k], 2), rel=1e-9)


def test_policeman_burglar_argument_errors():
    with pytest.raises(ValueError):
        gen_policeman_burglar(0)
    with pytest.raises(ValueError):
        gen_policeman_burglar(2, theta=0.0)
    with pytest.raises(ValueError):
        gen_policeman_burglar(2, sigma_w=-1.0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_policeman_burglar(3, seed=1.5), "seed must be an integer, got 1.5"),
        (lambda: gen_policeman_burglar(2.5), "n must be an integer, got 2.5"),
        (lambda: gen_quadratic_vi(5, 0.1, 1.0, seed=0.5), "seed must be an integer, got 0.5"),
        (lambda: gen_quadratic_vi(10.0, 0.1, 1.0), "d must be an integer, got 10.0"),
    ],
    ids=["pvb-seed", "pvb-n", "quadratic-seed", "quadratic-d"],
)
def test_generators_reject_non_integer_sizes_and_seeds(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: gen_policeman_burglar(3, theta=np.inf), "finite theta > 0, got inf"),
        (lambda: gen_policeman_burglar(3, sigma_w=np.inf), "finite sigma_w >= 0, got inf"),
        (lambda: gen_quadratic_vi(5, np.inf, np.inf), "got mu = inf, L = inf"),
        (lambda: gen_quadratic_vi(5, 0.1, np.inf), "got mu = 0.1, L = inf"),
        (lambda: gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0)], np.inf), "finite lam > 0, got inf"),
    ],
    ids=["pvb-theta", "pvb-sigma_w", "quadratic-mu-L", "quadratic-L", "mixing-lam"],
)
def test_generators_reject_non_finite_parameters(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_quadratic_constants_are_exact():
    p = gen_quadratic_vi(12, 0.3, 2.5, seed=2)
    mat = p.payload.mat
    assert np.linalg.norm(mat, 2) == pytest.approx(2.5, abs=1e-9)
    sym = (mat + mat.T) / 2.0
    assert np.linalg.eigvalsh(sym).min() >= 0.3 - 1e-9
    assert p.mu_F == 0.3
    assert p.prox.free
    np.testing.assert_allclose(eval_full(p, p.known_solution), np.zeros(12), atol=1e-14)


def test_quadratic_calibration_matches_scipy_brentq_bit_for_bit(monkeypatch):
    # scipy is a test-side reference only; the generator runs the port
    from scipy.optimize import brentq

    port, calls = problems._brentq, []

    def spy(f, a, b, fa, fb, xtol, rtol):
        root = port(f, a, b, fa, fb, xtol, rtol)
        calls.append((f, a, b, fa, fb, xtol, rtol, root))
        return root

    monkeypatch.setattr(problems, "_brentq", spy)
    for d in (2, 3, 5, 10, 40, 50, 100):
        for seed in range(6):
            for mu, L in ((0.1, 1.0), (0.5, 2.0), (1e-3, 1.0), (0.9, 1.0)):
                calls.clear()
                gen_quadratic_vi(d, mu, L, seed=seed)
                [(f, a, b, fa, fb, xtol, rtol, root)] = calls
                case = (d, seed, mu, L)
                # the end values passed in are the ones scipy computes for itself
                assert (fa, fb) == (f(a), f(b)), case
                assert root == brentq(f, a, b, xtol=xtol, rtol=rtol), case

    # a d = 500 calibration runs only the doubling probe's eigenvalue solves and
    # the port's, none of them again at an end of the bracket, and no SVD
    norm, eigvalsh, orders, solves = np.linalg.norm, np.linalg.eigvalsh, [], []

    def counted_norm(x, ord=None, **kwargs):
        orders.append(ord)
        return norm(x, ord, **kwargs)

    def counted_eigvalsh(x, *args, **kwargs):
        solves.append(x.shape)
        return eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    gen_quadratic_vi(500, 0.1, 1.0, seed=0)
    assert solves == [(500, 500)] * 7
    assert 2 not in orders


@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 40, 50, 100, 200, 500])
def test_quadratic_alpha_matches_the_svd_rule(d):
    # the Gram-eigenvalue rule finds the SVD rule's alpha to 5.7e-13 relative
    # (worst over these d, the four (mu, L) pairs and seeds 0-2)
    for seed in range(3) if d <= 100 else (0,):
        for mu, L in ((0.1, 1.0), (0.5, 2.0), (1e-3, 1.0), (0.9, 1.0)):
            want, N = svd_calibrated_alpha(d, mu, L, seed)
            mat = gen_quadratic_vi(d, mu, L, seed=seed).payload.mat
            alpha = np.vdot(mat - mu * np.eye(d), N) / np.vdot(N, N)
            assert alpha == pytest.approx(want, rel=1e-12), (seed, mu, L)


@pytest.mark.parametrize("d", [4, 50])
@pytest.mark.parametrize("L", [1e-12, 1e-8, 1.0, 1e8, 1e200])
def test_quadratic_spectral_norm_is_L_at_every_scale(d, L):
    # the root is found in units of L, so its tolerance is relative at any scale
    mat = gen_quadratic_vi(d, L / 10, L, seed=0).payload.mat
    assert abs(np.linalg.norm(mat, 2) / L - 1.0) <= 1e-11


def test_quadratic_strong_monotonicity_empirical():
    p = gen_quadratic_vi(10, 0.4, 3.0, seed=6)
    rng = rng_stream(7, 0)
    for _ in range(50):
        a = rng.normal(10)
        b = rng.normal(10)
        inner = float(np.dot(eval_full(p, a) - eval_full(p, b), a - b))
        gap = float(np.sum((a - b) ** 2))
        assert inner >= 0.4 * gap - 1e-9 * gap
        assert inner <= 3.0 * gap + 1e-9 * gap


def test_quadratic_edge_cases():
    with pytest.raises(ValueError):
        gen_quadratic_vi(5, 2.0, 1.0)
    with pytest.raises(ValueError):
        gen_quadratic_vi(5, 0.0, 1.0)
    for d in (0, -3):
        with pytest.raises(ValueError, match="d >= 1"):
            gen_quadratic_vi(d, 0.5, 1.0)
    p = gen_quadratic_vi(4, 1.5, 1.5, seed=0)
    np.testing.assert_array_equal(p.payload.mat, 1.5 * np.eye(4))


def test_quadratic_deterministic_in_seed():
    a = gen_quadratic_vi(8, 0.5, 2.0, seed=3)
    b = gen_quadratic_vi(8, 0.5, 2.0, seed=3)
    c = gen_quadratic_vi(8, 0.5, 2.0, seed=4)
    np.testing.assert_array_equal(a.payload.mat, b.payload.mat)
    np.testing.assert_array_equal(a.known_solution, b.known_solution)
    assert np.any(a.payload.mat != c.payload.mat)


def test_mixing_structure_and_constants():
    base = [gen_quadratic_vi(4, 0.5, 2.0, seed=7) for _ in range(3)]
    p = gen_mixing_vi(base, 1.3)
    assert p.d == 12
    assert p.M == 1
    assert p.L == 2.0 + 1.3
    assert p.mu_F == 0.5
    assert p.payload.workers == 3
    assert p.payload.l_phi == 2.0
    assert p.meta["kind"] == "mixing"


def test_mixing_consensus_properties():
    base = [gen_quadratic_vi(4, 0.5, 2.0, seed=s) for s in (1, 2, 3)]
    p = gen_mixing_vi(base, 0.8)
    mix = p.payload
    rng = rng_stream(5, 0)
    Z = rng.normal(12)
    # worker blocks of the consensus term sum to zero
    np.testing.assert_allclose(mix.consensus(Z).reshape(3, 4).sum(axis=0), np.zeros(4), atol=1e-12)
    # equal blocks are consensus states and are annihilated (up to the
    # one-ulp rounding of averaging identical rows)
    v = rng.normal(4)
    np.testing.assert_allclose(mix.consensus(np.tile(v, 3)), np.zeros(12), atol=1e-12)
    np.testing.assert_allclose(mix.full(Z), mix.phi(Z) + mix.consensus(Z), atol=1e-15)
    np.testing.assert_array_equal(eval_component(p, np.array([0]), Z), [eval_full(p, Z)])
    # phi applies each worker operator to its own block, in one stacked
    # product with the bits of the per-worker calls; consensus subtracts the
    # blockwise mean with its bits
    for m in range(3):
        blk = slice(4 * m, 4 * (m + 1))
        assert mix.phi(Z)[blk].tobytes() == eval_full(base[m], Z[blk]).tobytes()
    blocks = Z.reshape(3, 4)
    assert mix.consensus(Z).tobytes() == (0.8 * (blocks - blocks.mean(axis=0))).ravel().tobytes()


def test_mixing_known_solution_only_for_identical_workers():
    same = gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0, seed=7) for _ in range(3)], 1.0)
    assert same.known_solution is not None
    assert np.linalg.norm(eval_full(same, same.known_solution)) <= 1e-8
    diff = gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0, seed=s) for s in (1, 2, 3)], 1.0)
    assert diff.known_solution is None


def test_mixing_argument_errors():
    base = [gen_quadratic_vi(4, 0.5, 2.0, seed=1)]
    with pytest.raises(ValueError):
        gen_mixing_vi(base, 0.0)
    with pytest.raises(ValueError):
        gen_mixing_vi([], 1.0)
    with pytest.raises(ValueError):
        gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0), gen_quadratic_vi(5, 0.5, 2.0)], 1.0)
    with pytest.raises(ValueError, match="worker 0 is not a quadratic operator: BilinearGame"):
        gen_mixing_vi([gen_policeman_burglar(2)], 1.0)
    mixing = gen_mixing_vi([gen_quadratic_vi(2, 0.5, 2.0)] * 2, 1.0)
    with pytest.raises(ValueError, match="worker 1 is not a quadratic operator: MixingVI"):
        gen_mixing_vi([gen_quadratic_vi(4, 0.5, 2.0), mixing], 1.0)


def test_eval_dimension_and_index_errors():
    p = gen_policeman_burglar(2, seed=0)
    with pytest.raises(ValueError):
        eval_full(p, np.zeros(3))
    for bad in ([2], [-1], [0, 2], [-1, 1]):
        with pytest.raises(IndexError):
            eval_component(p, np.array(bad), np.zeros(8))
    with pytest.raises(ValueError):
        eval_component(p, np.array([0, 1]), np.zeros(3))


@pytest.mark.parametrize(
    "kind, changes, message",
    [
        ("quad", {"d": 0}, "d must be a positive integer, got 0"),
        ("quad", {"d": 4.0}, "d must be an integer, got 4.0"),
        ("quad", {"M": 0}, "M must be a positive integer, got 0"),
        ("quad", {"M": True}, "M must be an integer, got True"),
        ("quad", {"L": -1.0}, "L must be finite and >= 0, got -1.0"),
        ("quad", {"L": np.nan}, "L must be finite and >= 0, got nan"),
        ("quad", {"L": np.inf}, "L must be finite and >= 0, got inf"),
        ("quad", {"mu_F": -0.1}, "mu_F must be finite and >= 0, got -0.1"),
        ("quad", {"mu_h": np.nan}, "mu_h must be finite and >= 0, got nan"),
        ("quad", {"L_m": np.array([2.0, 2.0])}, "L_m must have length M = 1, got shape"),
        ("game", {"L_m": np.ones(1)}, "L_m must have length M = 3, got shape"),
        ("quad", {"L_m": np.array([np.inf])}, "L_m entries must be finite and >= 0"),
        ("quad", {"L_m": np.array([-1.0])}, "L_m entries must be finite and >= 0"),
        ("game", {"L_m": np.array([1.0, np.nan, 2.0])}, "L_m entries must be finite and >= 0"),
        ("quad", {"known_solution": np.zeros(3)}, "known_solution must have length d = 4, got shape"),
        ("quad", {"prox": ProxSpec((2, 3))}, "prox.dim = 5 does not match d = 4"),
        ("game", {"d": 20}, "prox.dim = 18 does not match d = 20"),
        # unchecked, vr runs on a biased two-component sum of the three-component game
        ("game", {"M": 2, "L_m": np.ones(2)}, "M = 2 does not match the payload's 3 component ratios"),
        # unchecked, a draw of component 2 indexes past the quadratic's one ratio
        ("quad", {"M": 3, "L_m": np.ones(3)}, "M = 3 does not match the payload's 1 component ratios"),
    ],
)
def test_problem_checks_its_constants(kind, changes, message):
    p = gen_quadratic_vi(4, 0.5, 2.0, seed=0) if kind == "quad" else gen_policeman_burglar(3, seed=0)
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(p, **changes)


def mixing_of(d_base):
    return gen_mixing_vi([gen_quadratic_vi(d_base, 0.5, 2.0, seed=s) for s in (1, 2)], 1.0)


@pytest.mark.parametrize(
    "problem, payload, message",
    [
        (
            lambda: gen_quadratic_vi(5, 0.5, 2.0, seed=0),
            lambda: gen_quadratic_vi(4, 0.5, 2.0, seed=0).payload,
            "payload len(center) = 4 does not match d = 5",
        ),
        (
            lambda: gen_quadratic_vi(5, 0.5, 2.0, seed=0),
            lambda: QuadraticOperator(mat=np.eye(4), center=np.zeros(5)),
            "payload mat.shape = (4, 4) does not match d = 5",
        ),
        (
            lambda: gen_policeman_burglar(3, seed=0),
            lambda: gen_policeman_burglar(2, seed=0).payload,
            "payload 2*half = 8 does not match d = 18",
        ),
        (
            lambda: gen_policeman_burglar(3, seed=0),
            lambda: gen_policeman_burglar(23, seed=0).payload,
            "payload 2*half = 1058 does not match d = 18",
        ),
        (lambda: mixing_of(3), lambda: mixing_of(4).payload, "payload workers*d_base = 8 does not match d = 6"),
    ],
    ids=["quad-center", "quad-mat", "bilinear-game", "grid-game", "mixing"],
)
def test_problem_checks_its_payload_dimension(problem, payload, message):
    # unchecked, the mismatch would surface later inside an oracle, as a
    # numpy broadcast or matmul error that names no field
    p, wrong = problem(), payload()
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(p, payload=wrong)


def test_problem_constants_at_their_limits_are_legal():
    # L = 0 is the zero operator's constant; L_m and known_solution may be absent
    VIProblem(d=3, prox=FREE, M=2, payload=None, L=0.0, L_m=np.zeros(2), known_solution=np.zeros(3))
    VIProblem(d=3, prox=FREE, M=2, payload=None, L=0.0)


def test_initial_point_conventions():
    game = gen_policeman_burglar(3, seed=0)
    z0 = initial_point(game, 5)
    np.testing.assert_array_equal(z0, np.full(18, 1.0 / 9.0))
    uneven = VIProblem(d=5, prox=ProxSpec((2, 3)), M=1, payload=None, L=1.0)
    np.testing.assert_array_equal(initial_point(uneven, 5), [1.0 / 2.0] * 2 + [1.0 / 3.0] * 3)

    quad = gen_quadratic_vi(7, 0.5, 2.0, seed=0)
    z0 = initial_point(quad, 5)
    assert np.linalg.norm(z0 - quad.known_solution) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(z0, initial_point(quad, 5))
    assert np.any(z0 != initial_point(quad, 6))

    unsolved = gen_mixing_vi([gen_quadratic_vi(3, 0.5, 2.0, seed=s) for s in (1, 2)], 1.0)
    z0 = initial_point(unsolved, 5)
    assert np.linalg.norm(z0) == pytest.approx(1.0, abs=1e-12)


def test_initial_point_rejects_a_negative_seed():
    # on a simplex the start uses no stream, but the seed is still checked
    for p in (gen_quadratic_vi(4, 0.5, 2.0, seed=0), gen_policeman_burglar(3, seed=0)):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            initial_point(p, -1)


def test_initial_point_rejects_a_float_seed():
    # the seed would be truncated on free problems and ignored on simplices
    for p in (gen_quadratic_vi(4, 0.5, 2.0, seed=0), gen_policeman_burglar(2, seed=0)):
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            initial_point(p, 1.5)


def test_random_feasible_respects_prox():
    game = gen_policeman_burglar(2, seed=0)
    rng = rng_stream(8, 0)
    for _ in range(20):
        z = random_feasible(game, rng)
        assert abs(z[:4].sum() - 1.0) <= 1e-12
        assert abs(z[4:].sum() - 1.0) <= 1e-12
        assert z.min() >= 0.0
    quad = gen_quadratic_vi(5, 0.5, 2.0, seed=0)
    z = random_feasible(quad, rng)
    assert z.shape == (5,)
    assert np.all(np.isfinite(z))
