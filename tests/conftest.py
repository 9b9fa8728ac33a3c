"""Shared brute-force oracles for the test suite: the simplex projection
by support enumeration and by the plain sort rule, a random stream that
draws every call's uniforms on demand, the scalar grid distance behind
the game's matrices, the game's dense matrix and a power iteration on it,
the quadratic's calibration by SVDs, and two restricted merit values that
cross-check problems.duality_gap_bilinear.  Also two zero-operator
problems that declare the constants a constants table reads."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from vistep import FREE, BilinearGame, GridGame, QuadraticOperator, VIProblem, eval_full, gen_mixing_vi, rng_stream
from vistep.estimators import half_outcomes


def simplex_projection_oracle(v):
    """Projection onto the unit simplex by trying every support set.

    For each candidate support the equality-constrained minimizer shifts
    the supported entries by a common theta; the projection is the
    feasible candidate closest to v.  Exponential in the dimension, so
    only for small vectors.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    best = None
    best_dist = np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            idx = list(support)
            theta = (v[idx].sum() - 1.0) / r
            x = np.zeros(d)
            x[idx] = v[idx] - theta
            if x[idx].min() < 0.0:
                continue
            dist = float(np.sum((x - v) ** 2))
            if dist < best_dist:
                best_dist = dist
                best = x
    return best


def sort_rule_projection(v):
    """Projection onto the unit simplex by the sort rule written plainly:
    u sorted in decreasing order, the support the largest j with
    u_j > (u_1+...+u_j - 1)/j, every entry shifted by that threshold and
    clipped at zero; the bits core.project_simplex must keep."""
    v = np.asarray(v, dtype=float)
    n = v.size
    u = np.sort(v)[::-1]
    css = u.cumsum() - 1.0
    support = u * np.arange(1.0, n + 1.0) > css
    rho = n - 1 - int(support[::-1].argmax())
    if not support[rho]:
        # |u_1| >= 2^53 rounds u_1 - 1 to u_1; the projection is shift invariant
        return sort_rule_projection(v - u[0])
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


class OnDemandStream:
    """RngStream's draws with each call's uniforms drawn from the same
    generator when it is made: the bits a tape-served stream must keep."""

    def __init__(self, seed: int, stream_id: int = 0):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None):
        return float(self._gen.random()) if size is None else self._gen.random(size)

    def integers(self, n: int, size=None):
        u = self._gen.random(size)
        if size is None:
            return min(int(u * n), n - 1)
        return np.minimum((u * n).astype(np.int64), n - 1)

    def normal(self, size):
        count = int(np.prod(size))
        half = (count + 1) // 2
        r = np.sqrt(-2.0 * np.log1p(-self._gen.random(half)))
        theta = 2.0 * np.pi * self._gen.random(half)
        return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:count].reshape(size)

    def subsets(self, n: int, k: int, rows=None):
        if rows is None:
            return np.argsort(self._gen.random(n), kind="stable")[:k]
        return np.argsort(self._gen.random((rows, n)), axis=-1, kind="stable")[:, :k]


def declared(L: float, d: int = 2, ratios=(1.0,)) -> VIProblem:
    """The zero operator on free R^d (d even) declaring the Lipschitz
    constant L, as a finite sum of M = len(ratios) components: a constants
    table reads only L, d, M and L_m = ratios * L off it."""
    game = BilinearGame(avg=np.zeros((d // 2, d // 2)), ratios=np.asarray(ratios, dtype=float))
    return VIProblem(prox=FREE, payload=game, L=L)


def declared_mixing(l_phi: float, lam: float) -> VIProblem:
    """One zero worker declaring the Lipschitz constant l_phi, coupled
    with consensus strength lam: the local strategy's table reads only
    l_phi and lam off it."""
    worker = VIProblem(prox=FREE, payload=QuadraticOperator(mat=np.zeros((1, 1)), center=np.zeros(1)), L=l_phi)
    return gen_mixing_vi([worker], lam)


def all_atoms(kind, p, z_half, snap):
    """The exact outcome set (half_outcomes with no draws) with its blocks
    of value rows joined into one array."""
    probs, blocks = half_outcomes(kind, p, z_half, snap, 0, None)
    return probs, np.concatenate(list(blocks))


def cell_distance(i: int, j: int, n: int) -> float:
    """Euclidean distance between cells i and j of the flattened n x n grid."""
    if not (0 <= i < n * n and 0 <= j < n * n):
        raise IndexError(f"cell index out of range for side {n}")
    return math.hypot(i // n - j // n, i % n - j % n)


def dense_game_matrix(game) -> np.ndarray:
    """The game's matrix A as one (n^2, n^2) array: ``avg`` itself, or, for
    a game in grid form, diag(a) S with S's entry for cells (r, c) and
    (r', c') read off the table at offsets (r' - r, c' - c)."""
    if isinstance(game, BilinearGame):
        return game.avg
    n = game.table.shape[0] // 2 + 1
    cells = np.arange(n)
    offset = n - 1 + cells[None, :] - cells[:, None]
    return game.a[:, None] * game.table[offset[:, None, :, None], offset[None, :, None, :]].reshape(n * n, n * n)


def matrix_spectral_norm(mat: np.ndarray, tol: float) -> float:
    """Largest singular value of mat via power iteration on mat^T mat, with
    the generator's seed and stopping rule: the reference the game's L must
    equal bit for bit on a dense game."""
    rng = rng_stream(0x5EED, 7)
    q = rng.normal(mat.shape[1])
    q /= np.linalg.norm(q)
    val = 0.0
    for it in range(20000):
        aq = mat @ q
        new = float(np.linalg.norm(aq))
        if new == 0.0:
            return 0.0
        bq = mat.T @ aq
        nb = float(np.linalg.norm(bq))
        if nb == 0.0:
            return new
        q = bq / nb
        if it >= 4 and abs(new - val) <= tol * max(new, 1e-300):
            return new
        val = new
    return val


def svd_calibrated_alpha(d: int, mu: float, L: float, seed: int) -> tuple[float, np.ndarray]:
    """The quadratic's alpha by the earlier rule, with N = S + P drawn as
    gen_quadratic_vi draws it: Brent's method on ||mu I + alpha N||_2 - L,
    one SVD per evaluation, bracketed by doubling alpha from 1.  Returns
    alpha and N."""
    rng = rng_stream(seed, 0)
    R = rng.normal((d, d))
    B = rng.normal((d, d))
    N = (R - R.T) / 2.0 + (B @ B.T) / d
    eye = np.eye(d)

    def excess(a):
        return np.linalg.norm(mu * eye + a * N, 2) - L

    hi = 1.0
    while excess(hi) < 0:
        hi *= 2.0
    return brentq(excess, 0.0, hi, xtol=1e-13, rtol=8.9e-16), N


@dataclass(frozen=True)
class GapReport:
    """Restricted merit value max_u <F(u), z - u> with the maximizing u."""

    value: float
    maximizer: np.ndarray
    n_candidates: int


def _simplex_vertices(blocks) -> list[np.ndarray]:
    """Every vertex of the simplex product: one unit vector per block."""
    return [np.concatenate(units) for units in itertools.product(*(np.eye(b) for b in blocks))]


def restricted_gap_bruteforce(p: VIProblem, z) -> GapReport:
    """max_u <F(u), z - u> over the feasible set by vertex enumeration.

    Valid because <F(u), z - u> is linear in u for a bilinear skew
    operator, so the maximum sits at a vertex of the simplex product.
    """
    if not isinstance(p.payload, (BilinearGame, GridGame)):
        raise TypeError("brute-force gap needs a bilinear payload")
    if p.prox.free:
        raise ValueError("brute-force gap needs a bounded feasible set")
    best = -math.inf
    best_u = None
    verts = _simplex_vertices(p.prox.blocks)
    for u in verts:
        val = float(np.dot(eval_full(p, u), z - u))
        if val > best:
            best = val
            best_u = u
    return GapReport(value=best, maximizer=best_u, n_candidates=len(verts))


def restricted_gap_ball(p: VIProblem, z, radius: float, center=None) -> GapReport:
    """max_u <F(u), z - u> over the ball |u - center| <= radius, for affine
    F(u) = mat (u - z0): a concave quadratic, solved through the eigenbasis
    of the symmetric part (interior stationary point, else the boundary
    multiplier from a scalar root find)."""
    mat = getattr(p.payload, "mat", None)
    if mat is None:
        raise TypeError("ball gap needs an affine operator with its matrix")
    if not radius > 0:
        raise ValueError("need radius > 0")
    c = np.zeros(p.d) if center is None else np.asarray(center, dtype=float)
    S = (mat + mat.T) / 2.0
    # q(c + v) = q(c) + g.v - v.S v  with  g = grad q at c
    g = mat.T @ (z - c) - eval_full(p, c)
    lam_s, Q = np.linalg.eigh(S)
    gh = Q.T @ g

    def vnorm_sq(lam: float) -> float:
        return float(np.sum((gh / (2.0 * lam_s + 2.0 * lam)) ** 2))

    interior = np.all(lam_s > 0) and vnorm_sq(0.0) <= radius * radius
    if np.all(gh == 0.0):
        v = np.zeros(p.d)
    elif interior:
        v = Q @ (gh / (2.0 * lam_s))
    else:
        hi = float(np.linalg.norm(g)) / (2.0 * radius)
        lo = max(0.0, -float(lam_s.min())) + 1e-300
        if vnorm_sq(lo) <= radius * radius:
            v = Q @ (gh / (2.0 * lam_s + 2.0 * lo))
        else:
            while vnorm_sq(hi) > radius * radius:
                hi *= 2.0
            lam = brentq(lambda t: vnorm_sq(t) - radius * radius, lo, max(hi, lo * 2), xtol=1e-14, rtol=8.9e-16)
            v = Q @ (gh / (2.0 * lam_s + 2.0 * lam))
    u = c + v
    return GapReport(value=float(np.dot(eval_full(p, u), z - u)), maximizer=u, n_candidates=0)
