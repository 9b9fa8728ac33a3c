"""Problem instances: bilinear matrix games on simplices, strongly monotone
quadratic operators, and federated-mixing compositions.

Every payload exposes a full operator oracle, a single-coordinate oracle,
its dimension ``dim`` and the ratios that define its finite sum (component
m is F_m = ratios[m] * F).  A VIProblem wraps a payload with the constants
(L, mu) that the step size rules and the verification suite consume, and
reads d, M and the per-component L_m = ratios * L off the payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import FREE, ProxSpec, Vector, _check_integers, prox_eval, rng_stream


@dataclass
class VIProblem:
    """A variational inequality instance: find z* with
    <F(z*), z - z*> + h(z) - h(z*) >= 0 for all feasible z.

    ``payload`` carries the operator data (one of the classes below); the
    surrounding fields are the constants the solver and verifiers need.
    The dimension ``d``, the number of components ``M`` and their
    Lipschitz constants ``L_m`` are read off the payload, never passed:
    d = payload.dim, M = len(payload.ratios) and L_m = ratios * L, as
    F_m = ratios[m] * F.  ``meta`` records the generator and its
    parameters; ``vistep gen`` prints its ``kind``.
    """

    prox: ProxSpec
    payload: object
    L: float
    mu_F: float = 0.0
    mu_h: float = 0.0
    known_solution: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    d: int = field(init=False)
    M: int = field(init=False)
    L_m: np.ndarray = field(init=False)

    def __post_init__(self):
        """Read d, M and L_m off the payload and check the constants the
        step rules and verifiers take on trust, a hand-built or
        ``dataclasses.replace``d problem included; each error names its
        field.  L = 0 stays legal: the zero operator has it."""
        dim, ratios = getattr(self.payload, "dim", None), getattr(self.payload, "ratios", None)
        if dim is None or ratios is None:
            raise TypeError(f"a payload needs dim and ratios, {type(self.payload).__name__} lacks them")
        for name, value in (("L", self.L), ("mu_F", self.mu_F), ("mu_h", self.mu_h)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not isinstance(ratios, np.ndarray) or ratios.ndim != 1:
            raise ValueError(f"ratios must be a 1-d array, got {ratios!r}")
        if not (len(ratios) and 0 <= ratios.min() <= ratios.max() < np.inf):
            raise ValueError(f"ratios must be finite and >= 0, got {ratios!r}")
        # F is the mean of its components ratios[m] * F only if they average 1
        if abs(ratios.mean() - 1.0) > 1e-12:
            raise ValueError(f"ratios must average 1, got mean {float(ratios.mean())!r}")
        self.d, self.M, self.L_m = dim, len(ratios), ratios * self.L
        if self.known_solution is not None and np.shape(self.known_solution) != (self.d,):
            shape = np.shape(self.known_solution)
            raise ValueError(f"known_solution must have length d = {self.d}, got shape {shape}")
        if not self.prox.free and self.prox.dim != self.d:
            raise ValueError(f"prox.dim = {self.prox.dim} does not match d = {self.d}")


# the ratios of a payload published with a single component, F_0 = F
_ONE_RATIO = np.ones(1)
_ONE_RATIO.flags.writeable = False


class _GameOracles:
    """The oracles both forms of the matrix game share: z = (x, y) on a
    product of two simplices with F(x, y) = (A^T y, -A x) for the averaged
    matrix A = mean_k A^(k).

    Every component is a scalar multiple of A, A^(k) = ratios[k] * A, so a
    form stores A once and the M ``ratios``, never a component matrix or the
    (M, n^2, n^2) stack of them.  A form gives ``half`` (n^2), ``_apply``
    (z -> F(z)), the products ``_matvec`` (x -> A x) and ``_rmatvec``
    (y -> A^T y), and the rows and columns of A (``_row``, ``_column``).
    """

    def __post_init__(self):
        # a hand-built game may list its ratios; eval_component indexes them with an array
        self.ratios = np.asarray(self.ratios, dtype=float)

    @property
    def dim(self) -> int:
        return 2 * self.half

    def full(self, z: Vector) -> Vector:
        return self._apply(z)

    def coordinate(self, j: int, z: Vector) -> float:
        """F(z)[j] in O(d) work: column j of A against y for a coordinate
        of x, or row j - h of A against x for a coordinate of y."""
        h = self.half
        _check_coordinate(j, 2 * h)
        return float(self._column(j) @ z[h:]) if j < h else -float(self._row(j - h) @ z[:h])


@dataclass
class BilinearGame(_GameOracles):
    """Matrix game payload that holds A as a dense (n^2, n^2) matrix ``avg``;
    F(z) is two whole products with it."""

    avg: np.ndarray  # (n^2, n^2)
    ratios: np.ndarray  # (M,)

    @property
    def half(self) -> int:
        return self.avg.shape[0]

    def _apply(self, z: Vector) -> Vector:
        h = self.half
        return np.concatenate([self.avg.T @ z[h:], -(self.avg @ z[:h])])

    def _matvec(self, x: Vector) -> Vector:
        return self.avg @ x

    def _rmatvec(self, y: Vector) -> Vector:
        return self.avg.T @ y

    def _row(self, i: int) -> Vector:
        return self.avg[i]

    def _column(self, j: int) -> Vector:
        return self.avg[:, j]


@dataclass
class GridGame(_GameOracles):
    """Matrix game payload in grid form, A = diag(a) S, with S the symmetric
    block-Toeplitz kernel of the n x n grid: S's entry for two cells du rows
    and dv columns apart is table[n - 1 + du, n - 1 + dv].  O(n^2) numbers
    define A, and no (n^2, n^2) array is ever formed.

    S x is the 2-d convolution of the grid x with the table, so
    A^T y = S(a y) and A x = a (S x) are read off FFT products on an
    N x N torus, N >= 2n - 1.  ``spectrum`` is the FFT of the table
    wrapped on that torus, whose imaginary part is rounding (the table is
    even in both offsets), so only its real part is kept.  A real
    spectrum maps real grids to real grids, so F(z) convolves the complex
    grid a y + i x once and reads S(a y) off the real part and S x off
    the imaginary part; each half's rounding error is then bounded by the
    whole F(z), not by its own size.  A row of S is an n x n window of the
    table.
    """

    a: np.ndarray  # (n^2,)
    table: np.ndarray  # (2n - 1, 2n - 1)
    spectrum: np.ndarray  # (N, N), real
    ratios: np.ndarray  # (M,)

    @property
    def half(self) -> int:
        return self.a.size

    def _convolve(self, grid: np.ndarray) -> np.ndarray:
        """S applied to one n^2-vector, real or complex: one FFT pair on the
        torus, cropped back to n x n.  Only the n rows that hold the grid
        enter the first pass along rows, and only the n rows the crop keeps
        leave the last one.  A real grid takes the real transform along its
        rows and the spectrum's first N // 2 + 1 columns."""
        n = math.isqrt(self.half)
        N = self.spectrum.shape[0]
        if np.iscomplexobj(grid):
            rows, unrows, spectrum = np.fft.fft, np.fft.ifft, self.spectrum
        else:
            rows, unrows, spectrum = np.fft.rfft, np.fft.irfft, self.spectrum[:, : N // 2 + 1]
        waves = np.fft.fft(rows(grid.reshape(n, n), n=N), n=N, axis=0)
        waves *= spectrum
        return unrows(np.fft.ifft(waves, axis=0)[:n], n=N)[:, :n].ravel()

    def _apply(self, z: Vector) -> Vector:
        """(A^T y, -A x): S(a y) and S x from the one complex grid a y + i x."""
        h = self.half
        both = self._convolve(self.a * z[h:] + 1j * z[:h])
        return np.concatenate([both.real, -self.a * both.imag])

    def _matvec(self, x: Vector) -> Vector:
        return self.a * self._convolve(x)

    def _rmatvec(self, y: Vector) -> Vector:
        return self._convolve(self.a * y)

    def _kernel_row(self, i: int) -> Vector:
        """Row i of S, which is also column i: S is symmetric."""
        n = math.isqrt(self.half)
        r, c = divmod(i, n)
        return self.table[n - 1 - r : 2 * n - 1 - r, n - 1 - c : 2 * n - 1 - c].ravel()

    def _row(self, i: int) -> Vector:
        return self.a[i] * self._kernel_row(i)

    def _column(self, j: int) -> Vector:
        return self.a * self._kernel_row(j)


def _check_coordinate(j: int, d: int) -> None:
    """Raise an IndexError naming j and d unless 0 <= j < d: a negative
    index would otherwise wrap to another coordinate's oracle."""
    if not 0 <= j < d:
        raise IndexError(f"coordinate {j} out of range for d={d}")


def duality_gap_bilinear(game: BilinearGame | GridGame, z: Vector, fz: Vector | None = None) -> float:
    """max_i (A x)_i - min_j (A^T y)_j for the averaged matrix A: the sum
    of both players' best-response improvements, zero exactly at saddles.

    Read off F(z) = (A^T y, -A x), which is formed unless given as ``fz``."""
    if fz is None:
        fz = game.full(z)
    h = game.half
    return float(-np.min(fz[h:]) - np.min(fz[:h]))


@dataclass
class QuadraticOperator:
    """Affine payload F(z) = mat @ (z - center) with known solution center."""

    mat: np.ndarray
    center: np.ndarray
    ratios = _ONE_RATIO

    def __post_init__(self):
        if self.mat.shape != (self.dim, self.dim):
            raise ValueError(f"mat.shape = {self.mat.shape} does not match (dim, dim) = {(self.dim, self.dim)}")

    @property
    def dim(self) -> int:
        return len(self.center)

    def full(self, z: Vector) -> Vector:
        return self.mat @ (z - self.center)

    def coordinate(self, j: int, z: Vector) -> float:
        """F(z)[j], from one row of mat."""
        _check_coordinate(j, self.dim)
        return self.mat[j] @ (z - self.center)


@dataclass
class MixingVI:
    """Federated-mixing payload over the stacked variable Z in R^{workers*d}:
    F(Z) = Phi(Z) + lam * (Z - Z_avg), where Phi stacks the per-worker
    operators and Z_avg repeats the blockwise average.

    The two pieces are exposed separately (phi / consensus) because the
    local estimator samples between them; as a finite sum the problem is
    published with a single component (the split is not an average).
    Every worker is quadratic, so Phi is one stacked product with the
    workers' matrices ``mats`` and centres ``centers``; ``d_base`` is
    their common dimension.
    """

    base: tuple
    lam: float
    mats: np.ndarray = field(init=False, repr=False)  # (workers, d_base, d_base)
    centers: np.ndarray = field(init=False, repr=False)  # (workers, d_base)
    d_base: int = field(init=False)
    ratios = _ONE_RATIO

    def __post_init__(self):
        self.mats = np.stack([p.payload.mat for p in self.base])
        self.centers = np.stack([p.payload.center for p in self.base])
        self.d_base = self.mats.shape[1]

    @property
    def workers(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return self.workers * self.d_base

    @property
    def l_phi(self) -> float:
        return max(p.L for p in self.base)

    def _blocks(self, Z: Vector) -> np.ndarray:
        return Z.reshape(self.workers, self.d_base)

    def phi(self, Z: Vector) -> Vector:
        """Each worker's operator applied to its own block of Z."""
        return np.matmul(self.mats, (self._blocks(Z) - self.centers)[:, :, None]).ravel()

    def consensus(self, Z: Vector) -> Vector:
        blocks = self._blocks(Z)
        return (self.lam * (blocks - np.add.reduce(blocks, axis=0) / self.workers)).ravel()

    def full(self, Z: Vector) -> Vector:
        return self.phi(Z) + self.consensus(Z)

    def coordinate(self, j: int, Z: Vector) -> float:
        """F(Z)[j]: the owning worker's coordinate plus the consensus term,
        which reads the same coordinate of every worker."""
        _check_coordinate(j, self.dim)
        m, i = divmod(j, self.d_base)
        own = self.base[m].payload.coordinate(i, Z[m * self.d_base : (m + 1) * self.d_base])
        return own + self.lam * (Z[j] - Z[i :: self.d_base].mean())


def wealth_base(n: int) -> Vector:
    """Pyramid wealth profile on the flattened n x n grid:
    w_i = 1 - (2/n) * min{|floor(i/n) - n/2|, |i mod n - n/2|}."""
    if n < 1:
        raise ValueError("need n >= 1")
    i = np.arange(n * n)
    row = i // n
    col = i % n
    half = n / 2.0
    return 1.0 - (2.0 / n) * np.minimum(np.abs(row - half), np.abs(col - half))


# a game whose matrix would hold more floats (2 MB, n >= 23) is kept in grid
# form: its FFT product beats two dense products from there on
_KERNEL_MIN_VALUES = 2**18


def _fft_size(m: int) -> int:
    """The smallest integer >= m with no prime factor above 5."""
    while True:
        rest = m
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def gen_policeman_burglar(n: int, theta: float = 0.6, sigma_w: float = 3.0, seed: int = 0) -> VIProblem:
    """Bilinear matrix game on Delta(n^2) x Delta(n^2).

    Component matrices A^(k)_{ij} = w_i^(k) * (1 - exp(-theta*d(i,j))) with
    wealth w^(k) = w * (1 + xi^(k)), one scalar xi^(k) ~ U(0, sigma_w) per
    component.  The play is min over x, max over y of (1/n) sum_k y^T A^(k) x,
    so the monotone operator is F(x, y) = (A^T y, -A x) for the averaged A.
    """
    _check_integers(n=n, seed=seed)
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 < theta < np.inf:
        raise ValueError(f"need a finite theta > 0, got {theta!r}")
    if not 0 <= sigma_w < np.inf:
        raise ValueError(f"need a finite sigma_w >= 0, got {sigma_w!r}")
    rng = rng_stream(seed, 0)
    # 1 - exp(-theta * d(i, j)) depends only on the cells' row and column
    # offsets, so it is read off an n x n table of offset pairs
    offsets = np.arange(n)
    table = 1.0 - np.exp(-theta * np.sqrt(offsets[:, None] ** 2 + offsets[None, :] ** 2))
    scales = 1.0 + sigma_w * np.atleast_1d(rng.uniform(n))
    # A^(k)_ij = scales[k] * w_i * S_ij: their mean A takes mean(scales)
    # in place of scales[k], and A^(k) = (scales[k] / mean(scales)) * A
    mean = scales.mean()
    wealth = mean * wealth_base(n)
    ratios = scales / mean
    if n**4 > _KERNEL_MIN_VALUES:
        # S's weights by signed offsets, and the same weights wrapped on an
        # N x N torus, zero at offsets of n or more; they are even in both
        # offsets, so their FFT is real up to rounding
        apart = np.abs(np.arange(1 - n, n))
        signed = table[apart[:, None], apart]
        N = _fft_size(2 * n - 1)
        torus = np.zeros((N, N))
        torus[: 2 * n - 1, : 2 * n - 1] = signed
        spectrum = np.fft.fft2(np.roll(torus, 1 - n, axis=(0, 1))).real.copy()
        payload = GridGame(a=wealth, table=signed, spectrum=spectrum, ratios=ratios)
    else:
        apart = np.abs(offsets[:, None] - offsets[None, :])
        S = table[apart[:, None, :, None], apart[None, :, None, :]].reshape(n * n, n * n)
        payload = BilinearGame(avg=wealth[:, None] * S, ratios=ratios)
    return VIProblem(
        prox=ProxSpec((n * n, n * n)),
        payload=payload,
        L=_spectral_norm(payload, tol=1e-12),
        meta={"kind": "pvb", "n": n, "theta": theta, "sigma_w": sigma_w, "seed": seed},
    )


def _brentq(f, xpre: float, xcur: float, fpre: float, fcur: float, xtol: float, rtol: float) -> float:
    """A root of f between xpre and xcur, where f(xpre) = fpre and
    f(xcur) = fcur differ in sign: Brent's method (Brent 1973) as a
    line-for-line port of scipy's ``brentq.c``, which returns the same bits
    as ``scipy.optimize.brentq(f, xpre, xcur, xtol=xtol, rtol=rtol)``.

    Both end values are passed in because the caller already knows them,
    and each evaluation of f here costs a symmetric eigenvalue solve.
    """
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError("Brent's method did not converge in 100 iterations")


def gen_quadratic_vi(d: int, mu: float, L: float, seed: int = 0) -> VIProblem:
    """Strongly monotone affine instance F(z) = M(z - z*) on free space.

    M = mu*I + alpha*(S + P) with S random skew-symmetric and P symmetric
    PSD, alpha calibrated so the spectral norm of M equals L exactly; the
    symmetric part is mu*I + alpha*P >= mu*I, so the strong monotonicity
    constant is mu by construction.
    """
    _check_integers(d=d, seed=seed)
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0 < mu <= L < np.inf:
        raise ValueError(f"need 0 < mu <= L < inf, got mu = {mu!r}, L = {L!r}")
    rng = rng_stream(seed, 0)
    R = rng.normal((d, d))
    S = (R - R.T) / 2.0
    B = rng.normal((d, d))
    P = (B @ B.T) / d
    z_star = rng.normal(d)

    eye = np.eye(d)
    if L == mu:
        mat = mu * eye
    else:
        N = S + P
        # solved in units of L, alpha = beta * L: ||mu I + alpha N||_2 / L is
        # ||m I + beta N||_2 with m = mu / L, the square root of the top
        # eigenvalue of its Gram matrix m^2 I + beta m (N + N^T) + beta^2 N^T N,
        # whose entries stay O(1) for every finite L
        m = mu / L
        sym = N + N.T
        gram = N.T @ N

        def excess(beta):
            top = np.linalg.eigvalsh(beta * beta * gram + beta * m * sym + m * m * eye)[-1]
            return math.sqrt(top) - 1.0

        hi = 1.0
        while (excess_hi := excess(hi)) < 0:
            hi *= 2.0
        # excess(0) is exactly m - 1: m^2 I's top eigenvalue is m * m, whose root is m
        alpha = L * _brentq(excess, 0.0, hi, m - 1.0, excess_hi, xtol=1e-13, rtol=8.9e-16)
        mat = mu * eye + alpha * N

    payload = QuadraticOperator(mat=mat, center=z_star)
    return VIProblem(
        prox=FREE,
        payload=payload,
        L=L,
        mu_F=mu,
        known_solution=z_star.copy(),
        meta={"kind": "quadratic", "d": d, "mu": mu, "L": L, "seed": seed},
    )


def gen_mixing_vi(base: list[VIProblem], lam: float) -> VIProblem:
    """Stack M worker problems and couple them through lam * (Z - Z_avg).

    All base problems must be quadratic and share one dimension.  The full
    operator is Phi(Z) + lam*(Z - Z_avg); its pieces keep Lipschitz
    constants max_m L_m and lam respectively.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"need a finite lam > 0, got {lam!r}")
    if not base:
        raise ValueError("need at least one base problem")
    d_base = base[0].d
    for m, p in enumerate(base):
        if not isinstance(p.payload, QuadraticOperator):
            raise ValueError(f"worker {m} is not a quadratic operator: {type(p.payload).__name__}")
        if p.d != d_base:
            raise ValueError("base problems must share one dimension")
        if not p.prox.free:
            raise ValueError("base problems must have a free prox")
    payload = MixingVI(base=tuple(base), lam=lam)
    known = None
    if all(p.known_solution is not None for p in base):
        stacked = np.concatenate([p.known_solution for p in base])
        if np.linalg.norm(payload.full(stacked)) <= 1e-8:
            known = stacked
    return VIProblem(
        prox=FREE,
        payload=payload,
        L=payload.l_phi + lam,
        mu_F=min(p.mu_F for p in base),
        known_solution=known,
        meta={"kind": "mixing", "workers": payload.workers, "d": d_base, "lambda": lam},
    )


def eval_full(p: VIProblem, z: Vector) -> Vector:
    """Exact F(z).  Pure: no cost counters live here."""
    z = np.asarray(z, dtype=float)
    if z.size != p.d:
        raise ValueError(f"vector length {z.size} does not match problem dimension {p.d}")
    return p.payload.full(z)


def eval_component(p: VIProblem, m: np.ndarray, z: Vector) -> np.ndarray:
    """Exact F_m(z) for each index of the integer array m, 0-based: one row
    ratios[m] * F(z) per index, all from one F(z).  The component average
    reproduces eval_full."""
    if not isinstance(m, np.ndarray) or m.size == 0 or m.dtype.kind not in "iu":
        raise ValueError(f"m: component indices must be a nonempty integer array, got {m!r}")
    if not (0 <= m.min() and m.max() < p.M):
        raise IndexError(f"component {m} out of range for M={p.M}")
    return p.payload.ratios[m][:, None] * eval_full(p, z)


def _spectral_norm(game: BilinearGame | GridGame, tol: float) -> float:
    """Largest singular value of the game's matrix A via power iteration on
    A^T A through the game's own products, with a fixed internal seed,
    stopped when the estimate moves by at most tol relatively."""
    rng = rng_stream(0x5EED, 7)
    q = rng.normal(game.half)
    q /= np.linalg.norm(q)
    val = 0.0
    for it in range(20000):
        aq = game._matvec(q)
        new = float(np.linalg.norm(aq))
        if new == 0.0:
            return 0.0
        bq = game._rmatvec(aq)
        nb = float(np.linalg.norm(bq))
        if nb == 0.0:
            return new
        q = bq / nb
        if it >= 4 and abs(new - val) <= tol * max(new, 1e-300):
            return new
        val = new
    return val


def initial_point(p: VIProblem, seed: int) -> Vector:
    """Canonical z^0: simplex block centers for constrained problems,
    known solution (or origin) plus a unit-norm seeded offset otherwise."""
    _check_integers(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if p.prox.free:
        center = p.known_solution if p.known_solution is not None else np.zeros(p.d)
        e = rng_stream(seed, 2).normal(p.d)
        return center + e / np.linalg.norm(e)
    # the projection of 0 onto a length-b simplex is exactly 1/b everywhere
    return prox_eval(p.prox, np.zeros(p.d))


def random_feasible(p: VIProblem, rng) -> Vector:
    """A generic feasible point: a projected standard normal draw."""
    return prox_eval(p.prox, rng.normal(p.d))
