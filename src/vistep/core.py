"""Dense vectors, deterministic random streams, and prox operators.

The constraint structures supported are free space (prox is the identity)
and products of probability simplices (prox is a blockwise Euclidean
projection, independent of the prox scale).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Iterates, operator values and estimates are plain 1-d float arrays.
Vector = np.ndarray


# The longest simplex block that prox_eval projects as a row of one array
# when all blocks have its length; longer or unequal blocks are projected
# one at a time.  Set from a timing sweep of both paths (README, the
# prox_eval paragraph): past it, a row's Python tail scan can cost more
# than the per-block numpy calls it saves.
_ROW_BLOCK_MAX = 36

_BLOCK_VALUES = 2**16  # floats per block of rows (512 KB), so that a block stays in cache


def _block_rows(d: int) -> int:
    """Rows of length d per cache block: of atoms or of squared
    distances."""
    return max(1, _BLOCK_VALUES // d)


def _check_integers(**values) -> None:
    """Raise a ValueError naming the first value that is not a Python or
    numpy integer; float sizes and seeds would otherwise be truncated or
    fail deep inside numpy.  bool is an int subclass, but not a size."""
    for name, value in values.items():
        if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ProxSpec:
    """Constraint structure consumed by :func:`prox_eval`.

    ``blocks is None`` means unconstrained (h = 0).  Otherwise ``blocks``
    lists simplex lengths that partition the dimension exactly, and the
    prox projects each block onto the unit probability simplex.
    """

    blocks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.blocks is not None:
            blocks = tuple(self.blocks)
            _check_integers(**{f"blocks[{i}]": b for i, b in enumerate(blocks)})
            blocks = tuple(map(int, blocks))
            if len(blocks) == 0 or min(blocks) < 1:
                raise ValueError("simplex block lengths must be positive integers")
            object.__setattr__(self, "blocks", blocks)

    @property
    def free(self) -> bool:
        return self.blocks is None

    @functools.cached_property
    def dim(self) -> int | None:
        """Total dimension, or None when the spec is free (any length fits)."""
        return None if self.blocks is None else sum(self.blocks)

    @functools.cached_property
    def slices(self) -> tuple[slice, ...]:
        """Each block's slice of a vector, in order."""
        if self.blocks is None:
            return ()
        return tuple(slice(end - b, end) for b, end in zip(self.blocks, itertools.accumulate(self.blocks)))

    @functools.cached_property
    def rows(self) -> tuple[int, int] | None:
        """(number of blocks, b) when every block has one length b of at
        most ``_ROW_BLOCK_MAX``, so that :func:`prox_eval` projects the
        blocks as the rows of one array; else None."""
        if self.blocks is None:
            return None
        b = self.blocks[0]
        if b > _ROW_BLOCK_MAX or self.blocks.count(b) != len(self.blocks):
            return None
        return len(self.blocks), b


FREE = ProxSpec()


@functools.cache
def _ranks(n: int) -> np.ndarray:
    """The rank vector 1, 2, ..., n, built once per length and never written."""
    return np.arange(1.0, n + 1.0)


def project_simplex(v: Vector, out: Vector | None = None) -> Vector:
    """Euclidean projection of ``v`` onto the unit probability simplex,
    written into ``out`` (a new array when None); ``v`` is not written.

    Sort-based threshold rule: with u the entries sorted in decreasing
    order, the support is the largest j such that u_j > (u_1+...+u_j - 1)/j,
    and the projection clips every entry at that threshold.  The rule runs
    on w = -u, sorted in place in increasing order, so that every array it
    reads is contiguous: rounding is symmetric under negation, so
    t_j = w_1+...+w_j + 1 is -(u_1+...+u_j - 1) to the bit, the support
    test reads j*w_j < t_j and the shifted entries are v + t_rho/rho.
    When the last index passes it is rho, and the rule stops there with
    the same operations.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    n = v.size
    w = np.negative(v)
    w.sort()
    t = w.cumsum()
    last = float(t[-1]) + 1.0
    if not math.isfinite(last):
        raise ValueError("cannot project a vector whose entries are not finite or whose sum overflows")
    if n * float(w[-1]) < last:
        # the last index passes, so the support is the whole block
        out = np.add(v, last / n, out=out)
        return np.maximum(out, 0.0, out=out)
    t += 1.0
    # j*w_j in w's buffer: its first entry, the shift below, is w_1 itself
    w *= _ranks(n)
    support = (w < t).nonzero()[0]
    if not support.size:
        # |u_1| >= 2^53 rounds u_1 - 1 to u_1; the projection is shift invariant
        return project_simplex(v + w[0], out)
    rho = support[-1]
    out = np.add(v, t[rho] / (rho + 1.0), out=out)
    return np.maximum(out, 0.0, out=out)


def _project_rows(v: Vector, shape: tuple[int, int]) -> Vector | None:
    """project_simplex applied to each row of v reshaped to shape, with
    its bits, as one 1-d array; None when a row is not finite or needs
    the |u_1| >= 2^53 shift, which project_simplex handles.

    One negation and one row-wise sort for all rows; then, per row in
    Python floats, the same cumulative sums, the +1 after them and the
    support test j*w_j < t_j scanned from the end for the last passing j,
    and one broadcast shift by t_j/j and one clip for all rows.
    """
    w = np.negative(v).reshape(shape)
    w.sort()
    shifts = []
    for row in w.tolist():
        sums = list(itertools.accumulate(row))
        if not math.isfinite(sums[-1] + 1.0):
            return None
        j = len(row)
        for w_j, t_j in zip(reversed(row), reversed(sums)):
            t_j += 1.0
            if j * w_j < t_j:
                shifts.append(t_j / j)
                break
            j -= 1
        else:
            return None
    out = v.reshape(shape) + np.array(shifts)[:, None]
    return np.maximum(out, 0.0, out=out).reshape(-1)


def prox_eval(spec: ProxSpec, v: Vector) -> Vector:
    """prox_{gamma*h}(v) for the indicator-style h encoded by ``spec``; the
    same map for every gamma > 0, since h is an indicator.

    Free specs return a copy of v.  Simplex specs take a 1-d v of the
    spec's length and return a new array with each block projected by
    the sort rule of :func:`project_simplex`, with its bits.  Blocks of
    one length of at most ``_ROW_BLOCK_MAX`` are projected as the rows of
    one array (see ``_project_rows``); a row that is not finite or needs
    the |u_1| >= 2^53 shift, and any other spec, go block by block.
    """
    v = np.asarray(v, dtype=float)
    if spec.blocks is None:
        return v.copy()
    if v.ndim != 1:
        raise ValueError(f"a simplex spec projects a 1-d vector, got shape {v.shape}")
    if v.size != spec.dim:
        raise ValueError(f"vector length {v.size} does not match spec dimension {spec.dim}")
    if spec.rows is not None:
        out = _project_rows(v, spec.rows)
        if out is not None:
            return out
    out = np.empty(v.shape)
    for part in spec.slices:
        project_simplex(v[part], out[part])
    return out


_TAPE = 1024  # uniforms a stream draws ahead at most (8 KB); larger draws leave no tape
_TAPE_FIRST = 16  # a stream's first tape; each new tape draws twice as many, up to _TAPE
_NO_TAPE = np.empty(0)  # the empty tape every stream starts with; it holds nothing to write
_NO_NORMALS = (None, 0, 1, np.empty((0, 0)))  # RngStream._normals before any normal draw


def _dims(size) -> tuple[int, ...]:
    """The shape a draw of ``size`` fills: a nonnegative integer, or a
    tuple or list of them."""
    dims = tuple(size) if isinstance(size, (tuple, list)) else (size,)
    for n in dims:
        # type() is not int for bool and numpy integers; _check_integers sorts them
        if type(n) is not int:
            _check_integers(size=n)
            dims = tuple(map(int, dims))
        if n < 0:
            raise ValueError(f"size must be nonnegative, got {size!r}")
    return dims


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the same draw sequence on
    any platform; distinct stream_ids give independent streams.  All draws
    are derived from uniforms on [0, 1): integers by scaling, normals by
    the Box-Muller transform, so the whole artifact depends on a single
    generator contract.

    The uniforms are served from a tape that ``Generator.random`` draws
    ahead; a scalar draw reads one entry of it.  A draw the tape cannot
    serve gets one new array: the tape's unserved rest, then fresh
    values.  A draw of ``_TAPE`` or more is that array and leaves no tape;
    a smaller one draws at least ``_ahead`` fresh values (``_TAPE_FIRST``,
    doubling up to ``_TAPE``), and the array becomes the tape.  PCG64
    gives the same values in one block as one at a time, so every draw
    keeps the bits of a stream that draws on demand.  Normal draws are
    transformed in a block of the tape's calls (see :meth:`normal`).
    """

    def __init__(self, seed: int, stream_id: int = 0):
        _check_integers(seed=seed, stream_id=stream_id)
        seed, stream_id = int(seed), int(stream_id)
        if seed < 0 or stream_id < 0:
            name, value = ("seed", seed) if seed < 0 else ("stream_id", stream_id)
            raise ValueError(f"{name} must be nonnegative, got {value}")
        self.seed = seed
        self.stream_id = stream_id
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._tape = _NO_TAPE  # uniforms drawn ahead, in stream order
        self._ahead = _TAPE_FIRST  # fresh uniforms a new tape draws at least
        self._at = 0  # the tape's first unserved entry
        # normals of calls of one shape: (their tape, position of row 0, uniforms a row, one row a call)
        self._normals = _NO_NORMALS

    def _take(self, count: int) -> np.ndarray:
        """The next count uniforms, in order: a slice of the tape when it
        holds them, else the start of a new array that holds the tape's
        unserved rest, then fresh values.  Writing a served slice changes
        no later draw."""
        at = self._at
        rest = self._tape.size - at
        if count <= rest:
            self._at = at + count
            return self._tape[at : at + count]
        large = count >= _TAPE
        size = count if large else max(count, rest + self._ahead)
        if rest:
            u = np.empty(size)
            u[:rest] = self._tape[at:]
            self._gen.random(out=u[rest:])
        else:
            # a fresh stream's first draw, or one that used its tape up
            u = self._gen.random(size)
        self._ahead = min(2 * self._ahead, _TAPE)
        self._tape, self._at = (_NO_TAPE, 0) if large else (u, count)
        return u[:count]

    def uniform(self, size=None):
        """Uniform on [0, 1); scalar float when size is None."""
        if size is not None:
            dims = _dims(size)
            return self._take(math.prod(dims)).reshape(dims)
        at = self._at
        if at < self._tape.size:
            self._at = at + 1
            return float(self._tape[at])
        return float(self._take(1)[0])

    def integers(self, n: int, size=None):
        """size draws from {0, ..., n-1}, one uniform each; a plain int when
        size is None.  A uniform has 53 bits, so each value's probability is
        within a factor 1 + n/2**53 of 1/n; n is at most 2**32."""
        _check_integers(n=n)
        n = int(n)
        if not 1 <= n <= 2**32:
            raise ValueError(f"need 1 <= n <= 2**32, got n={n}")
        if size is None:
            # min() guards the measure-zero u*n == n rounding edge
            return min(int(self.uniform() * n), n - 1)
        return np.minimum((self.uniform(size) * n).astype(np.int64), n - 1)

    def normal(self, size):
        """Standard normal draws of the given shape via Box-Muller on uniform
        pairs: a call of count draws reads half = ceil(count/2) uniforms u1
        for the radii, then half u2 for the angles, and returns
        [r cos(theta) | r sin(theta)] cut to count.  The calls the tape
        holds are transformed together, each from its own uniforms.  A row
        is served only while the stream stands at its uniforms on the same
        tape, so the stream advances by the calls served, and any other
        draw leaves the rest unused."""
        dims = _dims(size)
        tape, start, width, rows = self._normals
        if tape is self._tape and rows.shape[1:] == dims:
            row, off = divmod(self._at - start, width)
            if off == 0 and row < len(rows):
                self._at += width
                return rows[row]
        count = math.prod(dims)
        width = 2 * ((count + 1) // 2)
        u = self._take(width)
        calls = (self._tape.size - self._at) // width + 1 if 0 < width < _TAPE else 1
        if calls == 1:
            # served whole (the tape holds no further call, or u is a new
            # array or empty), so it is transformed in place
            return _box_muller(u.reshape(1, 2, -1), count, dims)[0]
        start = self._at - width
        # a copy: the tape keeps the uniforms of calls not yet served
        u = self._tape[start : start + calls * width].reshape(calls, 2, -1).copy()
        self._normals = (self._tape, start, width, _box_muller(u, count, dims))
        return self._normals[3][0]

    def subsets(self, n: int, k: int, rows=None) -> np.ndarray:
        """rows independent k-subsets of {0..n-1}, one per row; one subset
        when rows is None.

        The positions of the k smallest of n fresh uniforms, in increasing
        order of (uniform, position): the first k entries of their stable
        argsort.  Every permutation is equally likely, hence every k-subset
        is.  A block of rows selects each row's k smallest by partial
        selection and sorts only those; the rare row whose k-th value ties
        with a value left out is argsorted whole, so every row holds the
        same indices in the same order as a single draw from its uniforms.
        """
        _check_integers(n=n, k=k)
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if rows is None:
            return np.argsort(self._take(n), kind="stable")[:k]
        _check_integers(rows=rows)
        if rows < 0:
            raise ValueError(f"rows must be nonnegative, got {rows}")
        u = self.uniform((rows, n))
        kept = np.sort(np.argpartition(u, k - 1, axis=-1)[:, :k], axis=-1)
        values = np.take_along_axis(u, kept, axis=-1)
        out = np.take_along_axis(kept, np.argsort(values, axis=-1, kind="stable"), axis=-1)
        tied = np.count_nonzero(u <= values.max(axis=-1, keepdims=True), axis=-1) > k
        if tied.any():
            out[tied] = np.argsort(u[tied], axis=-1, kind="stable")[:, :k]
        return out


def _box_muller(u: np.ndarray, count: int, dims: tuple[int, ...]) -> np.ndarray:
    """One array of count normals, shaped dims, per (2, half) row of the
    uniforms u, whose buffer it reuses: r = sqrt(-2 log(1 - u1)) in the
    first half and theta = 2 pi u2 in the second, then r cos(theta) and
    r sin(theta) in a new array.  1 - u1 lies in (0, 1], so the log never
    sees zero."""
    r, theta = u[:, 0], u[:, 1]
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    out = np.empty(u.shape)
    np.cos(theta, out=out[:, 0])
    np.sin(theta, out=out[:, 1])
    out *= r[:, None]
    return out.reshape(len(u), -1)[:, :count].reshape((len(u),) + dims)


def rng_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Factory for RngStream; the (seed, stream_id) pair is the identity."""
    return RngStream(seed, stream_id)
