"""Dense vectors, deterministic random streams, and prox operators.

The constraint structures supported are free space (prox is the identity)
and products of probability simplices (prox is a blockwise Euclidean
projection, independent of the prox scale).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Iterates, operator values and estimates are plain 1-d float arrays.
Vector = np.ndarray


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
            _check_integers(**{f"blocks[{i}]": b for i, b in enumerate(self.blocks)})
            blocks = tuple(int(b) for b in self.blocks)
            if len(blocks) == 0 or any(b < 1 for b in blocks):
                raise ValueError("simplex block lengths must be positive integers")
            object.__setattr__(self, "blocks", blocks)

    @property
    def free(self) -> bool:
        return self.blocks is None

    @property
    def dim(self) -> int | None:
        """Total dimension, or None when the spec is free (any length fits)."""
        return None if self.blocks is None else int(sum(self.blocks))


FREE = ProxSpec()


@functools.cache
def _ranks(n: int) -> np.ndarray:
    """The rank vector 1, 2, ..., n, built once per length and never written."""
    return np.arange(1.0, n + 1.0)


def project_simplex(v: Vector) -> Vector:
    """Euclidean projection of ``v`` onto the unit probability simplex.

    Sort-based threshold rule: with u the entries sorted in decreasing
    order, the support is the largest j such that u_j > (u_1+...+u_j - 1)/j,
    and the projection clips every entry at that threshold.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty 1-d vector")
    n = v.size
    u = np.sort(v)[::-1]
    css = u.cumsum()
    css -= 1.0
    if not math.isfinite(css[-1]):
        raise ValueError("cannot project a vector whose entries are not finite or whose sum overflows")
    support = u * _ranks(n) > css
    rho = n - 1 - int(support[::-1].argmax())
    if not support[rho]:
        # |u_1| >= 2^53 rounds u_1 - 1 to u_1; the projection is shift invariant
        return project_simplex(v - u[0])
    out = v - css[rho] / (rho + 1.0)
    return np.maximum(out, 0.0, out=out)


def prox_eval(spec: ProxSpec, v: Vector) -> Vector:
    """prox_{gamma*h}(v) for the indicator-style h encoded by ``spec``; the
    same map for every gamma > 0, since h is an indicator.

    Free specs return v unchanged; simplex specs project blockwise.
    """
    v = np.asarray(v, dtype=float)
    if spec.free:
        return v.copy()
    if v.size != spec.dim:
        raise ValueError(f"vector length {v.size} does not match spec dimension {spec.dim}")
    out = np.empty_like(v)
    start = 0
    for b in spec.blocks:
        out[start : start + b] = project_simplex(v[start : start + b])
        start += b
    return out


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the same draw sequence on
    any platform; distinct stream_ids give independent streams.  All draws
    are derived from uniforms on [0, 1): integers by scaling, normals by
    the Box-Muller transform, so the whole artifact depends on a single
    generator contract.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        _check_integers(seed=seed, stream_id=stream_id)
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def uniform(self, size=None):
        """Uniform on [0, 1); scalar float when size is None."""
        if size is None:
            return float(self._gen.random())
        return self._gen.random(size)

    def integers(self, n: int, size=None):
        """size draws from {0, ..., n-1}, one uniform each; a plain int when size is None."""
        if n < 1:
            raise ValueError("need n >= 1")
        u = self._gen.random(size)
        if size is None:
            # min() guards the measure-zero u*n == n rounding edge
            return min(int(u * n), n - 1)
        return np.minimum((u * n).astype(np.int64), n - 1)

    def normal(self, size):
        """Standard normal draws of the given shape via Box-Muller on uniform pairs."""
        count = int(size) if isinstance(size, (int, np.integer)) else math.prod(size)
        half = (count + 1) // 2
        r = self._gen.random(half)
        theta = self._gen.random(half)
        # r = sqrt(-2 log(1 - u1)) and theta = 2 pi u2, each in its uniforms'
        # buffer; 1 - u1 lies in (0, 1], so the log never sees zero
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        # r cos(theta) in the first half, r sin(theta) in the second
        out = np.empty((2, half))
        np.cos(theta, out=out[0])
        np.sin(theta, out=out[1])
        out *= r
        return out.reshape(-1)[:count].reshape(size)

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
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= n")
        if rows is None:
            return np.argsort(self._gen.random(n), kind="stable")[:k]
        u = self._gen.random((rows, n))
        kept = np.sort(np.argpartition(u, k - 1, axis=-1)[:, :k], axis=-1)
        values = np.take_along_axis(u, kept, axis=-1)
        out = np.take_along_axis(kept, np.argsort(values, axis=-1, kind="stable"), axis=-1)
        tied = np.count_nonzero(u <= values.max(axis=-1, keepdims=True), axis=-1) > k
        if tied.any():
            out[tied] = np.argsort(u[tied], axis=-1, kind="stable")[:, :k]
        return out


def rng_stream(seed: int, stream_id: int = 0) -> RngStream:
    """Factory for RngStream; the (seed, stream_id) pair is the identity."""
    return RngStream(seed, stream_id)
