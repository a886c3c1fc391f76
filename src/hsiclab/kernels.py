"""Translation-invariant kernels: lag sums and Gram matrices, whole or tile
by tile (``LagTiles``), tensor products over block structures, and spectral
(Fourier) sampling.

Two families are supported, both normalized to 1 at zero lag:

* ``gaussian``: k(x, y) = exp(-gamma/2 * |x - y|_2^2), spectral measure
  N(0, gamma I).
* ``laplace``:  k(x, y) = exp(-gamma * |x - y|_1), spectral measure a product
  of independent Cauchy(scale=gamma) coordinates.

Both spectral measures have full support, so either family separates
probability measures and their products are valid independence kernels.
"""

from __future__ import annotations

import math
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .data import BlockStructure, whole

# frequency vectors per block of ``spectral_blocks``: a Monte Carlo integrand
# over them holds a few such blocks at once, not a few whole draws
SPECTRAL_BLOCK_ROWS = 8192

# numpy 2.4 runs a broadcast subtraction with rows under about 3000 floats
# through its 8192-element ufunc buffer: 0.57-0.77 ns per element for rows of
# 128-2048 floats on a 2-vCPU Xeon, 0.15-0.33 ns under a buffer no larger than
# a row.  So ``row_scope`` runs the lag loop of ``LagTiles`` for rows of
# UNBUFFERED_MIN_WIDTH or more floats under one ROW_BUFSIZE buffer (a size
# numpy 1.x accepts too), then restores the caller's size; unbuffered, widths
# 8-32 took 1.1-2.7x the time.  The squares and the running sum in the loop
# act on contiguous arrays, which numpy never buffers.  Sums of rows of 64
# to 1024 floats took up to 1.9x the time under the buffer, so callers keep
# those outside the scope.
# The subtraction's three operands share the default buffer, so numpy never
# buffers a row of NEVER_BUFFERED_WIDTH = ceil(8192 / 3) floats or more: from
# there the scope only costs, 1.06-1.2x the time at widths 2731-8192 on 32- and
# 64-row tiles, where width 2730 took 0.26x.
UNBUFFERED_MIN_WIDTH = 64
NEVER_BUFFERED_WIDTH = 2731
ROW_BUFSIZE = 16


class KernelFamily(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"


@dataclass(frozen=True)
class KernelSpec:
    """One translation-invariant kernel: a family tag plus bandwidth gamma > 0."""

    family: KernelFamily
    gamma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", KernelFamily(self.family))
        gamma = float(self.gamma)
        if not gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        object.__setattr__(self, "gamma", gamma)


@dataclass(frozen=True)
class ProductKernel:
    """Per-block kernels whose product acts on concatenated coordinates."""

    block: BlockStructure
    specs: tuple[KernelSpec, ...]

    def __post_init__(self) -> None:
        specs = tuple(self.specs)
        if len(specs) != self.block.m:
            raise ValueError(f"expected {self.block.m} kernel specs, got {len(specs)}")
        object.__setattr__(self, "specs", specs)

    @classmethod
    def homogeneous(cls, block: BlockStructure, family: KernelFamily, gamma: float) -> "ProductKernel":
        """Same family and bandwidth on every block."""
        return cls(block, tuple(KernelSpec(family, gamma) for _ in block.dims))


class LagTiles:
    """The lags of the point sets x and y (as ``lag_sum``), or with
    ``gamma`` their Gram matrix under the family's kernel (as
    ``stacked_gram``), tile by tile.  The inputs are checked and each
    coordinate's views cut once, here, with the family's term, the kernel's
    scale and whether it needs ``row_scope``'s overflow guard; a tile then
    takes only slicing and ufunc calls, and holds the same floats as that
    block of the whole matrix."""

    def __init__(self, family: KernelFamily, x, y, gamma: float | None = None) -> None:
        xm = np.atleast_2d(np.asarray(x, dtype=float))
        ym = np.atleast_2d(np.asarray(y, dtype=float))
        if xm.shape[-1] != ym.shape[-1]:
            raise ValueError(f"column counts differ: {xm.shape[-1]} vs {ym.shape[-1]}")
        gaussian = KernelFamily(family) is KernelFamily.GAUSSIAN
        self.shape = (*xm.shape[:-1], ym.shape[-2])
        # each coordinate's term of the lag, from its difference
        self.term = np.square if gaussian else np.abs
        self.columns = [xm[..., q, None] for q in range(xm.shape[-1])]
        self.rows = [ym[..., None, :, q] for q in range(ym.shape[-1])]
        self.scale = None if gamma is None else (-0.5 if gaussian else -1.0) * gamma
        # only a scale above 1 in size can take a finite lag to -inf, whose
        # exp is the exact limit 0; the guard costs a few percent of a
        # minimax run, so it is not entered otherwise
        self.guard = self.scale is not None and self.scale < -1.0

    def __call__(self, i0: int, i1: int, j0: int, out: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
        """Rows [i0, i1) of x against rows [j0, m) of y into ``out``, of
        shape (..., i1 - i0, m - j0); ``scratch``, of the same shape, holds
        the second and later coordinates.  Run under ``row_scope``."""
        for q, (column, row) in enumerate(zip(self.columns, self.rows)):
            buf = scratch if q else out
            np.subtract(column[..., i0:i1, :], row[..., j0:], out=buf)
            self.term(buf, out=buf)
            if q:
                np.add(out, buf, out=out)
        if self.scale is not None:
            np.multiply(out, self.scale, out=out)
            np.exp(out, out=out)
        return out

    def whole(self, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """The whole matrix as one tile, into ``out`` and ``scratch`` where
        given (float64 of the result's shape) and into new arrays where not."""
        out = np.empty(self.shape) if out is None else out
        if scratch is None and len(self.columns) > 1:
            scratch = np.empty(self.shape)
        with row_scope(self.shape[-1], self.shape[-1], self.guard):
            return self(0, self.shape[-2], 0, out, scratch)


@contextmanager
def row_scope(narrowest: int, widest: int, guard: bool = False):
    """The numpy settings to compute ``LagTiles`` tiles whose rows hold
    ``narrowest`` to ``widest`` floats under: one ROW_BUFSIZE buffer where
    some of those widths lie in [UNBUFFERED_MIN_WIDTH, NEVER_BUFFERED_WIDTH),
    and with ``guard`` overflow ignored; the caller's buffer size is
    restored on leaving.  Neither setting changes a bit of a tile."""
    unbuffered = widest >= UNBUFFERED_MIN_WIDTH and narrowest < NEVER_BUFFERED_WIDTH
    caller_size = np.setbufsize(ROW_BUFSIZE) if unbuffered else None
    try:
        with np.errstate(over="ignore") if guard else nullcontext():
            yield
    finally:
        if caller_size is not None:
            np.setbufsize(caller_size)


def lag_sum(
    family: KernelFamily,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Lag matrix of shape (n, m): entry (i, j) is |x_i - y_j|_2^2 for the
    Gaussian family and |x_i - y_j|_1 for the Laplace family.  A leading
    axis stacks point sets: x of shape (R, n, d) and y of shape (R, m, d)
    give the R lag matrices (R, n, m) of the pairs (x[r], y[r]).

    Lags are accumulated coordinate by coordinate from explicit differences,
    so translated inputs produce (numerically) identical output and no
    (n, m, d) difference tensor is formed.  ``out`` receives the result and
    ``scratch`` holds the second and later coordinates (both float64 of the
    result's shape); each one missing is allocated.  The result is the same
    floats for any memory layout of x and y; given y as a
    ``coordinate_major`` view, each subtraction reads y along unit stride.
    The ``LagTiles`` of x and y as one tile.
    """
    return LagTiles(family, x, y).whole(out, scratch)


def coordinate_major(points: np.ndarray) -> np.ndarray:
    """A copy of ``points`` of shape (..., n, d), returned as a view of the
    same shape whose n axis has unit stride: each coordinate's n values are
    contiguous, as ``LagTiles`` reads them.  The floats are those of
    ``points``; the copy costs O(n d)."""
    return np.ascontiguousarray(np.swapaxes(points, -1, -2)).swapaxes(-1, -2)


def stacked_gram(
    spec: KernelSpec,
    x: np.ndarray,
    y: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Gram matrices of stacked point sets: x of shape (R, n, d) and y of
    shape (R, m, d) give shape (R, n, m) with entry (r, i, j) = k(x[r, i],
    y[r, j]).

    The exp of the scaled ``lag_sum`` (which takes the same ``out`` and
    ``scratch``), so k(x_i, x_i) is exactly 1 for finite x_i.  Each entry is
    the same float as in ``gram`` of its pair alone.  The ``LagTiles`` of x
    and y under ``spec`` as one tile.
    """
    return LagTiles(spec.family, x, y, spec.gamma).whole(out, scratch)


def gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gram matrix of shape (n, m) with entry (i, j) = k(x_i, y_j): the
    ``stacked_gram`` of one pair of point sets."""
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    ym = np.atleast_2d(np.asarray(y, dtype=float))
    if xm.ndim != 2 or ym.ndim != 2:
        raise ValueError(f"gram takes 2-D point sets, got shapes {xm.shape} and {ym.shape}")
    return stacked_gram(spec, xm, ym)


def spectral_blocks(spec: KernelSpec, dim: int, n: int, seed: int):
    """n i.i.d. frequency vectors of ``dim`` coordinates from the kernel's
    spectral probability measure, in order, as arrays of at most
    SPECTRAL_BLOCK_ROWS rows each.  Cosine averages exp(-i <x - y, w>) over
    them converge to the kernel value k(x, y) at the usual n^{-1/2} Monte
    Carlo rate.

    One generator draws every block where the previous one stopped, so the
    blocks hold the same bits as one draw of all n rows.  The arguments are
    checked at the call, before any block is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    n, dim, gen = whole(n, "n"), whole(dim, "dim"), rng.stream(seed)
    if spec.family is KernelFamily.GAUSSIAN:
        scale, draw = np.sqrt(spec.gamma), gen.standard_normal
    else:
        scale, draw = spec.gamma, gen.standard_cauchy

    def blocks():
        for start in range(0, n, SPECTRAL_BLOCK_ROWS):
            block = draw((min(SPECTRAL_BLOCK_ROWS, n - start), dim))
            # past gamma of about 1e306 a Laplace draw's scaling overflows to
            # its exact limit +-inf; the part-(ii) weight exp(-|w|^2) sends
            # such a frequency to 0
            with np.errstate(over="ignore"):
                block *= scale
            yield block

    return blocks()


def spectral_exp_sq_mean(spec: KernelSpec) -> float:
    """E[exp(-w^2)] over one coordinate w of the kernel's spectral measure:
    (1 + 2 gamma)^(-1/2) for N(0, gamma) and e^(gamma^2) erfc(gamma) for
    Cauchy(scale=gamma).  Finite and accurate at every finite gamma."""
    gamma = spec.gamma
    if spec.family is KernelFamily.GAUSSIAN:
        # as sqrt(1/2) / sqrt(1/2 + gamma), since 1 + 2 gamma overflows
        return math.sqrt(0.5) / math.sqrt(0.5 + gamma)
    if gamma < 3.0:
        return math.exp(gamma * gamma) * math.erfc(gamma)
    # from gamma = 3 on e^(gamma^2) loses digits (and overflows past 26), so
    # take Laplace's continued fraction 1/(sqrt(pi) (g + (1/2)/(g + 1/(g +
    # (3/2)/(g + ...))))); 40 terms reach rounding at gamma = 3
    t = gamma
    for k in range(40, 0, -1):
        t = gamma + 0.5 * k / t
    return 1.0 / math.sqrt(math.pi) / t
