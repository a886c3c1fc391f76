"""Translation-invariant kernels: lag sums, Gram matrices, tensor products
over block structures, and spectral (Fourier) sampling.

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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .data import BlockStructure

# frequency vectors per block of ``spectral_blocks``: a Monte Carlo integrand
# over them holds a few such blocks at once, not a few whole draws
SPECTRAL_BLOCK_ROWS = 8192


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
    """
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    ym = np.atleast_2d(np.asarray(y, dtype=float))
    if xm.shape[-1] != ym.shape[-1]:
        raise ValueError(f"column counts differ: {xm.shape[-1]} vs {ym.shape[-1]}")
    shape = (*xm.shape[:-1], ym.shape[-2])
    gaussian = KernelFamily(family) is KernelFamily.GAUSSIAN

    def lag_into(buf, q):
        np.subtract(xm[..., :, q, None], ym[..., None, :, q], out=buf)
        if gaussian:
            np.multiply(buf, buf, out=buf)
        else:
            np.abs(buf, out=buf)

    acc = np.empty(shape) if out is None else out
    lag_into(acc, 0)
    if xm.shape[-1] > 1:
        if scratch is None:
            scratch = np.empty(shape)
        for q in range(1, xm.shape[-1]):
            lag_into(scratch, q)
            acc += scratch
    return acc


def coordinate_major(points: np.ndarray) -> np.ndarray:
    """A copy of ``points`` of shape (..., n, d), returned as a view of the
    same shape whose n axis has unit stride: each coordinate's n values are
    contiguous, as ``lag_sum`` reads them.  The floats are those of
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

    Built from ``lag_sum`` (which takes the same ``out`` and ``scratch``), so
    k(x_i, x_i) is exactly 1 for finite x_i.  Each entry is the same float as
    in ``gram`` of its pair alone.
    """
    acc = lag_sum(spec.family, x, y, out, scratch)
    scale = -0.5 * spec.gamma if spec.family is KernelFamily.GAUSSIAN else -spec.gamma
    if scale < -1.0:
        # only a scale above 1 in size can take a finite lag to -inf, whose
        # exp is the exact limit 0; the guard costs a few percent of a
        # minimax run, so it is not entered otherwise
        with np.errstate(over="ignore"):
            acc *= scale
    else:
        acc *= scale
    np.exp(acc, out=acc)
    return acc


def gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gram matrix of shape (n, m) with entry (i, j) = k(x_i, y_j): the
    ``stacked_gram`` of one pair of point sets."""
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    ym = np.atleast_2d(np.asarray(y, dtype=float))
    if xm.ndim != 2 or ym.ndim != 2:
        raise ValueError(f"gram takes 2-D point sets, got shapes {xm.shape} and {ym.shape}")
    return stacked_gram(spec, xm, ym)


def spectral_blocks(spec: KernelSpec, dim: int, n: int, seed: int):
    """The rows of ``spectral_sample(spec, dim, n, seed)`` in order, as
    arrays of at most SPECTRAL_BLOCK_ROWS rows each.

    One generator draws every block where the previous one stopped, so the
    blocks hold the same bits as one draw of all n rows.  The arguments are
    checked at the call, before any block is drawn.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    n, dim, gen = int(n), int(dim), rng.stream(seed)
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


def spectral_sample(spec: KernelSpec, dim: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. frequency vectors from the kernel's spectral probability
    measure, shape (n, dim): the ``spectral_blocks`` joined together.

    Cosine averages exp(-i <x - y, w>) over these draws converge to the
    kernel value k(x, y) at the usual n^{-1/2} Monte Carlo rate.
    """
    blocks = spectral_blocks(spec, dim, n, seed)
    out = np.empty((int(n), int(dim)))
    for start, block in zip(range(0, int(n), SPECTRAL_BLOCK_ROWS), blocks):
        out[start : start + block.shape[0]] = block
    return out


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
