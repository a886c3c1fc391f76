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
    result's shape); each one missing is allocated.
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


def spectral_sample(spec: KernelSpec, dim: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. frequency vectors from the kernel's spectral probability measure.

    Cosine averages exp(-i <x - y, w>) over these draws converge to the
    kernel value k(x, y) at the usual n^{-1/2} Monte Carlo rate.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    gen = rng.stream(seed)
    if spec.family is KernelFamily.GAUSSIAN:
        return np.sqrt(spec.gamma) * gen.standard_normal((int(n), int(dim)))
    return spec.gamma * gen.standard_cauchy((int(n), int(dim)))


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
