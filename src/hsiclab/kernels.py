"""Translation-invariant kernels: pointwise evaluation, Gram matrices, tensor
products over block structures, and spectral (Fourier) sampling.

Two families are supported, both normalized to 1 at zero lag:

* ``gaussian``: k(x, y) = exp(-gamma/2 * |x - y|_2^2), spectral measure
  N(0, gamma I).
* ``laplace``:  k(x, y) = exp(-gamma * |x - y|_1), spectral measure a product
  of independent Cauchy(scale=gamma) coordinates.

Both spectral measures have full support, so either family separates
probability measures and their products are valid independence kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import rng
from .data import BlockStructure, Dataset


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


def eval_kernel(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """k(x, y) for a single pair of points; depends only on x - y."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    delta = xv - yv
    if spec.family is KernelFamily.GAUSSIAN:
        return float(np.exp(-0.5 * spec.gamma * float(delta @ delta)))
    return float(np.exp(-spec.gamma * float(np.sum(np.abs(delta)))))


def lag_sum(family: KernelFamily, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lag matrix of shape (n, m): entry (i, j) is |x_i - y_j|_2^2 for the
    Gaussian family and |x_i - y_j|_1 for the Laplace family.

    Lags are accumulated coordinate by coordinate from explicit differences,
    so translated inputs produce (numerically) identical output and no
    (n, m, d) difference tensor is formed.
    """
    xm = np.atleast_2d(np.asarray(x, dtype=float))
    ym = np.atleast_2d(np.asarray(y, dtype=float))
    if xm.shape[1] != ym.shape[1]:
        raise ValueError(f"column counts differ: {xm.shape[1]} vs {ym.shape[1]}")
    shape = (xm.shape[0], ym.shape[0])
    gaussian = KernelFamily(family) is KernelFamily.GAUSSIAN

    def lag_into(buf, q):
        np.subtract(xm[:, q, None], ym[None, :, q], out=buf)
        if gaussian:
            np.multiply(buf, buf, out=buf)
        else:
            np.abs(buf, out=buf)

    acc = np.empty(shape)
    lag_into(acc, 0)
    if xm.shape[1] > 1:
        scratch = np.empty(shape)
        for q in range(1, xm.shape[1]):
            lag_into(scratch, q)
            acc += scratch
    return acc


def gram(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gram matrix of shape (n, m) with entry (i, j) = k(x_i, y_j).

    Built from ``lag_sum``, so k(x_i, x_i) is exactly 1 for finite x_i.
    """
    acc = lag_sum(spec.family, x, y)
    acc *= -0.5 * spec.gamma if spec.family is KernelFamily.GAUSSIAN else -spec.gamma
    np.exp(acc, out=acc)
    return acc


def product_gram(pk: ProductKernel, data: Dataset) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Per-block Gram matrices and their entrywise (Hadamard) product.

    The product equals the Gram matrix of the tensor kernel evaluated on the
    concatenated coordinates.
    """
    if data.block != pk.block:
        raise ValueError(
            f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}"
        )
    grams = tuple(
        gram(spec, data.block_values(m), data.block_values(m))
        for m, spec in enumerate(pk.specs)
    )
    prod = grams[0].copy()
    for g in grams[1:]:
        prod *= g
    return grams, prod


def spectral_sample(spec: KernelSpec, dim: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. frequency vectors from the kernel's spectral probability measure.

    Cosine averages exp(-i <x - y, w>) over these draws converge to
    eval_kernel(spec, x, y) at the usual n^{-1/2} Monte Carlo rate.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    gen = rng.stream(seed)
    if spec.family is KernelFamily.GAUSSIAN:
        return np.sqrt(spec.gamma) * gen.standard_normal((int(n), int(dim)))
    return spec.gamma * gen.standard_cauchy((int(n), int(dim)))
