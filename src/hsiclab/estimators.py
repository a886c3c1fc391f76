"""Sample-based HSIC and MMD estimators.

* ``block_stats``: the sums the V and U forms share, in one tiled pass.
* ``hsic_v``: biased V-statistic for any number of blocks (for two blocks it
  equals trace(K H L H)/n^2 with H the centering matrix).
* ``hsic_u``: unbiased U-statistic, two blocks only.
* ``hsic_nystrom``: Frobenius norm of the empirical centered cross-covariance
  in landmark feature coordinates; estimates HSIC itself, not HSIC^2.
* ``mmd_v``: biased plug-in MMD^2 between two samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from .data import Dataset
from .kernels import KernelSpec, ProductKernel, gram

# Rows per Gram tile in ``block_stats``.  A (64, n) float64 tile is 2 MiB at
# n = 4096, so the tiles of two blocks fit a 4 MiB per-core L2 cache; up to
# n = 256 a tile is at most 128 KiB and is reused by the allocator instead of
# being faulted in on every call.  32 and 128 rows measured slower.
TILE_ROWS = 64


@dataclass(frozen=True, eq=False)
class BlockStats:
    """Sufficient statistics of the V and U forms for one dataset:
    ``total`` = sum_ij prod_m K_m[i,j] and ``rows[m]`` = K_m 1, shape (M, n).

    Every Gram diagonal is exactly 1 (zero lag), so nothing else is needed.
    """

    total: float
    rows: np.ndarray

    def v_statistic(self) -> float:
        """Biased V-statistic of HSIC^2 (see ``hsic_v``)."""
        m, n = self.rows.shape
        term1 = self.total / (n * n)
        term2 = float(np.prod(self.rows.sum(axis=1))) / n ** (2 * m)
        term3 = float(reduce(np.multiply, self.rows[:-1]) @ self.rows[-1]) / n ** (m + 1)
        return term1 + term2 - 2.0 * term3

    def u_statistic(self) -> float:
        """Unbiased U-statistic of HSIC^2 for exactly two blocks and n >= 4
        (see ``hsic_u``)."""
        k_rows, l_rows = self.rows
        n = k_rows.shape[0]
        # zeroed-diagonal quantities expressed through the plain Gram sums
        t1 = self.total - n
        sk = k_rows - 1.0
        sl = l_rows - 1.0
        t2 = float(sk.sum()) * float(sl.sum()) / ((n - 1) * (n - 2))
        t3 = 2.0 * float(sk @ sl) / (n - 2)
        return (t1 + t2 - t3) / (n * (n - 3))


def block_stats(pk: ProductKernel, data: Dataset) -> BlockStats:
    """Fused pass over upper-triangle row tiles of the symmetric block Grams.

    Tile i holds rows [i0, i1) against columns [i0, n) of every block Gram;
    its off-diagonal columns also stand in for the mirrored lower-triangle
    entries.  Memory is O(n * TILE_ROWS) instead of O(n^2).
    """
    if data.block != pk.block:
        raise ValueError(
            f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}"
        )
    n = data.n
    blocks = [data.block_values(m) for m in range(pk.block.m)]
    rows = np.zeros((pk.block.m, n))
    partials = []
    for i0 in range(0, n, TILE_ROWS):
        i1 = min(i0 + TILE_ROWS, n)
        tiles = [gram(spec, x[i0:i1], x[i0:]) for spec, x in zip(pk.specs, blocks)]
        head = reduce(np.multiply, tiles[:-1])
        tile_sum = float(np.dot(head.ravel(), tiles[-1].ravel()))
        rows[:, i0:i1] += [tile.sum(axis=1) for tile in tiles]
        if i1 < n:
            t = i1 - i0
            diag_sum = float(np.sum(head[:, :t] * tiles[-1][:, :t]))
            tile_sum = 2.0 * tile_sum - diag_sum
            rows[:, i1:] += [tile[:, t:].sum(axis=0) for tile in tiles]
        partials.append(tile_sum)
        # free this tile before the next is built, so the allocator reuses
        # its pages instead of faulting in fresh ones
        del tiles, head
    return BlockStats(math.fsum(partials), rows)


def hsic_v(pk: ProductKernel, data: Dataset) -> float:
    """Biased V-statistic estimate of HSIC^2 over M >= 2 blocks:

        mean_ij prod_m K_m[i,j] + prod_m mean_ij K_m[i,j]
            - 2 mean_i prod_m mean_j K_m[i,j]

    Always nonnegative up to round-off.
    """
    pk.block.require_multiblock()
    if data.n < 2:
        raise ValueError(f"V-statistic needs at least 2 samples, got {data.n}")
    return block_stats(pk, data).v_statistic()


def hsic_u(pk: ProductKernel, data: Dataset) -> float:
    """Unbiased U-statistic estimate of HSIC^2 for exactly two blocks:

        [tr(K~ L~) + (1'K~1)(1'L~1)/((n-1)(n-2)) - 2 1'K~L~1/(n-2)] / (n(n-3))

    with K~, L~ the per-block Grams with zeroed diagonals.  May be negative;
    its expectation equals the population HSIC^2.
    """
    if pk.block.m != 2:
        raise ValueError(f"U-statistic requires exactly 2 blocks, got {pk.block.m}")
    if data.n < 4:
        raise ValueError(f"U-statistic requires n >= 4, got {data.n}")
    return block_stats(pk, data).u_statistic()


def _inv_sqrt_psd(w: np.ndarray) -> np.ndarray:
    # landmark Grams can be nearly singular; floor the spectrum before inverting
    vals, vecs = np.linalg.eigh(w)
    floor = 1e-10 * float(vals[-1])
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.T


def nystrom_cross_cov(
    pk: ProductKernel, data: Dataset, landmark_points: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Centered cross-covariance of Nystrom features built on explicit
    per-block landmark points (arrays of shape (l_m, d_m)), shape (l_0, l_1).

    Features are phi_m(x) = W_m^{-1/2} k_m(landmarks_m, x) with W_m the
    landmark Gram.  Sharing landmark points across datasets puts their
    estimates in a common coordinate system.
    """
    if pk.block.m != 2:
        raise ValueError(f"cross-covariance features require exactly 2 blocks, got {pk.block.m}")
    phis = []
    for m in range(2):
        lm = np.atleast_2d(np.asarray(landmark_points[m], dtype=float))
        if lm.shape[1] != pk.block.dims[m]:
            raise ValueError(
                f"landmarks for block {m} have {lm.shape[1]} columns, expected {pk.block.dims[m]}"
            )
        w = gram(pk.specs[m], lm, lm)
        phis.append(gram(pk.specs[m], data.block_values(m), lm) @ _inv_sqrt_psd(w))
    phi0, phi1 = phis
    return phi0.T @ phi1 / data.n - np.outer(phi0.mean(axis=0), phi1.mean(axis=0))


def hsic_nystrom(
    pk: ProductKernel, data: Dataset, landmarks: int, seed: int
) -> float:
    """Nystrom estimate of HSIC (not HSIC^2) for exactly two blocks.

    Selects ``landmarks`` rows uniformly without replacement per block, builds
    the landmark features, and returns the Frobenius norm of the empirical
    centered cross-covariance.  With landmarks = n the estimate equals
    sqrt(max(0, hsic_v)).
    """
    if pk.block.m != 2:
        raise ValueError(f"Nystrom estimator requires exactly 2 blocks, got {pk.block.m}")
    landmarks = int(landmarks)
    if landmarks < 2:
        raise ValueError(f"need at least 2 landmarks, got {landmarks}")
    if landmarks > data.n:
        raise ValueError(f"cannot select {landmarks} landmarks from {data.n} rows")
    points = tuple(
        data.block_values(m)[rng.stream(seed, "landmarks", m).choice(data.n, size=landmarks, replace=False)]
        for m in range(2)
    )
    return float(np.linalg.norm(nystrom_cross_cov(pk, data, points)))


def mmd_v(spec: KernelSpec, x: Dataset, y: Dataset) -> float:
    """Biased plug-in MMD^2 between two samples under one kernel:

        mean k(X, X) + mean k(Y, Y) - 2 mean k(X, Y), floored at 0.
    """
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} vs {y.d}")
    kxx = float(gram(spec, x.values, x.values).mean())
    kyy = float(gram(spec, y.values, y.values).mean())
    kxy = float(gram(spec, x.values, y.values).mean())
    return max(0.0, kxx + kyy - 2.0 * kxy)
