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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng
from .data import Dataset
from .kernels import KernelSpec, ProductKernel, gram

# ``block_stats`` cuts the upper triangle of the block Grams into row tiles
# and deals tile i to lane i % LANES.  Each lane sums its tiles in order into
# its own accumulators and the lanes are added in lane order, so the result
# depends on the data and n only, never on the number of threads or their
# timing.  The tile height is a function of n alone, and the tiles in flight
# hold TILE_ROWS * n floats per block at any n:
#
# * below THREAD_MIN_N, TILE_ROWS-row tiles, with the lanes run one after the
#   other in the calling thread.  Up to n = TILE_ROWS the whole triangle is
#   one tile.  Per-tile Python overhead dominates there: on one thread
#   32-row tiles took 1.2-1.6x the time of 64-row ones at n = 64-256.
# * from THREAD_MIN_N on, LANE_TILE_ROWS-row tiles, with lane 1 on a thread
#   of its own for the call when more than one CPU is usable (numpy releases
#   the GIL in the tile arithmetic); on one CPU that thread cost 10-30%.  Two
#   half-height tiles make one TILE_ROWS tile set, whatever the CPU count;
#   16-row tiles were 1.3-1.6x slower, and 2 lanes 2-6% faster than 8.
#
# Below THREAD_MIN_N the GIL hand-offs between short numpy calls eat what a
# second core gives back: on 2 cores the two-thread 32-row lanes took 1.44 /
# 1.04 / 1.01 / 0.83 / 0.80x the time of the inline 64-row lanes at n = 1024
# / 1536 / 1792 / 2048 / 2560 for blocks (1,1), and 1.32 / 0.99 / 0.92 /
# 0.91 / 0.80x for (2,1) (medians of 12 alternating runs).
TILE_ROWS = 64
LANE_TILE_ROWS = 32
LANES = TILE_ROWS // LANE_TILE_ROWS
THREAD_MIN_N = 2048


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
    entries.  Memory is O(n * TILE_ROWS) instead of O(n^2).  The tiles run
    in LANES fixed lanes (see TILE_ROWS), from THREAD_MIN_N rows on in two
    threads if the process may use more than one CPU, with the same result
    for any CPU count.  No thread outlives the call.

    The tile buffers (a row per thread) and the per-lane accumulators are
    allocated here, so the helper thread allocates nothing of tile size.  Tile
    sums are taken with ``einsum`` rather than BLAS ``dot``, whose own
    threads would make them depend on the CPU count; unlike a multiply and
    a sum, it reads each tile once.
    """
    pk.block.require_multiblock()
    if data.block != pk.block:
        raise ValueError(
            f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}"
        )
    m, n = pk.block.m, data.n
    blocks = [data.block_values(k) for k in range(m)]
    height = LANE_TILE_ROWS if n >= THREAD_MIN_N else TILE_ROWS
    threaded = n >= THREAD_MIN_N and _usable_cpus() > 1
    # a lane with no tile would add only zeros, so it is not run
    lanes = min(LANES, -(-n // height))
    # blocks with d > 1 go first and take the tile of the next block as lag
    # scratch; only when every block has d > 1 does the last need a spare
    order = sorted(range(m), key=lambda k: blocks[k].shape[1] == 1)
    extra = int(blocks[order[-1]].shape[1] > 1)
    spares = order[1:] + [m if extra else None]
    buffers = np.empty((LANES if threaded else 1, m + extra, height * n))
    # a list: reduce below would iterate an array, which costs ~1.5 us
    lane_rows = [np.zeros((m, n)) for _ in range(lanes)]

    def lane(j: int) -> list[float]:
        buf = buffers[j] if threaded else buffers[0]
        rows = lane_rows[j]
        partials = []
        for i0 in range(j * height, n, LANES * height):
            i1 = min(i0 + height, n)
            t, width = i1 - i0, n - i0
            tiles = buf[:, : t * width].reshape(-1, t, width)
            for k, spare in zip(order, spares):
                x = blocks[k]
                scratch = None if spare is None else tiles[spare]
                gram(pk.specs[k], x[i0:i1], x[i0:], out=tiles[k], scratch=scratch)
            grams = tiles[:m]
            rows[:, i0:i1] += grams.sum(axis=2)
            if i1 < n:
                rows[:, i1:] += grams[:, :, t:].sum(axis=1)
            # the product of all tiles but the last, in place in the first
            head, last = grams[0], grams[-1]
            for k in range(1, m - 1):
                np.multiply(head, grams[k], out=head)
            tile_sum = float(np.einsum("ij,ij->", head, last))
            if i1 < n:
                tile_sum = 2.0 * tile_sum - float(np.einsum("ij,ij->", head[:, :t], last[:, :t]))
            partials.append(tile_sum)
        return partials

    if threaded:
        with ThreadPoolExecutor(1, thread_name_prefix="hsiclab-lane") as helper:
            second = helper.submit(lane, 1)
            partials = lane(0) + second.result()
    else:
        partials = [p for j in range(lanes) for p in lane(j)]
    return BlockStats(math.fsum(partials), reduce(np.add, lane_rows))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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
