"""Sample-based HSIC and MMD estimators.

* ``block_stats``: the sums the V and U forms share, in one tiled pass;
  ``block_stats_batch`` runs that pass over a (R, n, d) stack of datasets.
* ``hsic_v``: biased V-statistic for any number of blocks (for two blocks it
  equals trace(K H L H)/n^2 with H the centering matrix).
* ``hsic_u``: unbiased U-statistic, two blocks only.
* ``hsic_nystrom``: Frobenius norm of the empirical centered cross-covariance
  in landmark feature coordinates; estimates HSIC itself, not HSIC^2.
  ``hsic_nystrom_batch`` does the same for many equal-n datasets at once, on
  the landmark rows ``landmark_picks`` draws.
* ``require_v``, ``require_u``, ``require_nystrom``: the rules each
  estimator puts on its input, checked where the estimators run.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from itertools import tee

import numpy as np

from . import rng
from .data import Dataset
from .kernels import ProductKernel, coordinate_major, stacked_gram

# ``block_stats`` cuts the upper triangle of the block Grams into row tiles
# and deals tile i to lane i % LANES.  Each lane sums its tiles in order into
# its own accumulators and the lanes are added in lane order, so the result
# depends on the data and n only, never on the number of threads or their
# timing.  The tile height is a function of n alone, and the tiles in flight
# hold TILE_ROWS * n floats per block and dataset at any n:
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
#
# At small n a tile is tiny and the pass is all per-call overhead, so
# ``block_stats_batch`` stacks ``stack_size(n)`` datasets along a leading axis
# and runs the same loop on (R, t, n) tiles; below n = 1024 that is more than
# one dataset, so the lanes never see a stack.  The V and U forms then run
# once per stack as well.  Each stack reads a coordinate-major copy of each
# block's points, so the lag subtractions run on unit stride: on a 2-vCPU
# Xeon one coordinate of a 32 x 4096 tile took 24 us instead of 57.  The
# Nystrom step holds smaller arrays and stacks ``stack_size(n, landmarks)``
# datasets of its own.
TILE_ROWS = 64
LANE_TILE_ROWS = 32
LANES = TILE_ROWS // LANE_TILE_ROWS
THREAD_MIN_N = 2048
# n x l arrays the Nystrom step holds per block and dataset at its peak: the
# other block's features, and this block's lags, their scratch and features
NYSTROM_ARRAYS = 4


def stack_size(n: int, landmarks: int | None = None) -> int:
    """How many datasets of n rows share one stacked step: as many as keep
    the step's arrays for one block within 2^16 floats (512 KB), and at least
    one.  A pass of the tile loop (``landmarks`` None) holds a
    min(n, TILE_ROWS) x n tile per dataset: 1024 datasets at n = 8, 4 at
    n = 256, 2 at n = 512 and 1 from n = 1024 on, so the lanes at
    n >= THREAD_MIN_N see one dataset.  A Nystrom step with l landmarks holds
    about NYSTROM_ARRAYS n x l arrays per dataset, so one of them stays within
    2^14 floats: 16 datasets at n = 256 and l = 4."""
    width = min(n, TILE_ROWS) if landmarks is None else NYSTROM_ARRAYS * landmarks
    return max(1, 2**16 // (width * n))


def require_v(n: int) -> None:
    """The V-statistic's rule: n >= 2 rows (any M >= 2 blocks)."""
    if n < 2:
        raise ValueError(f"V-statistic requires n ≥ 2, got {n}")


def require_u(m: int, n: int) -> None:
    """The U-statistic's rules: exactly 2 blocks and n >= 4 rows."""
    if m != 2:
        raise ValueError(f"U-statistic requires exactly 2 blocks, got {m}")
    if n < 4:
        raise ValueError(f"U-statistic requires n ≥ 4, got {n}")


def require_nystrom(m: int, n: int, landmarks: int) -> None:
    """The Nystrom estimator's rules: exactly 2 blocks and 2 <= landmarks <= n."""
    if m != 2:
        raise ValueError(f"Nystrom estimator requires exactly 2 blocks, got {m}")
    if landmarks < 2:
        raise ValueError(f"need at least 2 landmarks, got {landmarks}")
    if landmarks > n:
        raise ValueError(f"cannot select {landmarks} landmarks from {n} rows")


@dataclass(frozen=True, eq=False)
class BlockStats:
    """Sufficient statistics of the V and U forms for a stack of R datasets
    of n rows: ``total[r]`` = sum_ij prod_m K_m[i,j] of dataset r, shape
    (R,), and ``rows[r, m]`` = K_m 1, shape (R, M, n).  Without the leading
    axis they are those of one dataset, and the statistics are scalars.

    Every Gram diagonal is exactly 1 (zero lag), so nothing else is needed.
    Each statistic is taken once for the whole stack, and each dataset's
    entry is the same bits as the dataset alone gives.
    """

    total: np.ndarray
    rows: np.ndarray

    def v_statistic(self) -> np.ndarray:
        """Biased V-statistic of HSIC^2 for n >= 2 (see ``hsic_v``)."""
        *_, m, n = self.rows.shape
        require_v(n)
        term1 = self.total / (n * n)
        term2 = np.prod(self.rows.sum(axis=-1), axis=-1) / float(n ** (2 * m))
        term3 = _row_dot(np.prod(self.rows[..., :-1, :], axis=-2), self.rows[..., -1, :]) / float(n ** (m + 1))
        return term1 + term2 - 2.0 * term3

    def u_statistic(self) -> np.ndarray:
        """Unbiased U-statistic of HSIC^2 for exactly two blocks and n >= 4
        (see ``hsic_u``)."""
        *_, m, n = self.rows.shape
        require_u(m, n)
        # zeroed-diagonal quantities expressed through the plain Gram sums
        t1 = self.total - n
        sk = self.rows[..., 0, :] - 1.0
        sl = self.rows[..., 1, :] - 1.0
        t2 = sk.sum(axis=-1) * sl.sum(axis=-1) / ((n - 1) * (n - 2))
        t3 = 2.0 * _row_dot(sk, sl) / (n - 2)
        return (t1 + t2 - t3) / (n * (n - 3))


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] b[..., i] as one pairwise sum along each row: the same
    bits for a row alone, in a stack and under any BLAS thread count, where
    BLAS ``dot`` (behind ``@`` and ``np.linalg.norm``) splits rows of more
    than 10000 terms over its threads."""
    return (a * b).sum(axis=-1)


def block_stats(pk: ProductKernel, data: Dataset) -> BlockStats:
    """The sufficient statistics of one dataset: ``block_stats_batch`` of a
    stack of one, without the stack axis."""
    stats = block_stats_batch(pk, _stack_of_one(pk, data))
    return BlockStats(stats.total[0], stats.rows[0])


def block_stats_batch(pk: ProductKernel, values) -> BlockStats:
    """Sufficient statistics of the stack ``values`` of shape (R, n, d),
    whose columns are the kernel's blocks, from one pass of the tile loop
    per ``stack_size(n)`` datasets.  Each dataset's entries are the same
    bits as the dataset alone would give, for any memory layout of
    ``values``."""
    values = _require_stack(pk, values)
    size = stack_size(values.shape[1])
    parts = [_tile_pass(pk, values[r : r + size]) for r in range(0, len(values), size)]
    return BlockStats(np.concatenate([p.total for p in parts]), np.concatenate([p.rows for p in parts]))


def _stack_of_one(pk: ProductKernel, data: Dataset) -> np.ndarray:
    """The rows of one dataset as a stack of one, after checking that its
    blocks are the kernel's."""
    pk.block.require_multiblock()
    if data.block != pk.block:
        raise ValueError(f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}")
    return data.values[None]


def _require_stack(pk: ProductKernel, values) -> np.ndarray:
    """``values`` as a float (R, n, d) stack of datasets, after checking that
    it holds at least one dataset of at least one row, with the kernel's d."""
    pk.block.require_multiblock()
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"need a stack of datasets of shape (R, n, d), got shape {values.shape}")
    if 0 in values.shape[:2]:
        raise ValueError(f"need at least one dataset of at least one row, got shape {values.shape}")
    if values.shape[2] != pk.block.total:
        raise ValueError(f"datasets have {values.shape[2]} columns but kernel blocks sum to {pk.block.total}")
    return values


def _tile_pass(pk: ProductKernel, values: np.ndarray) -> BlockStats:
    """Fused pass over upper-triangle row tiles of the symmetric block Grams
    of R stacked datasets, ``values`` of shape (R, n, d).

    Tile i holds rows [i0, i1) against columns [i0, n) of every block Gram
    of every dataset; its off-diagonal columns also stand in for the
    mirrored lower-triangle entries.  Memory is O(R * n * TILE_ROWS) instead
    of O(R * n^2).  The tiles run in LANES fixed lanes (see TILE_ROWS), from
    THREAD_MIN_N rows on in two threads if the process may use more than one
    CPU, with the same result for any CPU count.  No thread outlives the call.

    The tile buffers (a row per thread), the per-lane accumulators and the
    coordinate-major copy of each block's points are allocated here, so the
    helper thread allocates nothing of tile size.  Tile
    sums are taken with ``einsum`` rather than BLAS ``dot``, whose own
    threads would make them depend on the CPU count; unlike a multiply and
    a sum, it reads each tile once.  They are taken one dataset at a time:
    a single stacked ``einsum`` sums in another order, so a dataset's bits
    would depend on its neighbours in the stack.
    """
    m = pk.block.m
    reps, n, _ = values.shape
    blocks = [coordinate_major(values[:, :, cols]) for cols in pk.block.slices()]
    height = LANE_TILE_ROWS if n >= THREAD_MIN_N else TILE_ROWS
    threaded = n >= THREAD_MIN_N and _usable_cpus() > 1
    # a lane with no tile would add only zeros, so it is not run
    lanes = min(LANES, -(-n // height))
    # blocks with d > 1 go first and take the tile of the next block as lag
    # scratch; only when every block has d > 1 does the last need a spare
    order = sorted(range(m), key=lambda k: blocks[k].shape[2] == 1)
    extra = int(blocks[order[-1]].shape[2] > 1)
    spares = order[1:] + [m if extra else None]
    buffers = np.empty((LANES if threaded else 1, m + extra, reps * height * n))
    # rows are kept (R, M, n) so that each dataset's rows are contiguous; a
    # list: reduce below would iterate an array, which costs ~1.5 us
    lane_rows = [np.zeros((reps, m, n)) for _ in range(lanes)]

    def lane(j: int) -> list[list[float]]:
        buf = buffers[j] if threaded else buffers[0]
        rows = lane_rows[j].transpose(1, 0, 2)
        partials = []
        for i0 in range(j * height, n, LANES * height):
            i1 = min(i0 + height, n)
            t, width = i1 - i0, n - i0
            tiles = buf[:, : reps * t * width].reshape(-1, reps, t, width)
            for k, spare in zip(order, spares):
                x = blocks[k]
                scratch = None if spare is None else tiles[spare]
                stacked_gram(pk.specs[k], x[:, i0:i1], x[:, i0:], out=tiles[k], scratch=scratch)
            grams = tiles[:m]
            rows[:, :, i0:i1] += grams.sum(axis=3)
            if i1 < n:
                rows[:, :, i1:] += grams[:, :, :, t:].sum(axis=2)
            # the product of all tiles but the last, in place in the first
            head, last = grams[0], grams[-1]
            for k in range(1, m - 1):
                np.multiply(head, grams[k], out=head)
            sums = []
            for h, g in zip(head, last):
                tile_sum = float(np.einsum("ij,ij->", h, g))
                if i1 < n:
                    tile_sum = 2.0 * tile_sum - float(np.einsum("ij,ij->", h[:, :t], g[:, :t]))
                sums.append(tile_sum)
            partials.append(sums)
        return partials

    if threaded:
        with ThreadPoolExecutor(1, thread_name_prefix="hsiclab-lane") as helper:
            second = helper.submit(lane, 1)
            partials = lane(0) + second.result()
    else:
        partials = [p for j in range(lanes) for p in lane(j)]
    return BlockStats(np.array([math.fsum(sums) for sums in zip(*partials)]), reduce(np.add, lane_rows))


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
    return float(block_stats(pk, data).v_statistic())


def hsic_u(pk: ProductKernel, data: Dataset) -> float:
    """Unbiased U-statistic estimate of HSIC^2 for exactly two blocks:

        [tr(K~ L~) + (1'K~1)(1'L~1)/((n-1)(n-2)) - 2 1'K~L~1/(n-2)] / (n(n-3))

    with K~, L~ the per-block Grams with zeroed diagonals.  May be negative;
    its expectation equals the population HSIC^2.
    """
    return float(block_stats(pk, data).u_statistic())


def _inv_sqrt_psd(w: np.ndarray) -> np.ndarray:
    # landmark Grams can be nearly singular; floor each spectrum before inverting
    vals, vecs = np.linalg.eigh(w)
    vals = np.maximum(vals, 1e-10 * vals[:, -1:])
    return (vecs / np.sqrt(vals)[:, None, :]) @ vecs.transpose(0, 2, 1)


def _stacked_cross_cov(pk: ProductKernel, values: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Centered Nystrom cross-covariances of R stacked datasets, ``values`` of
    shape (R, n, d), on the landmark rows ``picks`` of shape (R, 2, l) of
    each block; shape (R, l, l).  One stacked ``eigh`` per block.

    The lags run along the l landmarks, so the points' layout does not enter
    them: coordinate-major copies, as the tile pass reads, made this step 2-7%
    slower at every (n, l) measured."""
    phis = []
    stack = np.arange(len(values))[:, None]
    for spec, cols, rows in zip(pk.specs, pk.block.slices(), picks.transpose(1, 0, 2)):
        x = values[:, :, cols]
        lm = x[stack, rows]
        w = stacked_gram(spec, lm, lm)
        phis.append(stacked_gram(spec, x, lm) @ _inv_sqrt_psd(w))
    phi0, phi1 = phis
    means = [phi.mean(axis=1) for phi in phis]
    return phi0.transpose(0, 2, 1) @ phi1 / values.shape[1] - means[0][:, :, None] * means[1][:, None, :]


def hsic_nystrom(
    pk: ProductKernel, data: Dataset, landmarks: int, seed: int
) -> float:
    """Nystrom estimate of HSIC (not HSIC^2) for exactly two blocks.

    Selects ``landmarks`` rows uniformly without replacement per block, builds
    the landmark features phi_m(x) = W_m^{-1/2} k_m(landmarks_m, x), with W_m
    the landmark Gram, and returns the Frobenius norm of the empirical
    centered cross-covariance.  With landmarks = n the estimate equals
    sqrt(max(0, hsic_v)).
    """
    values = _stack_of_one(pk, data)
    landmarks = int(landmarks)
    require_nystrom(pk.block.m, data.n, landmarks)
    picks = np.array(list(landmark_picks(data.n, landmarks, [seed])))
    return float(hsic_nystrom_batch(pk, values, picks)[0])


def landmark_picks(n: int, landmarks: int, seeds):
    """Lazily, per seed of the iterable ``seeds``, the landmark rows
    ``hsic_nystrom`` selects with that seed: for block m, ``landmarks`` of
    the n rows without replacement from ``rng.stream(seed, "landmarks", m)``.
    ``seeds`` is read once; each block's streams read their own copy."""
    pairs = zip(*(rng.streams(copy, "landmarks", m) for m, copy in enumerate(tee(seeds))))
    return ([gen.choice(n, size=landmarks, replace=False) for gen in pair] for pair in pairs)


def hsic_nystrom_batch(pk: ProductKernel, values, picks) -> np.ndarray:
    """``hsic_nystrom`` of each dataset of a stack ``values`` of shape
    (R, n, d), on the landmark rows ``picks`` of shape (R, 2, landmarks)
    that ``landmark_picks`` gives its seed, in one stacked step per
    ``stack_size(n, landmarks)`` datasets; shape (R,)."""
    values = _require_stack(pk, values)
    reps, n, _ = values.shape
    picks = np.asarray(picks)
    if picks.ndim != 3 or picks.shape[:2] != (reps, 2):
        raise ValueError(f"need (R, 2, landmarks) landmark rows for {reps} datasets, got shape {picks.shape}")
    require_nystrom(pk.block.m, n, picks.shape[2])
    if picks.min() < 0 or picks.max() >= n:
        raise ValueError(f"landmark rows must lie in [0, {n})")
    norms = np.empty(reps)
    size = stack_size(n, picks.shape[2])
    for r0 in range(0, reps, size):
        cov = _stacked_cross_cov(pk, values[r0 : r0 + size], picks[r0 : r0 + size])
        cov = cov.reshape(len(cov), -1)
        norms[r0 : r0 + size] = np.sqrt(_row_dot(cov, cov))
    return norms
