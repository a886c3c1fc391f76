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
* ``median_lags``: per block, the median pairwise lag behind the median
  heuristic's bandwidth suggestion 1/median.
* ``in_two_processes``: calls split between the calling process and one
  forked worker, by a split fixed by their weights.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import reduce
from itertools import tee

import numpy as np

from . import rng
from .data import Dataset, whole
from .kernels import KernelFamily, LagTiles, ProductKernel, coordinate_major, row_scope, stacked_gram

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
#   of its own for the call when more than one CPU is usable and the caller
#   does not ask for the lanes in line (numpy releases the GIL in the tile
#   arithmetic); on one CPU that thread cost 10-30%.  Two
#   half-height tiles make one TILE_ROWS tile set, whatever the CPU count;
#   16-row tiles were 1.3-1.6x slower, and 2 lanes 2-6% faster than 8.
#
# The two lanes share the GIL between their numpy calls, so each lane
# enters ``kernels.row_scope`` once and a tile then makes only slicing and
# ufunc calls, its Grams through one ``kernels.LagTiles`` per block prepared
# once per pass.  From THREAD_MIN_N to 2 * THREAD_MIN_N a stack holds two
# datasets (``stack_size``), so each ufunc call of a lane at n = 2048 covers
# the 2^17 floats it covers at n = 4096.  On a 2-vCPU Xeon the two lanes
# took 0.67-0.71x the time of one thread per dataset at n = 2048 and
# 0.62-0.64x at n = 4096.  With a ``stacked_gram`` call per tile and block
# and one dataset a stack they had taken 0.94-1.28x and 0.57-0.75x (medians
# of 15 passes in 4-8 alternating rounds).  The tiles below THREAD_MIN_N
# stay TILE_ROWS high: moving the threshold would change the tile heights,
# and so the bits, at every n it passes.
#
# At small n a tile is tiny and the pass is all per-call overhead, so
# ``block_stats_batch`` stacks ``stack_size(n)`` datasets along a leading axis
# and runs the same loop on (R, t, n) tiles; below n = 1024 that is more than
# one dataset.  The V and U forms then run once per stack as well.  Each
# stack reads a coordinate-major copy of each block's points, so the lag
# subtractions run on unit stride: on a 2-vCPU Xeon one coordinate of a
# 32 x 4096 tile took 24 us instead of 57.  The Nystrom step holds smaller
# arrays and stacks ``stack_size(n, landmarks)`` datasets of its own.
#
# Stacks run one after the other in the calling thread: dealt to a helper
# thread they paid only up to n = TILE_ROWS, not end to end (ROADMAP item
# 15).  The second CPU takes whole calls in a forked worker instead
# (``in_two_processes``): minimax splits its budgets there, below
# THREAD_MIN_N whole and from there on by distribution, and no process
# outlives the call.  Both CPUs are then busy, so each side runs its lanes
# in line (``block_stats_batch(..., in_line=True)``): at n = 4096 (8
# datasets, blocks 1,1) two processes with their lanes in line took 0.48x
# the time of one thread, the two lane threads of one process 0.63x
# (medians of 7 rounds on a 2-vCPU Xeon), with the same bits.
TILE_ROWS = 64
LANE_TILE_ROWS = 32
LANES = TILE_ROWS // LANE_TILE_ROWS
THREAD_MIN_N = 2048
# n x l arrays the Nystrom step holds per block and dataset at its peak: the
# other block's features, and this block's lags, their scratch and features
NYSTROM_ARRAYS = 4
# rows the median heuristic reads: a larger dataset is subsampled to this many
MEDIAN_HEURISTIC_CAP = 2048


def stack_size(n: int, landmarks: int | None = None) -> int:
    """How many datasets of n rows share one stacked step, and at least one.
    Below THREAD_MIN_N, as many as keep the step's arrays for one block
    within 2^16 floats (512 KB).  A pass of the tile loop (``landmarks``
    None) holds a min(n, TILE_ROWS) x n tile per dataset there: 1024
    datasets at n = 8, 4 at n = 256, 2 at n = 512 and 1 at n = 1024.  From
    THREAD_MIN_N on, as many tile sets as hold no more floats than that of
    one dataset at 2 * THREAD_MIN_N (2^18): 2 for 2048 <= n < 4096 and 1
    from n = 4096 on, so a lane's tile at n = 2048 holds the 2^17 floats of
    one at n = 4096.  A Nystrom step with l landmarks holds about
    NYSTROM_ARRAYS n x l arrays per dataset, so one of them stays within
    2^14 floats: 16 datasets at n = 256 and l = 4."""
    if landmarks is None and n >= THREAD_MIN_N:
        return max(1, 2 * THREAD_MIN_N // n)
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


def block_stats_batch(pk: ProductKernel, values, in_line: bool = False) -> BlockStats:
    """Sufficient statistics of the stack ``values`` of shape (R, n, d),
    whose columns are the kernel's blocks, from one pass of the tile loop
    per ``stack_size(n)`` datasets.  ``in_line`` runs every lane in the
    calling thread, for a caller that keeps the other CPUs busy itself.
    Each dataset's entries are the same bits as the dataset alone would
    give, for any memory layout of ``values``, any CPU count and either
    ``in_line``."""
    values = _require_stack(pk, values)
    size = stack_size(values.shape[1])
    parts = [_tile_pass(pk, values[r : r + size], in_line) for r in range(0, len(values), size)]
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


def _tile_pass(pk: ProductKernel, values: np.ndarray, in_line: bool) -> BlockStats:
    """Fused pass over upper-triangle row tiles of the symmetric block Grams
    of R stacked datasets, ``values`` of shape (R, n, d).

    Tile i holds rows [i0, i1) against columns [i0, n) of every block Gram
    of every dataset; its off-diagonal columns also stand in for the
    mirrored lower-triangle entries.  Memory is O(R * n * TILE_ROWS) instead
    of O(R * n^2).  The tiles run in LANES fixed lanes (see TILE_ROWS), from
    THREAD_MIN_N rows on as one ``_paired`` pair if the process may use more
    than one CPU and not ``in_line``, with the same result for any CPU
    count.  No thread outlives the call.

    The tile buffers (a row per thread), the per-lane accumulators and the
    coordinate-major copy of each block's points are allocated here, so the
    helper thread allocates nothing of tile size, and each block's
    ``LagTiles`` is prepared here once for all of its tiles.  Tile
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
    # a lane with no tile would add only zeros, so it is not run
    lanes = min(LANES, -(-n // height))
    threaded = n >= THREAD_MIN_N and lanes > 1 and not in_line and _usable_cpus() > 1
    # blocks with d > 1 go first and take the tile of the next block as lag
    # scratch; only when every block has d > 1 does the last need a spare
    order = sorted(range(m), key=lambda k: blocks[k].shape[2] == 1)
    extra = int(blocks[order[-1]].shape[2] > 1)
    spares = order[1:] + [m if extra else None]
    # each block's tiles, in that order, with the tile each takes as scratch
    makers = [
        (LagTiles(pk.specs[k].family, blocks[k], blocks[k], pk.specs[k].gamma), k, spare)
        for k, spare in zip(order, spares)
    ]
    guard = any(maker.guard for maker, _, _ in makers)
    buffers = np.empty((1 + threaded, m + extra, reps * height * n))
    # rows are kept (R, M, n) so that each dataset's rows are contiguous; a
    # list: reduce below would iterate an array, which costs ~1.5 us
    lane_rows = [np.zeros((reps, m, n)) for _ in range(lanes)]

    # below THREAD_MIN_N only a tile's lag loops run under its row_scope,
    # since the sums of its rows of 64 to 1024 floats took up to 1.9x the
    # time under the buffer.  From THREAD_MIN_N on a lane runs all of its
    # tiles under one, which spares the lanes a buffer switch per tile.
    lane_scope, tile_scope = (row_scope, _no_scope) if n >= THREAD_MIN_N else (_no_scope, row_scope)

    def lane(j: int) -> list[list[float]]:
        buf = buffers[j % len(buffers)]
        rows = lane_rows[j].transpose(1, 0, 2)
        starts = range(j * height, n, LANES * height)
        partials = []
        with lane_scope(n - starts[-1], n, guard):
            for i0 in starts:
                i1 = min(i0 + height, n)
                t, width = i1 - i0, n - i0
                tiles = buf[:, : reps * t * width].reshape(-1, reps, t, width)
                with tile_scope(width, width, guard):
                    for maker, k, spare in makers:
                        maker(i0, i1, i0, tiles[k], None if spare is None else tiles[spare])
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

    partials = [p for part in _paired(lane, lanes, threaded) for p in part]
    return BlockStats(np.array([math.fsum(sums) for sums in zip(*partials)]), reduce(np.add, lane_rows))


def _no_scope(*_) -> nullcontext:
    return nullcontext()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _paired(run, calls: int, threaded: bool) -> list:
    """[run(k) for k in range(calls)].  When ``threaded``, the calls run in
    pairs: call k in the calling thread and call k + 1 on a helper thread,
    which is joined before the next pair starts, so no thread outlives the
    call.  A pair's failure is raised in the calling thread once both of its
    calls have ended; where both failed, the earlier call's."""

    def helper(k, outcome):
        try:
            outcome.append((run(k), None))
        except BaseException as exc:
            outcome.append((None, exc))

    results = []
    for k in range(0, calls, 2 if threaded else 1):
        if not threaded or k + 1 == calls:
            results.append(run(k))
            continue
        outcome = []
        thread = threading.Thread(target=helper, args=(k + 1, outcome), name="hsiclab-helper")
        thread.start()
        try:
            results.append(run(k))
        finally:
            thread.join()
        result, exc = outcome[0]
        if exc is not None:
            raise exc
        results.append(result)
    return results


def in_two_processes(run, units: dict) -> dict:
    """{unit: run(unit)} for the keys of ``units``, which map each unit to
    its weight, split between the calling process and one forked worker; {}
    where no worker may start, and the caller runs every call itself.  A
    worker starts for two or more units, on Linux, when more than one CPU is
    usable and no other Python thread runs.  The split is fixed by the
    units: heaviest first (equal weights in the order of ``units``), each
    unit goes to the side with the smaller sum of weights so far, ties to
    the calling process.  Each side runs its calls in the order of
    ``units``, and both CPUs are busy, so ``run`` need start no thread.  The
    worker pickles its results, or its first exception, into one pipe and
    ends in ``os._exit``; that exception is raised here once this process's
    calls have ended, and a worker that ends without a result has its calls
    run here.  A failure or an interrupt here kills the worker.  It is
    reaped before this returns or raises, so no process outlives the
    call."""
    if len(units) < 2 or sys.platform != "linux" or _usable_cpus() < 2 or threading.active_count() > 1:
        return {}
    shares, loads = (set(), set()), [0, 0]
    for unit in sorted(units, key=units.get, reverse=True):
        side = int(loads[1] < loads[0])
        shares[side].add(unit)
        loads[side] += units[unit]
    mine, theirs = ([unit for unit in units if unit in share] for share in shares)
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 on warns at a fork beside other OS threads.  The one
            # that runs here is an OpenBLAS pool, which OpenBLAS stops around a
            # fork itself (pthread_atfork), and no Python thread holds a lock.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to spare: the caller runs every call
        os.close(read)
        os.close(write)
        return {}
    if pid == 0:
        code = 1
        try:
            os.close(read)
            try:
                outcome = [run(unit) for unit in theirs]
            except Exception as exc:
                outcome = exc
            with open(write, "wb") as pipe:
                pickle.dump(outcome, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            results = {unit: run(unit) for unit in mine}
            payload = pipe.read()
        except BaseException:
            # a worker blocked on a full pipe would never end by itself
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    # status 0 is an exit with code 0, which follows a whole write
    outcome = pickle.loads(payload) if status == 0 else [run(unit) for unit in theirs]
    if isinstance(outcome, Exception):
        raise outcome
    results.update(zip(theirs, outcome))
    return {unit: results[unit] for unit in units}


def median_lags(family: KernelFamily, data: Dataset, seed: int) -> list[float | None]:
    """For each block of ``data`` in order, the exact median of its
    positive pairwise lags (squared l2 for the Gaussian family, l1 for the
    Laplace family), or None where no lag is positive.  A lag past the float
    range counts as inf, without a warning.

    Past MEDIAN_HEURISTIC_CAP rows, every block reads the same uniform
    subsample of the rows without replacement, drawn once from
    ``rng.stream(seed, "median")``.  When more than one CPU is usable, the
    blocks run in pairs (``_paired``): the first of each in the calling
    thread, the second on a helper thread joined before the next pair; each
    median is the same float either way.  Each
    block holds one buffer of its m(m - 1)/2 lags and the zeroed heads of its
    row tiles (17.3 MB at the cap), so two are alive at once with the helper.
    """
    values = data.values
    if data.n > MEDIAN_HEURISTIC_CAP:
        values = values[rng.stream(seed, "median").choice(data.n, size=MEDIAN_HEURISTIC_CAP, replace=False)]
    blocks = [values[:, cols] for cols in data.block.slices()]
    return _paired(lambda m: _median_lag(family, blocks[m]), len(blocks), _usable_cpus() > 1)


def _median_lag(family: KernelFamily, x: np.ndarray) -> float | None:
    """The exact median of the positive strict-upper-triangle lags of the
    points x, found by one selection; None where no lag is positive.  Lags
    that overflow are inf under the ``errstate`` set here, which holds for
    the thread that runs the block only."""
    with np.errstate(over="ignore"):
        # the tiles then read each coordinate of their columns on unit stride
        x = coordinate_major(x)
        m = x.shape[0]
        tile_lags = LagTiles(family, x, x)
        # each row tile of the strict upper triangle is written straight into
        # one buffer that holds the tiles end to end, with the diagonal and
        # lower triangle of its t x t head zeroed: the zeros then rank first
        heads = range(0, m, TILE_ROWS)
        lags = np.empty(sum(min(TILE_ROWS, m - i0) * (m - i0) for i0 in heads))
        scratch = np.empty(TILE_ROWS * m)
        lower = np.tri(TILE_ROWS, dtype=bool)
        start = 0
        for i0 in heads:
            t, width = min(TILE_ROWS, m - i0), m - i0
            tile = lags[start : start + t * width].reshape(t, width)
            with row_scope(width, width):
                tile_lags(i0, i0 + t, i0, tile, scratch[: t * width].reshape(t, width))
            np.copyto(tile[:, :t], 0.0, where=lower[:t, :t])
            start += t * width
    count = int(np.count_nonzero(lags))
    if count == 0:
        return None
    # np.median's value, the mean of the two middle order statistics when
    # count is even, from a single-kth partition past the zeros; in Python
    # floats, whose sum overflows to inf without a warning, and where it does
    # each is halved first
    k = lags.size - count + count // 2
    lags.partition(k)
    if count % 2:
        return float(lags[k])
    a, b = float(lags[:k].max()), float(lags[k])
    return (a + b) / 2 if math.isfinite(a + b) else a / 2 + b / 2


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

    Each block's landmark Gram is built as k(L, x), shape (R, l, n), from a
    coordinate-major copy of the points, so its lags run along the n points
    (16 datasets of n = 256 at l = 4: 40 us a block, the copy included,
    instead of 78 for k(x, L)).  Its transposed view enters the same product
    as k(x, L) would, with the same bits."""
    phis = []
    stack = np.arange(len(values))[:, None]
    for spec, cols, rows in zip(pk.specs, pk.block.slices(), picks.transpose(1, 0, 2)):
        x = values[:, :, cols]
        lm = x[stack, rows]
        w = stacked_gram(spec, lm, lm)
        phis.append(stacked_gram(spec, lm, coordinate_major(x)).swapaxes(-1, -2) @ _inv_sqrt_psd(w))
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
    landmarks = whole(landmarks, "landmarks")
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
