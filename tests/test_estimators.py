import contextlib
import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hsiclab import (
    BlockStructure,
    Dataset,
    GaussianMeasure,
    KernelFamily,
    KernelSpec,
    ProductKernel,
    block_stats,
    block_stats_batch,
    hsic2_gaussian,
    hsic_nystrom,
    hsic_nystrom_batch,
    hsic_u,
    hsic_v,
    landmark_picks,
    make_adversarial_cov,
    sample,
)
from hsiclab import estimators
from hsiclab import rng as rnglib
from hsiclab.estimators import LANE_TILE_ROWS, LANES, THREAD_MIN_N, TILE_ROWS
from hsiclab.kernels import LagTiles, coordinate_major
from helpers import (
    block_values,
    dense_hsic_u,
    dense_hsic_v,
    embedding_inner,
    mmd_v,
    naive_hsic_u,
    naive_hsic_v,
    nystrom_cross_cov,
    points_major_nystrom,
    product_gram,
    trace_form_hsic_v,
)

B11 = BlockStructure((1, 1))
PK11 = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0)


def alt_measure(rho=0.6, block=B11):
    return GaussianMeasure(np.zeros(block.total), make_adversarial_cov(block, rho))


def random_dataset(seed, n=30, block=B11, rho=0.0):
    g = alt_measure(rho, block) if rho else GaussianMeasure.standard(block.total)
    return sample(g, n, seed, block)


def hexes(values) -> list[str]:
    """float.hex of each entry of a 1-d array."""
    return [v.hex() for v in values.tolist()]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

# prints float.hex of the total, V, U (n >= 4) and every row sum of
# block_stats for blocks (1,1) and (2,2) at each n in argv[2:]
BITS_CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from hsiclab import BlockStructure, Dataset, KernelFamily, ProductKernel, block_stats
for dims in ((1, 1), (2, 2)):
    block = BlockStructure(dims)
    pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
    for n in map(int, sys.argv[2:]):
        z = np.random.default_rng(n).normal(size=(n, block.total))
        z[:, -1] = 0.6 * z[:, 0] + 0.8 * z[:, -1]
        stats = block_stats(pk, Dataset(z, block))
        values = [stats.total, stats.v_statistic()]
        if n >= 4:
            values.append(stats.u_statistic())
        print(dims, n, *map(float.hex, values + stats.rows.ravel().tolist()))
"""

# prints float.hex of hsic_v and hsic_u of four 12000-row datasets, then of
# the V and U records of `estimate` on the CSV argv[1]: past 10000 rows
# OpenBLAS splits a dot product over its threads
V_U_CHILD = """
import json, sys
import numpy as np
from hsiclab import BlockStructure, GaussianMeasure, KernelFamily, ProductKernel, hsic_u, hsic_v
from hsiclab import make_adversarial_cov, sample
from hsiclab.cli import main
block = BlockStructure((1, 1))
pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
g = GaussianMeasure(np.zeros(2), make_adversarial_cov(block, 0.6))
for seed in range(4):
    ds = sample(g, 12000, seed, block)
    print(seed, hsic_v(pk, ds).hex(), hsic_u(pk, ds).hex())
argv = ["estimate", "--input", sys.argv[1], "--blocks", "1,1", "--est", "v", "--est", "u", "--output", sys.argv[2]]
assert main(argv) == 0
with open(sys.argv[2]) as f:
    print(*(rec["value_hsic2"].hex() for rec in json.load(f)))
"""


def put_total(results, pk, ds):
    results.put(block_stats(pk, ds).total)


@contextlib.contextmanager
def lane_pool(workers):
    """Make ``block_stats`` see ``workers`` usable CPUs: with one its lanes
    run in the calling thread, as on a single CPU, with more lane 1 runs on
    a helper thread."""
    saved = estimators._usable_cpus
    estimators._usable_cpus = lambda: workers
    try:
        yield
    finally:
        estimators._usable_cpus = saved


class TestBlockStats:
    """The tiled statistics against dense Grams, around the tile boundaries."""

    @staticmethod
    def _case(n, dims, family):
        # dependent blocks keep V and U well away from zero, so relative
        # agreement is meaningful
        block = BlockStructure(dims)
        z = np.random.default_rng(n * 10 + len(dims)).normal(size=(n, block.total))
        z[:, -1] = 0.6 * z[:, 0] + 0.8 * z[:, -1]
        gammas = (0.7, 1.3, 2.0)[: len(dims)]
        pk = ProductKernel(block, tuple(KernelSpec(family, g) for g in gammas))
        return pk, Dataset(z, block)

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2, 1)])
    @pytest.mark.parametrize("n", [5, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS + 17])
    def test_matches_dense_grams(self, n, dims, family):
        pk, ds = self._case(n, dims, family)
        grams, prod = product_gram(pk, ds)
        stats = block_stats(pk, ds)
        assert stats.total == pytest.approx(float(prod.sum()), rel=1e-10, abs=0.0)
        np.testing.assert_allclose(stats.rows, [g.sum(axis=1) for g in grams], rtol=1e-10)
        assert hsic_v(pk, ds) == pytest.approx(dense_hsic_v(grams), rel=1e-10, abs=0.0)
        if len(dims) == 2:
            assert hsic_u(pk, ds) == pytest.approx(dense_hsic_u(*grams), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2, 1)])
    def test_lanes_match_dense_grams(self, dims, family):
        # past the crossover the tiles run in lanes on the thread pool; the
        # last tile is short (n is not a multiple of the lane tile height)
        pk, ds = self._case(THREAD_MIN_N + 17, dims, family)
        grams, prod = product_gram(pk, ds)
        stats = block_stats(pk, ds)
        assert stats.total == pytest.approx(float(prod.sum()), rel=1e-10, abs=0.0)
        np.testing.assert_allclose(stats.rows, [g.sum(axis=1) for g in grams], rtol=1e-10)
        assert hsic_v(pk, ds) == pytest.approx(dense_hsic_v(grams), rel=1e-10, abs=0.0)
        if len(dims) == 2:
            assert hsic_u(pk, ds) == pytest.approx(dense_hsic_u(*grams), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2, 1)])
    def test_lanes_are_bit_identical_for_any_worker_count(self, dims):
        pk, ds = self._case(THREAD_MIN_N + 100, dims, KernelFamily.GAUSSIAN)
        with lane_pool(1):
            inline = block_stats(pk, ds)
        runs = []

        def run_all():
            runs.extend(block_stats(pk, ds) for _ in range(3))
            for workers in (1, LANES):
                with lane_pool(workers):
                    runs.extend(block_stats(pk, ds) for _ in range(3))

        # frequent thread switches give the lanes many interleavings
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=run_all)
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(runs) == 9
        for stats in runs:
            assert stats.total == inline.total
            assert np.array_equal(stats.rows, inline.rows)

    def test_bits_do_not_depend_on_blas_threads_or_cpus(self):
        # fresh interpreters, since BLAS reads its thread count once per
        # process; "pin" restricts the child to one CPU before numpy starts
        # any thread
        ns = (2, 63, 64, 65, 157, 500, 2047, 2048, 2049)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        settings = [(None, "all"), ("1", "all"), ("2", "all")]
        if hasattr(os, "sched_setaffinity"):
            settings.append((None, "pin"))
        outputs = []
        for threads, cpus in settings:
            child_env = dict(env, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
            child = subprocess.run(
                [sys.executable, "-c", BITS_CHILD, cpus, *map(str, ns)],
                env=child_env, capture_output=True, text=True, timeout=300,
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout.splitlines())
        assert len(outputs[0]) == 2 * len(ns)
        for (threads, cpus), lines in zip(settings[1:], outputs[1:]):
            # the blocks and n of every case whose bits differ
            differ = [a[: a.index(" 0x")] for a, b in zip(outputs[0], lines) if a != b]
            assert len(lines) == len(outputs[0])
            assert differ == [], f"OPENBLAS_NUM_THREADS={threads}, cpus={cpus}"

    def test_v_and_u_do_not_depend_on_blas_threads(self, tmp_path):
        # their dot products are pairwise row sums, not BLAS ``dot``
        z = np.random.default_rng(5).normal(size=(16384, 2))
        z[:, 1] = 0.6 * z[:, 0] + 0.8 * z[:, 1]
        np.savetxt(tmp_path / "rows.csv", z, delimiter=",")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        outputs = []
        for threads in ("1", "4"):
            child = subprocess.run(
                [sys.executable, "-c", V_U_CHILD, str(tmp_path / "rows.csv"), str(tmp_path / f"est{threads}.json")],
                env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=300,
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout.splitlines())
        assert len(outputs[0]) == 5
        assert outputs[1] == outputs[0]

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
    def test_forked_child_makes_its_own_pool(self):
        # no lane thread outlives a call, so the child has none to miss
        pk, ds = self._case(THREAD_MIN_N, (1, 1), KernelFamily.GAUSSIAN)
        expected = block_stats(pk, ds).total
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=put_total, args=(results, pk, ds))
        child.start()
        try:
            assert results.get(timeout=60) == expected
        except queue.Empty:
            pytest.fail("block_stats hung in a forked child")
        finally:
            child.kill()
            child.join(timeout=10)

    def test_block_mismatch(self):
        with pytest.raises(ValueError):
            block_stats(PK11, Dataset(np.zeros((4, 3)), BlockStructure((2, 1))))

    @pytest.mark.parametrize("n", [5, THREAD_MIN_N])
    def test_single_block_rejected(self, n):
        block = BlockStructure((2,))
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        with pytest.raises(ValueError, match="at least 2 blocks"):
            block_stats(pk, Dataset(np.zeros((n, 2)), block))

    @pytest.mark.parametrize("cpus, helpers", [(1, 0), (64, LANES - 1)])
    def test_helper_threads_live_for_one_call(self, monkeypatch, cpus, helpers):
        assert LANES * LANE_TILE_ROWS <= TILE_ROWS
        pk, ds = self._case(THREAD_MIN_N, (1, 1), KernelFamily.GAUSSIAN)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        callers = set()
        real_tile = LagTiles.__call__

        def traced_tile(*args, **kwargs):
            callers.add(threading.get_ident())
            return real_tile(*args, **kwargs)

        # the lanes compute every tile through the blocks' LagTiles
        monkeypatch.setattr(LagTiles, "__call__", traced_tile)
        before = threading.enumerate()
        block_stats(pk, ds)
        assert threading.enumerate() == before
        assert len(callers - {threading.get_ident()}) == helpers

    def test_concurrent_calls_get_the_inline_bits(self):
        pk, ds = self._case(THREAD_MIN_N + 100, (2, 1), KernelFamily.GAUSSIAN)
        with lane_pool(1):
            inline = block_stats(pk, ds)
        start = threading.Barrier(2)

        def call():
            start.wait(timeout=60)
            return block_stats(pk, ds)

        with lane_pool(LANES), ThreadPoolExecutor(2) as callers:
            runs = [callers.submit(call) for _ in range(2)]
            results = [run.result(timeout=120) for run in runs]
        for stats in results:
            assert stats.total == inline.total
            assert np.array_equal(stats.rows, inline.rows)

    def test_memory_is_tile_sized(self):
        # both sizes run the lanes as the CPU count picks, then on LANES
        # threads whatever it is: together they hold one TILE_ROWS tile set
        for n in (3000, 6144):
            assert n >= THREAD_MIN_N
            ds = random_dataset(40, n=n, rho=0.6)
            for pool in (contextlib.nullcontext(), lane_pool(LANES)):
                with pool:
                    tracemalloc.start()
                    try:
                        hsic_v(PK11, ds)
                        _, peak = tracemalloc.get_traced_memory()
                    finally:
                        tracemalloc.stop()
                assert peak < 0.1 * 8 * n * n


class TestBlockStatsBatch:
    """Stacking datasets along the tile loop's leading axis changes no bit of
    any one dataset's statistics, whatever its neighbours in the stack."""

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 1), (1, 2, 1)])
    @pytest.mark.parametrize("n", [2, 8, 63, 64, 65, 128, 129, 256, 257, 2047, 2048])
    def test_stacking_does_not_change_the_bits(self, monkeypatch, n, dims):
        block = BlockStructure(dims)
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        datasets = [random_dataset(rnglib.derive(n, r), n, block, rho=0.6) for r in range(7)]
        alone = [block_stats(pk, ds) for ds in datasets]
        for size in (1, 2, 7):
            monkeypatch.setattr(estimators, "stack_size", lambda n: size)
            stacked = block_stats_batch(pk, np.array([ds.values for ds in datasets]))
            assert stacked.total.shape == (len(datasets),)
            assert hexes(stacked.total) == [a.total.hex() for a in alone], size
            assert np.array_equal(stacked.rows, [a.rows for a in alone]), size
            assert hexes(stacked.v_statistic()) == [a.v_statistic().hex() for a in alone], size
            if block.m == 2 and n >= 4:
                assert hexes(stacked.u_statistic()) == [a.u_statistic().hex() for a in alone], size

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 2, 1)])
    @pytest.mark.parametrize("n", [16, 256, 512])
    def test_several_stacks_give_each_dataset_its_bits(self, n, dims):
        # two full stacks of the real stack_size and a short third one
        block = BlockStructure(dims)
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        reps = 2 * estimators.stack_size(n) + 1
        datasets = [random_dataset(rnglib.derive(n, r), n, block, rho=0.6) for r in range(reps)]
        values = np.array([ds.values for ds in datasets])
        stats = block_stats_batch(pk, values)
        assert hexes(stats.v_statistic()) == [hsic_v(pk, ds).hex() for ds in datasets]
        if block.m == 2:
            assert hexes(stats.u_statistic()) == [hsic_u(pk, ds).hex() for ds in datasets]
            seeds = [rnglib.derive(n, r, "nystrom") for r in range(reps)]
            picks = np.array(list(landmark_picks(n, 4, seeds)))
            alone = [hsic_nystrom(pk, ds, 4, seed).hex() for ds, seed in zip(datasets, seeds)]
            assert hexes(hsic_nystrom_batch(pk, values, picks)) == alone

    def test_stack_size_holds_a_tile_set_of_one_block(self):
        sizes = [estimators.stack_size(n) for n in (8, 64, 256, 512, THREAD_MIN_N, 2 * THREAD_MIN_N - 1, 2 * THREAD_MIN_N)]
        assert sizes == [1024, 16, 4, 2, 2, 1, 1]

    def test_nystrom_stack_size_holds_four_feature_sets_of_one_block(self):
        sizes = [estimators.stack_size(n, landmarks) for n, landmarks in ((8, 4), (64, 4), (256, 4), (256, 16), (4096, 64))]
        assert sizes == [512, 64, 16, 4, 1]

    @pytest.mark.parametrize(
        "family, gamma", [(KernelFamily.GAUSSIAN, 1.0), (KernelFamily.GAUSSIAN, 5.0), (KernelFamily.LAPLACE, 1.0)]
    )
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 2, 1)])
    @pytest.mark.parametrize("n", [8, 64, 256, THREAD_MIN_N])
    def test_layout_changes_no_bit(self, n, dims, family, gamma):
        # the tile pass reads a coordinate-major copy of whatever it is
        # given; at THREAD_MIN_N in lane stacks of two, and at gamma = 5
        # under the overflow guard
        block = BlockStructure(dims)
        pk = ProductKernel.homogeneous(block, family, gamma)
        values = np.array([random_dataset(rnglib.derive(n, r), n, block, rho=0.6).values for r in range(6)])
        expected = block_stats_batch(pk, values)
        seeds = [rnglib.derive(n, r, "nystrom") for r in range(len(values))]
        picks = np.array(list(landmark_picks(n, 4, seeds)))
        for other in (coordinate_major(values), np.asfortranarray(values)):
            assert not other.flags.c_contiguous
            stats = block_stats_batch(pk, other)
            assert hexes(stats.total) == hexes(expected.total)
            assert np.array_equal(stats.rows, expected.rows)
            if block.m == 2:
                assert hexes(hsic_nystrom_batch(pk, other, picks)) == hexes(hsic_nystrom_batch(pk, values, picks))

    @pytest.mark.parametrize("landmarks", [4, 16])
    @pytest.mark.parametrize("n", [64, 256])
    def test_several_nystrom_stacks_give_each_dataset_its_bits(self, n, landmarks):
        # two full Nystrom stacks of the real stack_size and a short third one
        block = BlockStructure((2, 2))
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        reps = 2 * estimators.stack_size(n, landmarks) + 1
        datasets = [random_dataset(rnglib.derive(n, r), n, block, rho=0.6) for r in range(reps)]
        seeds = [rnglib.derive(n, r, "nystrom") for r in range(reps)]
        picks = np.array(list(landmark_picks(n, landmarks, seeds)))
        alone = [hsic_nystrom(pk, ds, landmarks, seed).hex() for ds, seed in zip(datasets, seeds)]
        assert hexes(hsic_nystrom_batch(pk, np.array([ds.values for ds in datasets]), picks)) == alone

    @pytest.mark.parametrize("dims", [(2, 2), (2, 1)])
    @pytest.mark.parametrize(
        "n, landmarks", [(n, l) for n in (8, 64, 256, 4096) for l in (2, 4, 64) if l <= n]
    )
    def test_nystrom_features_keep_the_points_major_bits(self, n, landmarks, dims):
        # k(L, x) read through its transposed view enters the same products
        # as k(x, L), with the same bits
        pk = ProductKernel.homogeneous(BlockStructure(dims), KernelFamily.GAUSSIAN, 1.0)
        reps = min(3, estimators.stack_size(n, landmarks))
        values = np.array([random_dataset(rnglib.derive(n, r), n, pk.block, rho=0.6).values for r in range(reps)])
        picks = np.array(list(landmark_picks(n, landmarks, range(reps))))
        expected = points_major_nystrom(pk, values, picks)
        assert hexes(hsic_nystrom_batch(pk, values, picks)) == hexes(expected)

    def test_nystrom_stack_stays_below_the_tile_buffers(self):
        # one full Nystrom stack holds about four n x l feature sets per
        # block; a larger stack budget would outgrow the tile pass's three
        # 2^16-float buffers at the same n and raise a minimax run's peak
        n, landmarks = 256, 4
        pk = ProductKernel.homogeneous(BlockStructure((2, 2)), KernelFamily.GAUSSIAN, 1.0)
        reps = estimators.stack_size(n, landmarks)
        values = np.array([random_dataset(rnglib.derive(n, r), n, pk.block, rho=0.6).values for r in range(reps)])
        picks = np.array(list(landmark_picks(n, landmarks, range(reps))))
        hsic_nystrom_batch(pk, values[:1], picks[:1])
        tracemalloc.start()
        try:
            hsic_nystrom_batch(pk, values, picks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**16 * 8

    def test_rejects_mixed_datasets(self):
        with pytest.raises(ValueError, match="do not match"):
            block_stats(PK11, Dataset(np.zeros((8, 3)), BlockStructure((2, 1))))
        with pytest.raises(ValueError, match="columns"):
            block_stats_batch(PK11, np.zeros((2, 8, 3)))
        with pytest.raises(ValueError, match=r"shape \(R, n, d\)"):
            block_stats_batch(PK11, random_dataset(0, n=8).values)
        for empty in (np.zeros((0, 8, 2)), np.zeros((2, 0, 2))):
            with pytest.raises(ValueError, match="at least one dataset of at least one row"):
                block_stats_batch(PK11, empty)

    def test_nystrom_batch_matches_each_dataset_alone(self):
        datasets = [random_dataset(rnglib.derive(3, r), n=40, rho=0.6) for r in range(5)]
        seeds = [rnglib.derive(4, r) for r in range(5)]
        alone = [hsic_nystrom(PK11, ds, 6, seed) for ds, seed in zip(datasets, seeds)]
        values = np.array([ds.values for ds in datasets])
        picks = np.array(list(landmark_picks(40, 6, seeds)))
        assert picks.shape == (5, 2, 6)
        assert hexes(hsic_nystrom_batch(PK11, values, picks)) == [a.hex() for a in alone]
        with pytest.raises(ValueError, match="landmark rows for 5 datasets"):
            hsic_nystrom_batch(PK11, values, picks[:4])
        with pytest.raises(ValueError, match=r"in \[0, 40\)"):
            hsic_nystrom_batch(PK11, values, picks - 1)
        with pytest.raises(ValueError, match="cannot select 41 landmarks"):
            hsic_nystrom_batch(PK11, values, np.zeros((5, 2, 41), dtype=int))


class TestStacks:
    """``block_stats_batch`` runs its stacks one after the other in the
    calling thread, whatever the CPU count."""

    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (1, 2, 1)])
    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, n, dims):
        # two full stacks of the real stack_size and a short third one
        block = BlockStructure(dims)
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        reps = 2 * estimators.stack_size(n) + 3
        values = np.array([random_dataset(rnglib.derive(n, r), n, block, rho=0.6).values for r in range(reps)])
        tile_pass, callers = estimators._tile_pass, []

        def recording(pk, values):
            callers.append(threading.current_thread() is threading.main_thread())
            return tile_pass(pk, values)

        monkeypatch.setattr(estimators, "_tile_pass", recording)
        runs = {}
        for workers in (1, 2):
            with lane_pool(workers):
                del callers[:]
                runs[workers] = block_stats_batch(pk, values)
                assert callers == [True] * 3
        assert hexes(runs[2].total) == hexes(runs[1].total)
        assert hexes(runs[2].rows.ravel()) == hexes(runs[1].rows.ravel())


class TestPaired:
    """``_paired`` runs its calls in order and, when threaded, in pairs: call
    k in the calling thread and call k + 1 on a helper thread, joined before
    the next pair starts."""

    @staticmethod
    def recording(events, failing=(), delays=None):
        """A call that logs ("start", k, in the main thread) and ("end", k),
        sleeps ``delays[k]`` seconds, raises for k in ``failing`` and
        returns k * k otherwise."""

        def run(k):
            events.append(("start", k, threading.current_thread() is threading.main_thread()))
            time.sleep((delays or {}).get(k, 0.0))
            events.append(("end", k))
            if k in failing:
                raise MemoryError(f"injected {k}")
            return k * k

        return run

    @pytest.mark.parametrize("calls", [0, 1, 2, 5, 6])
    def test_calls_run_in_order_with_the_second_of_each_pair_on_the_helper(self, calls):
        events, before = [], threading.enumerate()
        assert estimators._paired(self.recording(events), calls, True) == [k * k for k in range(calls)]
        starts = [event for event in events if event[0] == "start"]
        assert sorted(starts) == [("start", k, k % 2 == 0) for k in range(calls)]
        # a pair starts only once the one before it has ended
        for k in range(2, calls, 2):
            assert events.index(("end", k - 1)) < events.index(("start", k, True))
        assert threading.enumerate() == before
        del events[:]
        assert estimators._paired(self.recording(events), calls, False) == [k * k for k in range(calls)]
        assert events == [e for k in range(calls) for e in (("start", k, True), ("end", k))]

    def test_a_helper_failure_is_raised_after_the_callers_call(self):
        # call 1 fails at once; call 0 takes longer and still ends first
        events, before = [], threading.enumerate()
        run = self.recording(events, failing={1}, delays={0: 0.05})
        with pytest.raises(MemoryError, match="injected 1"):
            estimators._paired(run, 7, True)
        assert events[-1] == ("end", 0)
        assert sorted(e[1] for e in events if e[0] == "start") == [0, 1]
        assert threading.enumerate() == before

    def test_a_caller_failure_joins_the_helper_and_raises_its_own(self):
        # call 0 fails at once; the helper's call 1 ends later, and no pair follows
        events, before = [], threading.enumerate()
        run = self.recording(events, failing={0}, delays={1: 0.05})
        with pytest.raises(MemoryError, match="injected 0"):
            estimators._paired(run, 7, True)
        assert events[-1] == ("end", 1)
        assert sorted(e[1] for e in events if e[0] == "start") == [0, 1]
        assert threading.enumerate() == before

    @pytest.mark.parametrize("delays", [{0: 0.05}, {1: 0.05}], ids=["helper-first", "caller-first"])
    @pytest.mark.parametrize("pair", [0, 2])
    def test_failures_on_both_threads_raise_the_earlier_calls(self, delays, pair):
        events, before = [], threading.enumerate()
        run = self.recording(events, failing={pair, pair + 1}, delays={pair + k: t for k, t in delays.items()})
        with pytest.raises(MemoryError, match=f"injected {pair}$"):
            estimators._paired(run, 7, True)
        assert sorted(e[1] for e in events if e[0] == "start") == list(range(pair + 2))
        assert threading.enumerate() == before

    def test_concurrent_callers_under_frequent_switches(self):
        # four callers, each running nine calls in pairs with helpers of its own
        results = queue.Queue()

        def run(k):
            return float(np.einsum("i,i->", np.arange(64.0) + k, np.arange(64.0)))

        def call():
            for _ in range(3):
                results.put(estimators._paired(run, 9, True))

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call) for _ in range(4)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert threading.enumerate() == before
        assert results.qsize() == 12
        while not results.empty():
            assert results.get() == [run(k) for k in range(9)]


class TestHsicV:
    def test_identical_samples_give_zero(self):
        ds = Dataset(np.tile([0.4, -1.0], (6, 1)), B11)
        assert hsic_v(PK11, ds) == 0.0

    def test_constant_block_gives_zero(self):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=(10, 2))
        vals[:, 1] = 3.0
        assert abs(hsic_v(PK11, Dataset(vals, B11))) <= 1e-12

    def test_matches_definition_enumeration_two_blocks(self):
        rng = np.random.default_rng(14)
        block = BlockStructure((2, 1))
        ds = Dataset(rng.normal(size=(7, 3)), block)
        pk = ProductKernel(block, (KernelSpec("gaussian", 0.7), KernelSpec("laplace", 1.3)))
        expected = naive_hsic_v(pk.specs, [block_values(ds, 0), block_values(ds, 1)])
        assert hsic_v(pk, ds) == pytest.approx(expected, abs=1e-12)

    def test_matches_definition_enumeration_three_blocks(self):
        rng = np.random.default_rng(15)
        block = BlockStructure((1, 2, 1))
        ds = Dataset(rng.normal(size=(5, 4)), block)
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        expected = naive_hsic_v(pk.specs, [block_values(ds, m) for m in range(3)])
        assert hsic_v(pk, ds) == pytest.approx(expected, abs=1e-12)

    def test_trace_form_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            n = int(rng.integers(5, 201))
            ds = Dataset(rng.normal(size=(n, 2)), B11)
            grams, _ = product_gram(PK11, ds)
            assert hsic_v(PK11, ds) == pytest.approx(
                trace_form_hsic_v(grams[0], grams[1]), rel=1e-10, abs=0.0
            )

    def test_nonnegative_on_random_data(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            ds = Dataset(rng.normal(size=(12, 2)), B11)
            assert hsic_v(PK11, ds) >= -1e-12

    def test_requires_two_samples_and_two_blocks(self):
        with pytest.raises(ValueError):
            hsic_v(PK11, Dataset(np.zeros((1, 2)), B11))
        single = BlockStructure((2,))
        with pytest.raises(ValueError):
            hsic_v(
                ProductKernel.homogeneous(single, KernelFamily.GAUSSIAN, 1.0),
                Dataset(np.zeros((3, 2)), single),
            )


class TestHsicU:
    def test_minimal_n_four_is_legal(self):
        ds = random_dataset(1, n=4)
        assert math.isfinite(hsic_u(PK11, ds))

    def test_matches_distinct_tuple_enumeration(self):
        rng = np.random.default_rng(19)
        ds = Dataset(rng.normal(size=(8, 2)), B11)
        grams, _ = product_gram(PK11, ds)
        assert hsic_u(PK11, ds) == pytest.approx(
            naive_hsic_u(grams[0], grams[1]), abs=1e-12
        )

    def test_light_unbiasedness_check(self):
        # quick version of the full acceptance run: 2000 replicates at n=32
        reps, n = 2000, 32
        truth = hsic2_gaussian(alt_measure(0.6), B11, 1.0).value
        values = np.empty(reps)
        g = alt_measure(0.6)
        for r in range(reps):
            values[r] = hsic_u(PK11, sample(g, n, rnglib.derive(505, r), B11))
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - truth) <= 5 * se

    def test_requires_n_ge_4_and_two_blocks(self):
        with pytest.raises(ValueError):
            hsic_u(PK11, random_dataset(0, n=3))
        block = BlockStructure((1, 1, 1))
        with pytest.raises(ValueError):
            hsic_u(
                ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0),
                Dataset(np.zeros((5, 3)), block),
            )


class TestHsicNystrom:
    def test_full_landmarks_recover_v_statistic(self):
        for seed, rho in ((3, 0.6), (4, 0.0), (5, 0.6)):
            ds = random_dataset(seed, n=120, rho=rho)
            value = hsic_nystrom(PK11, ds, 120, seed)
            target = math.sqrt(max(0.0, hsic_v(PK11, ds)))
            assert value == pytest.approx(target, rel=1e-6, abs=0.0)
            # the same landmark draw as hsic_nystrom's
            points = tuple(
                block_values(ds, m)[rnglib.stream(seed, "landmarks", m).choice(120, size=120, replace=False)]
                for m in range(2)
            )
            cross = nystrom_cross_cov(PK11, ds, points)
            assert np.linalg.norm(cross) == pytest.approx(value, abs=1e-12)
            assert cross.shape == (120, 120)

    def test_constant_block_gives_zero(self):
        vals = np.random.default_rng(6).normal(size=(40, 2))
        vals[:, 0] = -1.5
        value = hsic_nystrom(PK11, Dataset(vals, B11), 10, 0)
        assert abs(value) <= 1e-10

    def test_a_landmark_count_that_is_not_an_integer_is_refused(self):
        # 2.9 ran with 2 landmarks; 10.0 and a numpy 10 are ten
        ds = random_dataset(7, n=40)
        with pytest.raises(ValueError, match="landmarks must be an integer, got 2.9"):
            hsic_nystrom(PK11, ds, 2.9, 0)
        assert hsic_nystrom(PK11, ds, 10.0, 0) == hsic_nystrom(PK11, ds, np.int64(10), 0) == hsic_nystrom(PK11, ds, 10, 0)

    def test_moderate_landmarks_approximate_analytic_value(self):
        target = hsic2_gaussian(alt_measure(0.6), B11, 1.0).hsic
        values = []
        for seed in range(20):
            ds = sample(alt_measure(0.6), 2000, rnglib.derive(77, seed), B11)
            value = hsic_nystrom(PK11, ds, 200, rnglib.derive(78, seed))
            values.append(value)
        assert abs(np.mean(values) - target) <= 0.02

    def test_argument_validation(self):
        ds = random_dataset(7, n=10)
        with pytest.raises(ValueError):
            hsic_nystrom(PK11, ds, 11, 0)
        with pytest.raises(ValueError):
            hsic_nystrom(PK11, ds, 1, 0)
        block = BlockStructure((1, 1, 1))
        with pytest.raises(ValueError):
            hsic_nystrom(
                ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0),
                Dataset(np.zeros((5, 3)), block),
                2,
                0,
            )

    def test_reverse_triangle_with_shared_landmarks(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ds_a = Dataset(rng.normal(size=(40, 2)), B11)
            ds_b = Dataset(rng.normal(size=(40, 2)), B11)
            landmarks = (rng.normal(size=(12, 1)), rng.normal(size=(12, 1)))
            ca = nystrom_cross_cov(PK11, ds_a, landmarks)
            cb = nystrom_cross_cov(PK11, ds_b, landmarks)
            distance = float(np.linalg.norm(ca - cb))
            assert distance >= abs(np.linalg.norm(ca) - np.linalg.norm(cb)) - 1e-12


class TestMmdV:
    SPEC = KernelSpec(KernelFamily.GAUSSIAN, 1.0)

    def test_identical_samples_give_zero(self):
        ds = random_dataset(8, n=15)
        assert mmd_v(self.SPEC, ds, ds) == 0.0

    def test_two_point_expansion(self):
        x = Dataset(np.array([[0.0, 0.0]]), B11)
        y = Dataset(np.array([[1.0, 1.0]]), B11)
        expected = 2.0 - 2.0 * math.exp(-0.5 * 2.0)
        assert mmd_v(self.SPEC, x, y) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_matches_exact_finite_sample_expectation(self):
        # E[mean gram] has a closed form through embedding inner products, so
        # the Monte Carlo mean can be compared against the exact expectation
        n, reps = 500, 50
        g1 = GaussianMeasure.standard(1)
        g2 = GaussianMeasure(np.array([1.0]), np.eye(1))
        exact = (
            embedding_inner(g1, g1, 1.0)
            + embedding_inner(g2, g2, 1.0)
            - 2.0 * embedding_inner(g1, g2, 1.0)
            + (1.0 - embedding_inner(g1, g1, 1.0)) / n
            + (1.0 - embedding_inner(g2, g2, 1.0)) / n
        )
        values = np.empty(reps)
        for r in range(reps):
            x = sample(g1, n, rnglib.derive(901, r))
            y = sample(g2, n, rnglib.derive(902, r))
            values[r] = mmd_v(self.SPEC, x, y)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) <= 4 * se

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mmd_v(self.SPEC, random_dataset(0), Dataset(np.zeros((3, 3)), BlockStructure((3,))))


class TestInvariances:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            ds = random_dataset(trial, n=25, rho=0.6)
            perm = rng.permutation(25)
            permuted = Dataset(ds.values[perm], B11)
            assert hsic_v(PK11, permuted) == pytest.approx(hsic_v(PK11, ds), rel=1e-12, abs=0.0)
            assert hsic_u(PK11, permuted) == pytest.approx(hsic_u(PK11, ds), rel=1e-12, abs=0.0)
            other = random_dataset(trial + 1000, n=25)
            assert mmd_v(KernelSpec("gaussian", 1.0), permuted, other) == pytest.approx(
                mmd_v(KernelSpec("gaussian", 1.0), ds, other), rel=1e-12, abs=0.0
            )
            # full-landmark Nystrom: the landmark set is permutation stable,
            # features only change by an orthogonal reindexing
            v_perm = hsic_nystrom(PK11, permuted, 25, 5)
            v_orig = hsic_nystrom(PK11, ds, 25, 5)
            assert v_perm == pytest.approx(v_orig, rel=1e-9, abs=0.0)

    def test_block_shift_invariance(self):
        rng = np.random.default_rng(32)
        for trial in range(20):
            ds = random_dataset(trial + 50, n=25, rho=0.6)
            shift = float(rng.normal(scale=3.0))
            shifted_vals = ds.values.copy()
            shifted_vals[:, 0] += shift
            shifted = Dataset(shifted_vals, B11)
            assert abs(hsic_v(PK11, shifted) - hsic_v(PK11, ds)) <= 1e-12
            assert abs(hsic_u(PK11, shifted) - hsic_u(PK11, ds)) <= 1e-12
            v_shift = hsic_nystrom(PK11, shifted, 25, 9)
            v_orig = hsic_nystrom(PK11, ds, 25, 9)
            assert abs(v_shift - v_orig) <= 1e-9


class TestConsistencyRate:
    def test_v_statistic_error_decays_at_root_n(self):
        # fixed alternative, RMSE of sqrt(V) against the analytic value
        target = hsic2_gaussian(alt_measure(0.6), B11, 1.0).hsic
        grid = (64, 128, 256, 512, 1024, 2048, 4096)
        reps = 30
        rmse = []
        for n in grid:
            errs = np.empty(reps)
            for r in range(reps):
                ds = sample(alt_measure(0.6), n, rnglib.derive(4242, n, r), B11)
                errs[r] = math.sqrt(max(0.0, hsic_v(PK11, ds))) - target
            rmse.append(float(np.sqrt(np.mean(errs**2))))
        slope = np.polyfit(np.log(grid), np.log(rmse), 1)[0]
        assert -0.65 <= slope <= -0.35
