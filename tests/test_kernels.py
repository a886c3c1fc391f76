import math
import sys
import warnings

import numpy as np
import pytest

from hsiclab import (
    BlockStructure,
    Dataset,
    KernelFamily,
    KernelSpec,
    ProductKernel,
    block_stats,
    gram,
)
from hsiclab import kernels
from hsiclab.estimators import THREAD_MIN_N
from hsiclab.kernels import SPECTRAL_BLOCK_ROWS, LagTiles, coordinate_major, spectral_blocks, spectral_exp_sq_mean, stacked_gram
from helpers import eval_kernel, product_gram, whole_draw

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1.0)
LAP2 = KernelSpec(KernelFamily.LAPLACE, 2.0)


def joined_blocks(spec, dim, n, seed):
    """The frequency blocks of one ``spectral_blocks`` call as one (n, dim) array."""
    return np.concatenate(list(spectral_blocks(spec, dim, n, seed)))


class TestKernelSpec:
    def test_accepts_family_names(self):
        assert KernelSpec("gaussian", 1.0).family is KernelFamily.GAUSSIAN
        assert KernelSpec("laplace", 0.5).family is KernelFamily.LAPLACE

    def test_rejects_bad_gamma_and_family(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", 0.0)
        with pytest.raises(ValueError):
            KernelSpec("cauchy", 1.0)


class TestEvalKernel:
    def test_zero_lag_is_one(self):
        x = np.array([0.3, -1.2])
        assert eval_kernel(GAUSS1, x, x) == 1.0
        assert eval_kernel(LAP2, x, x) == 1.0

    def test_gaussian_unit_lag(self):
        assert eval_kernel(GAUSS1, [0.0], [1.0]) == pytest.approx(math.exp(-0.5), rel=1e-12, abs=0.0)

    def test_laplace_value(self):
        assert eval_kernel(LAP2, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            math.exp(-4.0), rel=1e-12, abs=0.0
        )

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(9)
        for spec in (GAUSS1, LAP2, KernelSpec("gaussian", 0.25)):
            for _ in range(20):
                x, y, c = rng.normal(size=(3, 4))
                assert eval_kernel(spec, x, y) == eval_kernel(spec, y, x)
                assert eval_kernel(spec, x + c, y + c) == pytest.approx(
                    eval_kernel(spec, x, y), abs=1e-12
                )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_kernel(GAUSS1, [0.0], [0.0, 1.0])


class TestGram:
    def test_single_point(self):
        assert np.array_equal(gram(GAUSS1, [[0.5]], [[0.5]]), [[1.0]])

    def test_one_by_one_consistency(self):
        x = np.array([[0.1, 2.0]])
        y = np.array([[-1.0, 0.4]])
        assert gram(LAP2, x, y)[0, 0] == pytest.approx(
            eval_kernel(LAP2, x[0], y[0]), rel=1e-14, abs=0.0
        )

    def test_symmetric_psd_small(self):
        x = np.array([[0.0], [1.0], [-2.0]])
        k = gram(GAUSS1, x, x)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert np.linalg.eigvalsh(k).min() >= -1e-10

    @pytest.mark.parametrize("spec", [GAUSS1, LAP2])
    def test_psd_random(self, spec):
        rng = np.random.default_rng(17)
        for _ in range(5):
            n = int(rng.integers(2, 51))
            x = rng.normal(size=(n, 3))
            k = gram(spec, x, x)
            assert np.linalg.eigvalsh((k + k.T) / 2).min() >= -1e-8

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            gram(GAUSS1, np.zeros((2, 2)), np.zeros((2, 3)))


class TestLagSum:
    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("points", ["arrays", "lists", "one point"])
    def test_matches_pairwise_distances(self, family, points):
        # lists are read as float arrays, and a 1-D x as one point
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        diff = x[:, None, :] - y[None, :, :]
        expected = (diff**2 if family is KernelFamily.GAUSSIAN else np.abs(diff)).sum(axis=2)
        args = {"arrays": (x, y), "lists": (x.tolist(), y.tolist()), "one point": (x[0], y)}[points]
        if points == "one point":
            x, expected = x[:1], expected[:1]
        np.testing.assert_allclose(LagTiles(family, *args).whole(), expected, rtol=1e-14, atol=0)
        spec = KernelSpec(family, 2.0)
        assert np.array_equal(stacked_gram(spec, *args), stacked_gram(spec, x, y))

    @pytest.mark.parametrize(
        "whole", [lambda x, y: LagTiles(KernelFamily.LAPLACE, x, y).whole(), lambda x, y: stacked_gram(LAP2, x, y)],
        ids=["lags", "stacked_gram"],
    )
    def test_column_mismatch(self, whole):
        with pytest.raises(ValueError, match="column counts differ"):
            whole(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="column counts differ"):
            whole(np.zeros((2, 4, 2)), [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("gamma", [None, 1.0, 5.0], ids=["lags", "gamma=1", "gamma=5"])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_tiles_are_blocks_of_the_whole(self, family, gamma, dims):
        # a pass's tiles, each under its row_scope, against the whole lags and
        # stacked_gram of the same rows and columns; at gamma = 5 both
        # families' scales are below -1, where the scope guards the overflow
        rng = np.random.default_rng(12)
        x = coordinate_major(rng.normal(size=(2, 150, dims)) * 3.0)
        y = coordinate_major(rng.normal(size=(2, 140, dims)) * 3.0)
        tiles = LagTiles(family, x, y, gamma)
        assert tiles.guard == (gamma == 5.0)
        cuts = [(0, 64, 0), (64, 128, 64), (128, 150, 128), (5, 6, 139), (0, 150, 0)]
        got = []
        for i0, i1, j0 in cuts:
            out, scratch = np.full((2, i1 - i0, 140 - j0), np.nan), np.empty((2, i1 - i0, 140 - j0))
            with kernels.row_scope(140 - j0, 140 - j0, tiles.guard):
                assert tiles(i0, i1, j0, out, scratch) is out
            got.append(out)
        for (i0, i1, j0), out in zip(cuts, got):
            a, b = x[:, i0:i1], y[:, j0:]
            whole = LagTiles(family, a, b).whole() if gamma is None else stacked_gram(KernelSpec(family, gamma), a, b)
            assert np.array_equal(out, whole), (i0, i1, j0)

    @pytest.mark.parametrize("spec", [GAUSS1, LAP2])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_gram_into_caller_buffers(self, spec, dims):
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(2, 7, dims)), rng.normal(size=(2, 4, dims))
        out, scratch = np.full((2, 7, 4), np.nan), np.empty((2, 7, 4))
        result = stacked_gram(spec, x, y, out=out, scratch=scratch)
        assert result is out
        assert np.array_equal(out, stacked_gram(spec, x, y))

    @pytest.mark.parametrize("spec", [GAUSS1, LAP2])
    @pytest.mark.parametrize("dims", [1, 3])
    def test_stacked_gram_is_each_pair_alone(self, spec, dims):
        rng = np.random.default_rng(7)
        x, y = rng.normal(size=(5, 7, dims)), rng.normal(size=(5, 4, dims))
        stacked = stacked_gram(spec, x, y)
        assert stacked.shape == (5, 7, 4)
        for r in range(5):
            assert np.array_equal(stacked[r], gram(spec, x[r], y[r]))
        with pytest.raises(ValueError, match="2-D"):
            gram(spec, x, y)


    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_layout_changes_no_bit(self, family, dims, monkeypatch):
        # block columns of row-major stacks, as the estimators cut them, and
        # their coordinate-major copies, whose n axis has unit stride; rows
        # on both sides of UNBUFFERED_MIN_WIDTH, against the same call under
        # numpy's default buffer
        rng = np.random.default_rng(8)
        spec = KernelSpec(family, 1.0)
        for width in (5, 8, 32, 63, 64, 65, 256, 2048):
            x = rng.normal(size=(3, 7, dims + 2))[..., 1 : 1 + dims]
            y = rng.normal(size=(3, width, dims + 2))[..., 1 : 1 + dims]
            for a, b in ((x, y), (x[0], y[0])):
                ac, bc = coordinate_major(a), coordinate_major(b)
                assert np.array_equal(ac, a) and np.array_equal(bc, b)
                assert ac.strides[-2] == bc.strides[-2] == ac.itemsize
                with monkeypatch.context() as patch:
                    patch.setattr(kernels, "UNBUFFERED_MIN_WIDTH", sys.maxsize)
                    lags, grams = LagTiles(family, a, b).whole(), stacked_gram(spec, a, b)
                for pair in ((a, b), (ac, bc), (a, bc), (ac, b)):
                    assert np.array_equal(LagTiles(family, *pair).whole(), lags)
                    assert np.array_equal(stacked_gram(spec, *pair), grams)

    def test_the_coordinate_loop_runs_under_one_row_buffer(self, monkeypatch):
        # rows of UNBUFFERED_MIN_WIDTH or more floats enter the scope once
        # per call, whatever the coordinate count; narrower rows never
        sizes = []
        setbufsize = np.setbufsize

        def recording(size):
            sizes.append(size)
            return setbufsize(size)

        monkeypatch.setattr(np, "setbufsize", recording)
        x = np.zeros((4, 3))
        caller = np.getbufsize()
        LagTiles(KernelFamily.GAUSSIAN, x, np.zeros((kernels.UNBUFFERED_MIN_WIDTH - 1, 3))).whole()
        assert sizes == []
        LagTiles(KernelFamily.GAUSSIAN, x, np.zeros((kernels.UNBUFFERED_MIN_WIDTH, 3))).whole()
        assert sizes == [kernels.ROW_BUFSIZE, caller]
        # rows numpy never buffers skip the scope
        del sizes[:]
        LagTiles(KernelFamily.GAUSSIAN, x, np.zeros((kernels.NEVER_BUFFERED_WIDTH - 1, 3))).whole()
        assert sizes == [kernels.ROW_BUFSIZE, caller]
        del sizes[:]
        LagTiles(KernelFamily.GAUSSIAN, x, np.zeros((kernels.NEVER_BUFFERED_WIDTH, 3))).whole()
        assert sizes == []

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("stacked", [False, True], ids=["2-D", "stacked"])
    def test_rows_past_the_buffer_keep_their_bits(self, family, stacked, monkeypatch):
        # on both sides of NEVER_BUFFERED_WIDTH, the hex of every lag is that
        # of the same call with every row of 64+ floats in the scope, and of
        # the same call under numpy's default buffer
        rng = np.random.default_rng(11)
        for width in (kernels.NEVER_BUFFERED_WIDTH + offset for offset in (-2, -1, 0, 1, 1365)):
            x = coordinate_major(rng.normal(size=(2, 33, 3)))
            y = coordinate_major(rng.normal(size=(2, width, 3)) * 1e3)
            if not stacked:
                x, y = x[0], y[0]
            lags = LagTiles(family, x, y).whole().tobytes().hex()
            for name in ("NEVER_BUFFERED_WIDTH", "UNBUFFERED_MIN_WIDTH"):
                with monkeypatch.context() as patch:
                    patch.setattr(kernels, name, sys.maxsize)
                    assert LagTiles(family, x, y).whole().tobytes().hex() == lags, (width, name)

    @pytest.mark.parametrize("caller", [None, 2**16])
    def test_callers_buffer_size_survives(self, caller):
        # numpy 1.x keeps the size in a thread-local error object that
        # errstate does not restore, so the scope restores it itself
        previous = np.getbufsize()
        if caller is not None:
            np.setbufsize(caller)
        try:
            size = np.getbufsize()
            x, y = np.zeros((4, 2)), np.zeros((256, 2))
            LagTiles(KernelFamily.LAPLACE, x, y).whole()
            assert np.getbufsize() == size
            with pytest.raises(ValueError):
                LagTiles(KernelFamily.LAPLACE, x, y).whole(np.empty((4, 255)))
            assert np.getbufsize() == size
            # from THREAD_MIN_N rows on, the lanes may run on a helper thread
            data = Dataset(np.random.default_rng(2).normal(size=(THREAD_MIN_N, 2)), BlockStructure((1, 1)))
            block_stats(ProductKernel.homogeneous(data.block, KernelFamily.GAUSSIAN, 1.0), data)
            assert np.getbufsize() == size
        finally:
            np.setbufsize(previous)

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_huge_bandwidth_gives_the_identity_without_warnings(self, family):
        # the scaled lags overflow to -inf for the Laplace family, and
        # exp(-inf) = 0 is the exact limit
        x = np.random.default_rng(3).normal(size=(1, 6, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = stacked_gram(KernelSpec(family, 1e308), x, x)
        assert np.array_equal(k[0], np.eye(6))


class TestProductGram:
    def _dataset(self, rng, n=6, dims=(1, 2)):
        block = BlockStructure(dims)
        return Dataset(rng.normal(size=(n, block.total)), block)

    def test_constant_block_is_multiplicative_identity(self):
        rng = np.random.default_rng(3)
        block = BlockStructure((1, 1))
        vals = rng.normal(size=(5, 2))
        vals[:, 0] = 2.5
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        grams, prod = product_gram(pk, Dataset(vals, block))
        assert np.array_equal(grams[0], np.ones((5, 5)))
        assert np.array_equal(prod, grams[1])

    def test_two_sample_hand_evaluation(self):
        block = BlockStructure((1, 1))
        vals = np.array([[0.0, 0.0], [1.0, 2.0]])
        pk = ProductKernel(block, (GAUSS1, KernelSpec("gaussian", 0.5)))
        _, prod = product_gram(pk, Dataset(vals, block))
        expected = math.exp(-0.5 * 1.0) * math.exp(-0.25 * 4.0)
        assert prod[0, 1] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert np.all(np.diag(prod) == 1.0)

    @pytest.mark.parametrize("family", [KernelFamily.GAUSSIAN, KernelFamily.LAPLACE])
    def test_matches_tensor_kernel_on_concatenated_coordinates(self, family):
        # with one shared bandwidth the product over blocks equals the same
        # kernel evaluated on the full vectors
        rng = np.random.default_rng(8)
        block = BlockStructure((2, 1, 3))
        vals = rng.normal(size=(7, block.total))
        spec = KernelSpec(family, 0.8)
        pk = ProductKernel.homogeneous(block, family, 0.8)
        _, prod = product_gram(pk, Dataset(vals, block))
        full = gram(spec, vals, vals)
        assert np.allclose(prod, full, atol=1e-12)

    def test_structure_mismatch(self):
        rng = np.random.default_rng(0)
        ds = self._dataset(rng, dims=(1, 2))
        pk = ProductKernel.homogeneous(BlockStructure((2, 1)), KernelFamily.GAUSSIAN, 1.0)
        with pytest.raises(ValueError):
            product_gram(pk, ds)

    def test_spec_count_mismatch(self):
        with pytest.raises(ValueError):
            ProductKernel(BlockStructure((1, 1)), (GAUSS1,))


class TestSpectralSample:
    def test_shape_and_determinism(self):
        w1 = joined_blocks(GAUSS1, 3, 100, 5)
        w2 = joined_blocks(GAUSS1, 3, 100, 5)
        assert w1.shape == (100, 3)
        assert np.array_equal(w1, w2)

    def test_zero_lag_average_is_exactly_one(self):
        omegas = joined_blocks(LAP2, 2, 1000, 1)
        assert np.cos(omegas @ np.zeros(2)).mean() == 1.0

    def test_gaussian_cosine_average_recovers_kernel(self):
        n = 1_000_000
        omegas = joined_blocks(GAUSS1, 2, n, 123)
        lag = np.array([1.0, 0.0])
        vals = np.cos(omegas @ lag)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-0.5)) <= 4 * se

    def test_laplace_cosine_average_recovers_kernel(self):
        n = 1_000_000
        omegas = joined_blocks(KernelSpec("laplace", 1.0), 1, n, 321)
        vals = np.cos(omegas[:, 0])
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - math.exp(-1.0)) <= 4 * se

    @pytest.mark.parametrize("spec", [GAUSS1, LAP2, KernelSpec("laplace", 0.5)])
    def test_bochner_consistency_on_random_lags(self, spec):
        n = 100_000
        rng = np.random.default_rng(77)
        omegas = joined_blocks(spec, 3, n, 999)
        for _ in range(10):
            x, y = rng.normal(size=(2, 3))
            avg = np.cos(omegas @ (x - y)).mean()
            assert abs(avg - eval_kernel(spec, x, y)) <= 4.0 / math.sqrt(n)

    def test_argument_validation(self):
        # the arguments are checked at the call, before any block is drawn
        with pytest.raises(ValueError):
            spectral_blocks(GAUSS1, 0, 10, 0)
        with pytest.raises(ValueError):
            spectral_blocks(GAUSS1, 1, 0, 0)
        with pytest.raises(ValueError):
            spectral_blocks(GAUSS1, 2, -1, 0)

    @pytest.mark.parametrize("n", [1, SPECTRAL_BLOCK_ROWS - 1, SPECTRAL_BLOCK_ROWS, 2 * SPECTRAL_BLOCK_ROWS + 3])
    @pytest.mark.parametrize("spec", [GAUSS1, LAP2, KernelSpec("laplace", 1e307)])
    def test_blocks_are_one_draw_cut_in_rows(self, spec, n):
        # Philox continues where the last block stopped, so the blocks hold
        # the bits of one draw; at 1e307 some Laplace draws are +-inf
        blocks = list(spectral_blocks(spec, 3, n, 17))
        assert [len(block) for block in blocks[:-1]] == [SPECTRAL_BLOCK_ROWS] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1]) <= SPECTRAL_BLOCK_ROWS
        whole = whole_draw(spec, 3, n, 17)
        assert np.array_equal(np.concatenate(blocks), whole)


class TestSpectralExpSqMean:
    GAMMAS = np.geomspace(1e-6, 1e6, 2401)

    def test_gaussian_closed_form(self):
        got = [spectral_exp_sq_mean(KernelSpec("gaussian", g)) for g in self.GAMMAS]
        np.testing.assert_allclose(got, (1.0 + 2.0 * self.GAMMAS) ** -0.5, rtol=1e-15, atol=0)

    def test_laplace_matches_erfcx(self):
        from scipy.special import erfcx

        got = [spectral_exp_sq_mean(KernelSpec("laplace", g)) for g in self.GAMMAS]
        np.testing.assert_allclose(got, erfcx(self.GAMMAS), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("spec", [GAUSS1, LAP2, KernelSpec("laplace", 0.25)])
    def test_monte_carlo_expectation(self, spec):
        n = 200_000
        vals = np.exp(-joined_blocks(spec, 1, n, 55)[:, 0] ** 2)
        se = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - spectral_exp_sq_mean(spec)) <= 4 * se

    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_finite_and_accurate_at_every_bandwidth(self, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = {g: spectral_exp_sq_mean(KernelSpec(family, g)) for g in (5e-324, 1e-300, 1e154, 1e300, sys.float_info.max)}
        assert values[5e-324] == values[1e-300] == 1.0
        # the leading terms sqrt(1 / (2 gamma)) and 1 / (gamma sqrt(pi))
        for g in (1e154, 1e300):
            lead = math.sqrt(0.5 / g) if family is KernelFamily.GAUSSIAN else 1.0 / (g * math.sqrt(math.pi))
            assert values[g] == pytest.approx(lead, rel=1e-15, abs=0.0)
        assert 0.0 < values[sys.float_info.max] < 1e-150
