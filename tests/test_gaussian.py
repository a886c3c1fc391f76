import math

import numpy as np
import pytest

from hsiclab import (
    BlockStructure,
    GaussianMeasure,
    build_pair,
    char_fn,
    kl_adversarial_bound,
    kl_adversarial_exact,
    make_adversarial_cov,
    sample,
    sample_stack,
)
from hsiclab import rng
from helpers import kl_gaussians, random_spd

B11 = BlockStructure((1, 1))


class TestMakeAdversarialCov:
    def test_zero_rho_is_identity(self):
        assert np.array_equal(make_adversarial_cov(B11, 0.0), np.eye(2))

    def test_two_by_two(self):
        cov = make_adversarial_cov(B11, 0.5)
        assert np.array_equal(cov, [[1.0, 0.5], [0.5, 1.0]])
        assert np.linalg.det(cov) == pytest.approx(0.75, rel=1e-12, abs=0.0)

    def test_index_placement_straddles_first_boundary(self):
        cov = make_adversarial_cov(BlockStructure((2, 1)), 0.3)
        expected = np.eye(3)
        expected[1, 2] = expected[2, 1] = 0.3
        assert np.array_equal(cov, expected)

    @pytest.mark.parametrize("rho", [0.0, 0.1, -0.1, 0.5, -0.5, 0.9, -0.9])
    def test_determinant_grid(self, rho):
        for block in (B11, BlockStructure((2, 2)), BlockStructure((3, 1))):
            det = np.linalg.det(make_adversarial_cov(block, rho))
            assert det == pytest.approx(1.0 - rho * rho, rel=1e-12, abs=0.0)

    def test_rejects_unit_rho(self):
        with pytest.raises(ValueError):
            make_adversarial_cov(B11, 1.0)
        with pytest.raises(ValueError):
            make_adversarial_cov(B11, -1.2)

    def test_rejects_single_block(self):
        with pytest.raises(ValueError):
            make_adversarial_cov(BlockStructure((3,)), 0.5)


class TestGaussianMeasure:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMeasure(np.zeros(2), [[1.0, 0.3], [0.2, 1.0]])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMeasure(np.zeros(2), [[1.0, 1.0], [1.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianMeasure(np.zeros(3), np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_mean_or_cov(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianMeasure(np.array([0.0, bad]), np.eye(2))
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            GaussianMeasure(np.zeros(2), cov)

    def test_cholesky_reconstructs_cov(self):
        rng = np.random.default_rng(5)
        cov = random_spd(rng, 4)
        g = GaussianMeasure(rng.normal(size=4), cov)
        assert np.allclose(g.chol @ g.chol.T, cov, atol=1e-12)


class TestSample:
    def test_deterministic_in_seed(self):
        g = GaussianMeasure.standard(2)
        a = sample(g, 3, 7)
        b = sample(g, 3, 7)
        assert a.values.shape == (3, 2)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, sample(g, 3, 8).values)

    def test_diagonal_variances_within_five_se(self):
        n = 100_000
        diag = np.array([0.5, 2.0, 1.0])
        g = GaussianMeasure(np.array([1.0, -2.0, 0.0]), np.diag(diag))
        ds = sample(g, n, 11)
        sample_var = ds.values.var(axis=0, ddof=1)
        se = diag * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(sample_var - diag) <= 5 * se)

    def test_zero_mean_norm_clt_bound(self):
        n = 100_000
        cov = random_spd(np.random.default_rng(3), 3)
        g = GaussianMeasure(np.zeros(3), cov)
        ds = sample(g, n, 13)
        assert np.linalg.norm(ds.values.mean(axis=0)) <= 5 * math.sqrt(np.trace(cov) / n)

    def test_block_attachment_and_errors(self):
        g = GaussianMeasure.standard(3)
        ds = sample(g, 5, 0, BlockStructure((2, 1)))
        assert ds.block.dims == (2, 1)
        with pytest.raises(ValueError):
            sample(g, 0, 0)
        with pytest.raises(ValueError):
            sample(g, 5, 0, BlockStructure((1, 1)))

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_stacked_rows_are_each_seed_alone(self, d):
        g = GaussianMeasure(np.arange(d) / 3.0, random_spd(np.random.default_rng(d), d))
        seeds = [0, 7, 2**40 + 9, -3]
        stack = sample_stack(g, 33, rng.streams(seeds), len(seeds))
        assert stack.shape == (4, 33, d)
        for rows, seed in zip(stack, seeds):
            assert np.array_equal(rows, sample(g, 33, seed).values)
            z = rng.stream(seed).standard_normal((33, d))
            assert np.array_equal(rows, g.mean + z @ g.chol.T)
        # each call takes only its own generators from a shared iterator
        gens = rng.streams(seeds)
        assert np.array_equal(np.concatenate([sample_stack(g, 33, gens, 3), sample_stack(g, 33, gens, 1)]), stack)
        with pytest.raises(ValueError, match="need 2 generators, got 1"):
            sample_stack(g, 33, rng.streams(seeds[:1]), 2)


class TestCharFn:
    def test_origin_is_one(self):
        g = GaussianMeasure(np.array([2.0, -1.0]), random_spd(np.random.default_rng(0), 2))
        assert char_fn(g, np.zeros(2)) == 1.0 + 0.0j

    def test_standard_normal_value(self):
        g = GaussianMeasure.standard(1)
        assert char_fn(g, np.array([1.0])) == pytest.approx(math.exp(-0.5), rel=1e-12, abs=0.0)

    def test_shifted_mean_value(self):
        g = GaussianMeasure(np.array([1.0]), np.eye(1))
        expected = math.exp(-0.5) * complex(math.cos(1.0), math.sin(1.0))
        assert char_fn(g, np.array([1.0])) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_modulus_bounded_and_zero_mean_real(self):
        rng = np.random.default_rng(21)
        g = GaussianMeasure(np.zeros(3), random_spd(rng, 3))
        omegas = rng.normal(size=(50, 3))
        vals = char_fn(g, omegas)
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)
        assert np.all(vals.imag == 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            char_fn(GaussianMeasure.standard(1), np.array([np.inf]))


class TestKlGaussians:
    def test_identical_measures_zero(self):
        g = GaussianMeasure(np.ones(2), random_spd(np.random.default_rng(1), 2))
        assert kl_gaussians(g, g) == 0.0

    def test_unit_shift_one_dim(self):
        g1 = GaussianMeasure(np.array([1.0]), np.eye(1))
        g0 = GaussianMeasure(np.array([0.0]), np.eye(1))
        assert kl_gaussians(g1, g0) == pytest.approx(0.5, rel=1e-12, abs=0.0)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            g1 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            g0 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            assert kl_gaussians(g1, g0) >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussians(GaussianMeasure.standard(2), GaussianMeasure.standard(3))

    def test_adversarial_pair_per_sample_scales_to_exact(self):
        null, alt = build_pair(2, B11)
        total = 2 * kl_gaussians(alt, null)
        assert total == pytest.approx(0.25 + math.log(2.0), rel=1e-10, abs=0.0)


class TestKlAdversarial:
    def test_exact_values(self):
        assert kl_adversarial_exact(2, math.sqrt(0.5)) == pytest.approx(
            0.25 + math.log(2.0), rel=1e-12, abs=0.0
        )
        assert kl_adversarial_exact(4, 0.5) == pytest.approx(
            0.125 + 2.0 * math.log(4.0 / 3.0), rel=1e-12, abs=0.0
        )

    def test_vanishing_rho_limit(self):
        for n in (2, 10, 1000):
            assert kl_adversarial_exact(n, 1e-9) == pytest.approx(1.0 / (2 * n), rel=1e-9, abs=0.0)

    def test_bound_values(self):
        assert kl_adversarial_bound(2, math.sqrt(0.5)) == pytest.approx(1.25, rel=1e-12, abs=0.0)
        assert kl_adversarial_bound(4, 0.5) == pytest.approx(0.125 + 2.0 / 3.0, rel=1e-12, abs=0.0)
        assert kl_adversarial_bound(100, 0.1) == pytest.approx(0.005 + 50.0 / 99.0, rel=1e-12, abs=0.0)

    def test_exact_below_bound_on_budget_grid(self):
        for n in (2, 3, 5, 17, 128, 1024, 9999):
            rho = 1.0 / math.sqrt(n)
            exact = kl_adversarial_exact(n, rho)
            bound = kl_adversarial_bound(n, rho)
            assert exact <= bound <= 1.25

    def test_product_additivity(self):
        for n in (2, 7, 64, 500):
            null, alt = build_pair(n, B11)
            assert n * kl_gaussians(alt, null) == pytest.approx(
                kl_adversarial_exact(n, 1.0 / math.sqrt(n)), rel=1e-10, abs=0.0
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            kl_adversarial_exact(1, 0.5)
        with pytest.raises(ValueError):
            kl_adversarial_exact(4, 1.0)
        with pytest.raises(ValueError):
            kl_adversarial_bound(4, -0.1)
