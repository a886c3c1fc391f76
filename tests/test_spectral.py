import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate

from hsiclab import (
    BlockStructure,
    GaussianMeasure,
    KernelFamily,
    KernelSpec,
    adversarial_hsic2,
    char_fn,
    gap_constant_partii,
    make_adversarial_cov,
    mmd2_gaussian,
    mmd2_spectral,
    verify_gap_partii,
)
from hsiclab import rng
from hsiclab.cli import CERTIFY_SPECTRAL_FREQS
from hsiclab.lecam import certificate_table
from hsiclab.kernels import SPECTRAL_BLOCK_ROWS
from helpers import critical_slope, full_draw_gap_constant, one_shot_gap_constant, random_spd, whole_draw, whole_draw_mmd2

B11 = BlockStructure((1, 1))
GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1.0)
# the bandwidths and block structures of the certify benchmark sweep
CERTIFY_SWEEP = [(gamma, dims) for dims in ((1, 1), (2, 2), (3, 1, 2), (4, 4)) for gamma in (0.25, 0.5, 1.0, 2.0, 4.0)]


def quadrature_gap_constant(gamma: float, d: int) -> float:
    """1-D quadrature oracle for the squared gap constant under the Gaussian
    kernel: the opposite-sign set carries probability 1/2 and the integrand
    factorizes across coordinates."""
    density = lambda w: math.exp(-w * w / (2.0 * gamma)) / math.sqrt(2.0 * math.pi * gamma)
    pair, _ = integrate.quad(lambda w: w * w * math.exp(-w * w) * density(w), -np.inf, np.inf)
    rest, _ = integrate.quad(lambda w: math.exp(-w * w) * density(w), -np.inf, np.inf)
    return 0.5 * pair * pair * rest ** (d - 2)


class TestMmd2Spectral:
    def test_identical_measures(self):
        g = GaussianMeasure.standard(2)
        est, se = mmd2_spectral(g, g, GAUSS1, 1000, 0)
        assert est == 0.0
        assert se == 0.0

    def test_worked_unit_shift(self):
        g1 = GaussianMeasure.standard(1)
        g2 = GaussianMeasure(np.array([1.0]), np.eye(1))
        est, se = mmd2_spectral(g1, g2, GAUSS1, 100_000, 42)
        assert se > 0
        assert abs(est - mmd2_gaussian(g1, g2, 1.0)) <= 4 * se

    def test_correlated_alternative_cross_oracle(self):
        g1 = GaussianMeasure.standard(2)
        g2 = GaussianMeasure(np.zeros(2), make_adversarial_cov(B11, 0.5))
        est, se = mmd2_spectral(g1, g2, GAUSS1, 100_000, 7)
        assert abs(est - mmd2_gaussian(g1, g2, 1.0)) <= 4 * se

    def test_random_pairs_within_four_se(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            d = int(rng.integers(1, 4))
            g1 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            g2 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            est, se = mmd2_spectral(g1, g2, GAUSS1, 30_000, trial)
            assert abs(est - mmd2_gaussian(g1, g2, 1.0)) <= 4 * se

    def test_laplace_huge_bandwidth_is_finite(self):
        # from gamma of about 1e306 on some Cauchy draws are +-inf, where the
        # integrand's limit is 0
        g = GaussianMeasure.standard(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est, se = mmd2_spectral(g, g, KernelSpec(KernelFamily.LAPLACE, 1e308), 1000, 0)
            shifted = GaussianMeasure(np.array([1e-300, 0.0]), np.eye(2))
            est2, se2 = mmd2_spectral(g, shifted, KernelSpec(KernelFamily.LAPLACE, 1e308), 1000, 0)
        assert (est, se) == (0.0, 0.0)
        assert math.isfinite(est2) and math.isfinite(se2)

    @pytest.mark.parametrize("gamma", [1e160, 1e200, 1e300])
    def test_laplace_huge_bandwidth_with_correlated_covariance_is_finite(self, gamma):
        # <w, cov w> is taken as |L^T w|^2, so a huge finite frequency gives
        # inf, whose exp is 0, where w.(cov w) summed inf and -inf to NaN
        g1 = GaussianMeasure.standard(2)
        g2 = GaussianMeasure(np.array([0.3, -0.2]), make_adversarial_cov(B11, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mmd2_spectral(g1, g2, KernelSpec(KernelFamily.LAPLACE, gamma), 5000, 11) == (0.0, 0.0)

    def test_laplace_overflowing_phase_is_finite(self):
        # <mean, w> overflows (and sums inf and -inf) at frequencies near the
        # float maximum, where the modulus is 0: i * inf was NaN
        g1 = GaussianMeasure.standard(3)
        cov = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
        g2 = GaussianMeasure(np.array([0.3, -0.2, 1.0]), cov)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert mmd2_spectral(g1, g2, KernelSpec(KernelFamily.LAPLACE, 1e308), 5000, 11) == (0.0, 0.0)

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3, 1e300])
    def test_finite_draws_average_the_whole_integrand(self, family, gamma):
        # while every draw is finite the estimate is the plain average of
        # |psi_1 - psi_2|^2 over all of them, to the bit
        g1 = GaussianMeasure.standard(2)
        g2 = GaussianMeasure(np.array([0.3, -0.2]), np.diag([1.5, 0.7]))
        spec = KernelSpec(family, gamma)
        omegas = whole_draw(spec, 2, 5000, 11)
        assert np.isfinite(omegas).all()
        values = np.abs(char_fn(g1, omegas) - char_fn(g2, omegas)) ** 2
        expected = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(5000)))
        assert mmd2_spectral(g1, g2, spec, 5000, 11) == expected

    @pytest.mark.parametrize("gamma", [0.5, 1e307])
    @pytest.mark.parametrize("family", list(KernelFamily))
    def test_row_blocks_keep_every_bit_of_one_draw(self, family, gamma):
        # three blocks of draws, the last of 3 rows, fill one integrand array
        # that is reduced whole; at 1e307 some Laplace draws are +-inf
        g1 = GaussianMeasure.standard(2)
        g2 = GaussianMeasure(np.array([0.3, -0.2]), np.diag([1.5, 0.7]))
        spec, n_freq = KernelSpec(family, gamma), 2 * SPECTRAL_BLOCK_ROWS + 3
        assert mmd2_spectral(g1, g2, spec, n_freq, 23) == whole_draw_mmd2(g1, g2, spec, n_freq, 23)
        if family is KernelFamily.LAPLACE and gamma == 1e307:
            assert not np.isfinite(whole_draw(spec, 2, n_freq, 23)).all()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mmd2_spectral(GaussianMeasure.standard(1), GaussianMeasure.standard(2), GAUSS1, 100, 0)
        with pytest.raises(ValueError):
            mmd2_spectral(GaussianMeasure.standard(1), GaussianMeasure.standard(1), GAUSS1, 1, 0)


class TestGapConstant:
    def test_quadrature_oracle_closed_form(self):
        assert quadrature_gap_constant(1.0, 2) == pytest.approx(1.0 / 54.0, abs=1e-12)

    def test_monte_carlo_matches_quadrature(self):
        est, se = gap_constant_partii(GAUSS1, B11, 200_000, 3)
        assert se > 0
        assert abs(est - 1.0 / 54.0) <= 4 * se

    def test_other_bandwidth_and_dimension(self):
        spec = KernelSpec(KernelFamily.GAUSSIAN, 2.0)
        block = BlockStructure((2, 1))
        est, se = gap_constant_partii(spec, block, 300_000, 5)
        assert abs(est - quadrature_gap_constant(2.0, 3)) <= 4 * se

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2), (3, 1, 2)])
    def test_monte_carlo_matches_half_the_critical_slope(self, gamma, dims):
        # the spectral measure N(0, gamma I) is even in each coordinate, so
        # the opposite-sign set carries half of the full integral
        # gamma^2 (2 gamma + 1)^(-(d+4)/2), which is critical_slope(gamma, d)
        block = BlockStructure(dims)
        est, se = gap_constant_partii(KernelSpec(KernelFamily.GAUSSIAN, gamma), block, 200_000, 7)
        assert abs(est - critical_slope(gamma, block.total) / 2) <= 4 * se

    def test_laplace_spectral_measure_gives_positive_estimate(self):
        est, se = gap_constant_partii(KernelSpec("laplace", 1.0), B11, 50_000, 9)
        assert est > 0
        assert se > 0

    def test_swapping_monitored_coordinates_is_symmetric(self):
        omegas = whole_draw(GAUSS1, 2, 50_000, 11)
        pair = omegas[:, 0] * omegas[:, 1]
        sq = np.einsum("nd,nd->n", omegas, omegas)
        vals = np.where(pair < 0, pair**2 * np.exp(-sq), 0.0)
        swapped = omegas[:, ::-1]
        pair_s = swapped[:, 0] * swapped[:, 1]
        vals_s = np.where(pair_s < 0, pair_s**2 * np.exp(-np.einsum("nd,nd->n", swapped, swapped)), 0.0)
        est, _ = gap_constant_partii(GAUSS1, B11, 50_000, 11)
        assert vals.mean() == pytest.approx(est, rel=1e-12, abs=0.0)
        assert vals_s.mean() == pytest.approx(est, rel=1e-12, abs=0.0)

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            gap_constant_partii(GAUSS1, BlockStructure((2,)), 100, 0)

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("dims", [(1, 2), (2, 2), (3, 1, 2)])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_two_coordinate_draw_matches_the_full_draw(self, family, dims, gamma):
        # the other d - 2 coordinates enter through their exact expectation;
        # the two estimates come from independent draws
        spec, block = KernelSpec(family, gamma), BlockStructure(dims)
        est, se = gap_constant_partii(spec, block, 200_000, 31)
        full, full_se = full_draw_gap_constant(spec, block, 200_000, 37)
        assert se > 0 and full_se > 0
        assert abs(est - full) <= 4 * math.hypot(se, full_se)

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_two_blocks_of_one_keep_every_bit_of_the_full_draw(self, family):
        # no other coordinate: the factor is exactly 1 and the draw the same
        spec = KernelSpec(family, 0.5)
        assert gap_constant_partii(spec, B11, 50_000, 41) == full_draw_gap_constant(spec, B11, 50_000, 41)

    @pytest.mark.parametrize(
        "n_freq",
        [SPECTRAL_BLOCK_ROWS - 1, SPECTRAL_BLOCK_ROWS, SPECTRAL_BLOCK_ROWS + 1, 2 * SPECTRAL_BLOCK_ROWS + 1, CERTIFY_SPECTRAL_FREQS],
    )
    @pytest.mark.parametrize("gamma", [0.5, 1e307])
    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_row_blocks_keep_every_bit_of_one_draw(self, family, gamma, n_freq):
        # the blocks of draws continue one stream and fill one integrand
        # array, reduced whole; at 1e307 some Laplace draws are +-inf
        spec, block = KernelSpec(family, gamma), BlockStructure((3, 1, 2))
        assert gap_constant_partii(spec, block, n_freq, 47) == one_shot_gap_constant(spec, block, n_freq, 47)

    def test_draw_holds_no_whole_length_temporaries(self):
        # the integrand array is the only whole-length array: 1.6 MB at
        # certify's frequency count
        tracemalloc.start()
        try:
            verify_gap_partii(1.0, BlockStructure((3, 1, 2)), CERTIFY_SPECTRAL_FREQS, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    @pytest.mark.parametrize("family", ["gaussian", "laplace"])
    def test_standard_error_is_taken_in_place(self, family):
        # the deviations overwrite the integrand array: std(ddof=1) would
        # hold a second whole-length copy; a first small call sets up what
        # numpy allocates once
        n_freq = 200_000
        gap_constant_partii(KernelSpec(family, 1.0), BlockStructure((3, 1, 2)), 100, 5)
        tracemalloc.start()
        try:
            gap_constant_partii(KernelSpec(family, 1.0), BlockStructure((3, 1, 2)), n_freq, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n_freq

    @pytest.mark.parametrize("gamma, dims", CERTIFY_SWEEP)
    def test_standard_error_is_no_larger_than_the_full_draws(self, gamma, dims):
        # at certify's default seed and frequency count
        block, seed = BlockStructure(dims), rng.derive(0, "partii")
        est, se = verify_gap_partii(gamma, block, CERTIFY_SPECTRAL_FREQS, seed)
        full = full_draw_gap_constant(KernelSpec("gaussian", gamma), block, CERTIFY_SPECTRAL_FREQS, seed)
        if block.total == 2:
            assert (est, se) == full
        else:
            assert 0 < se <= full[1]

    @pytest.mark.parametrize("gamma", [5e153, 1e154, 1e200, 1e306, 1e308, 1.7e308])
    def test_huge_bandwidth_estimate_underflows_to_zero(self, gamma):
        # w_i w_j and |w|^2 overflow, but no inf * 0 is formed: the integrand
        # is 0 at every frequency and numpy warns of nothing; from about 1e306
        # on the Laplace draws themselves scale to +-inf, their exact limit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dims in ((1, 1), (3, 1, 2)):
                assert verify_gap_partii(gamma, BlockStructure(dims), 20_000, 43) == (0.0, 0.0)
            assert gap_constant_partii(KernelSpec("laplace", gamma), BlockStructure((3, 1, 2)), 20_000, 43) == (0.0, 0.0)


class TestDerivativeMonotonicity:
    def test_increasing_in_coupling_on_opposite_sign_set(self):
        # d/drho of exp(-(|w|^2 + 2 rho w_i w_j)/2) evaluated at rho = c
        def hprime(omega, c):
            wi, wj = omega[0], omega[1]
            return -wi * wj * math.exp(-0.5 * (omega @ omega + 2.0 * c * wi * wj))

        rng = np.random.default_rng(13)
        count = 0
        while count < 100:
            omega = rng.normal(size=2)
            if omega[0] * omega[1] >= 0:
                continue
            count += 1
            assert hprime(omega, 0.0) <= hprime(omega, 0.5) <= hprime(omega, 1.0)
            assert hprime(omega, 0.0) > 0


def partii_columns(grid, n_freq, seed):
    """hsic2, partii_bound and partii_margin of the certificate table for
    the part-(ii) constant under the unit-bandwidth Gaussian kernel."""
    columns, _ = certificate_table(1.0, B11, grid, verify_gap_partii(1.0, B11, n_freq, seed))
    return columns["hsic2"], columns["partii_bound"], columns["partii_margin"]


class TestVerifyGapPartII:
    def test_is_the_gaussian_gap_constant(self):
        assert verify_gap_partii(1.0, B11, 1_000, 3) == gap_constant_partii(GAUSS1, B11, 1_000, 3)

    def test_worked_margin_at_n_four(self):
        (hsic2,), (bound,), (margin,) = partii_columns([4], 400_000, 17)
        assert hsic2 == pytest.approx(adversarial_hsic2(1.0, 2, 4), rel=1e-12, abs=0.0)
        assert hsic2 == pytest.approx(0.010763, abs=1e-6)
        # bound is rho^2 (estimate - 4 SE), slightly below 0.25/54
        assert bound <= 0.25 * (1.0 / 54.0) + 1e-4
        assert margin == pytest.approx(hsic2 - bound, abs=1e-15)
        assert margin > 0.006

    def test_margins_nonnegative_on_doubling_grid(self):
        grid = [2**k for k in range(2, 13)]
        _, _, margins = partii_columns(grid, 200_000, 23)
        assert all(margin >= 0 for margin in margins)

    def test_ratio_bounded_below_by_one(self):
        hsic2s, bounds, _ = partii_columns([4, 64, 1024, 4096], 200_000, 29)
        for hsic2, bound in zip(hsic2s, bounds):
            assert hsic2 / max(bound, 1e-300) >= 1.0

    def test_rejects_small_budgets(self):
        with pytest.raises(ValueError):
            partii_columns([1], 100, 0)
