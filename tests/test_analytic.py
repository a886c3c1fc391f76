import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hsiclab import (
    BlockStructure,
    GaussianMeasure,
    adversarial_hsic2,
    embedding_inner,
    hsic2_gaussian,
    lecam_bound,
    make_adversarial_cov,
    minimax_constant,
    mmd2_gaussian,
)
from hsiclab.analytic import _mmd2_terms, adversarial_hsic2_columns
from helpers import correlated_cov, critical_slope, decimal_hsic2, decimal_mmd2, f_c, random_spd

B11 = BlockStructure((1, 1))
# the block structures of the certify_sweep benchmark workload
SWEEP_BLOCKS = tuple(BlockStructure(dims) for dims in ((1, 1), (2, 2), (3, 1, 2), (4, 4)))

# hand-expanded determinants for gamma=1, blocks=(1,1), rho=0.6:
# |2*Sigma+I| = 9 - 1.44 = 7.56, |2*I+I| = 9, |Sigma+I*2| -> 9 - 0.36 = 8.64
HSIC2_RHO06 = 7.56**-0.5 + 9**-0.5 - 2 * 8.64**-0.5


def measure_with_rho(rho, block=B11, mean=None):
    d = block.total
    mean = np.zeros(d) if mean is None else mean
    return GaussianMeasure(mean, make_adversarial_cov(block, rho))


class TestEmbeddingInner:
    def test_standard_self_inner(self):
        g = GaussianMeasure.standard(1)
        assert embedding_inner(g, g, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12, abs=0.0)

    def test_shifted_cross_inner(self):
        g1 = GaussianMeasure.standard(1)
        g2 = GaussianMeasure(np.array([1.0]), np.eye(1))
        expected = math.exp(-1.0 / 6.0) / math.sqrt(3.0)
        assert embedding_inner(g1, g2, 1.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            g1 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            g2 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            assert embedding_inner(g1, g2, 0.7) == pytest.approx(
                embedding_inner(g2, g1, 0.7), rel=1e-12, abs=0.0
            )

    def test_equal_means_reduce_to_determinant(self):
        rng = np.random.default_rng(6)
        mean = rng.normal(size=3)
        g1 = GaussianMeasure(mean, random_spd(rng, 3))
        g2 = GaussianMeasure(mean, random_spd(rng, 3))
        gamma = 1.3
        direct = 1.0 / math.sqrt(np.linalg.det(gamma * g1.cov + gamma * g2.cov + np.eye(3)))
        assert embedding_inner(g1, g2, gamma) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            embedding_inner(GaussianMeasure.standard(1), GaussianMeasure.standard(2), 1.0)


class TestMmd2Gaussian:
    def test_identical_measures(self):
        g = GaussianMeasure(np.array([0.3]), np.array([[2.0]]))
        assert mmd2_gaussian(g, g, 1.0) == 0.0

    def test_unit_shift_worked_value(self):
        g1 = GaussianMeasure.standard(1)
        g2 = GaussianMeasure(np.array([1.0]), np.eye(1))
        expected = (2.0 / math.sqrt(3.0)) * (1.0 - math.exp(-1.0 / 6.0))
        value = mmd2_gaussian(g1, g2, 1.0)
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert value == pytest.approx(0.177268, abs=1e-6)

    def test_huge_mean_shift_warns_of_nothing(self):
        # the quadratic form overflows to inf, where term_iii is exactly 0
        g1 = GaussianMeasure.standard(2)
        g2 = GaussianMeasure(np.array([1e160, -1e160]), np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            terms = _mmd2_terms(g1.mean, g1.cov, g2.mean, g2.cov, 1.0)
            for a, b in ((g1, g2), (g2, g1)):
                assert mmd2_gaussian(a, b, 1.0) == 0.6666666666666667
        assert terms.term_iii == 0.0
        assert terms.value == pytest.approx(2.0 / 3.0, rel=1e-15, abs=0.0)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            g1 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            g2 = GaussianMeasure(rng.normal(size=d), random_spd(rng, d))
            v12 = mmd2_gaussian(g1, g2, 1.0)
            assert v12 >= 0.0
            assert v12 == pytest.approx(mmd2_gaussian(g2, g1, 1.0), rel=1e-12, abs=0.0)

    def test_triangle_inequality_on_root(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            gs = [
                GaussianMeasure(rng.normal(size=d), random_spd(rng, d)) for _ in range(3)
            ]
            d01 = math.sqrt(mmd2_gaussian(gs[0], gs[1], 1.0))
            d12 = math.sqrt(mmd2_gaussian(gs[1], gs[2], 1.0))
            d02 = math.sqrt(mmd2_gaussian(gs[0], gs[2], 1.0))
            assert d02 <= d01 + d12 + 1e-10

    def test_nearby_means_keep_their_digits(self):
        # (2/sqrt(3)) (1 - exp(-1e-12/6)): the three inner products agree to
        # 1e-13 here, so their difference would keep about four digits
        value = mmd2_gaussian(GaussianMeasure.standard(1), GaussianMeasure(np.array([1e-6]), np.eye(1)), 1.0)
        assert value == pytest.approx(1.9245008972985927e-13, rel=1e-12, abs=0.0)

    def test_matches_200_digit_reference(self):
        # the second mean is 0, so the shift m1 - m2 is exact in floats; the
        # covariances differ by exact float differences too (Sterbenz)
        rng = np.random.default_rng(22)
        for d in range(1, 6):
            s1 = random_spd(rng, d)
            sym = rng.normal(size=(d, d))
            sym += sym.T
            covs = [s1, *(s1 + eps * sym for eps in (1e-9, 1e-5, 1e-2)), random_spd(rng, d)]
            unit = rng.normal(size=d)
            unit /= np.linalg.norm(unit)
            g2s = [GaussianMeasure(np.zeros(d), cov) for cov in covs]
            for shift in (0.0, 1e-9, 1e-6, 1e-3, 1.0):
                g1 = GaussianMeasure(shift * unit, s1)
                for g2 in g2s:
                    for gamma in (1e-6, 1e-3, 1.0, 1e3):
                        got = [
                            embedding_inner(g1, g1, gamma),
                            embedding_inner(g2, g2, gamma),
                            embedding_inner(g1, g2, gamma),
                            mmd2_gaussian(g1, g2, gamma),
                        ]
                        expected = decimal_mmd2(g1.mean, g1.cov, g2.mean, g2.cov, gamma)
                        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "cov1, cov2, mean1, gamma",
        [
            ([1e-6], [1.0], [0.0], 1e6),
            # N(0, 1e-20) against N(0, 1) at gamma = 1e20, rescaled by 1e10,
            # since a variance below 1e-12 is rejected as singular
            ([1e-10], [1e10], [0.0], 1e10),
            ([1e-10], [1e10], [3e-5], 1e10),
            ([1e-11], [1e11], [0.0], 1e300),
            ([1e-10, 1e10], [1e10, 1e-10], [0.0, 0.0], 1e-3),
            ([1e-10, 1e10], [1e10, 1e-10], [1.0, -2.0], 1.0),
            ([1e-10, 1e10], [1e10, 1e-10], [0.0, 0.0], 1e10),
        ],
    )
    def test_measures_of_very_different_scale(self, cov1, cov2, mean1, gamma):
        # along a direction where S1 is far below S2, 1 + 2 lambda is below
        # lambda's rounding; each inner product has its own determinant
        g1 = GaussianMeasure(np.array(mean1), np.diag(cov1))
        g2 = GaussianMeasure(np.zeros(len(cov2)), np.diag(cov2))
        term_i, term_ii, term_iii, value = decimal_mmd2(g1.mean, g1.cov, g2.mean, g2.cov, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [embedding_inner(g1, g1, gamma), embedding_inner(g2, g2, gamma), embedding_inner(g1, g2, gamma)]
            both = [mmd2_gaussian(g1, g2, gamma), mmd2_gaussian(g2, g1, gamma)]
            swapped = _mmd2_terms(g2.mean, g2.cov, g1.mean, g1.cov, gamma)
        assert got == pytest.approx([term_i, term_ii, term_iii], rel=1e-12, abs=0.0)
        assert both == pytest.approx([value, value], rel=1e-12, abs=0.0)
        assert [swapped.term_i, swapped.term_ii] == pytest.approx([term_ii, term_i], rel=1e-12, abs=0.0)


class TestHsic2Gaussian:
    def test_block_diagonal_gives_zero(self):
        rng = np.random.default_rng(12)
        block = BlockStructure((2, 1))
        cov = np.zeros((3, 3))
        cov[:2, :2] = random_spd(rng, 2)
        cov[2, 2] = 1.7
        g = GaussianMeasure(np.zeros(3), cov)
        assert hsic2_gaussian(g, block, 1.0).value == 0.0

    def test_worked_decomposition_rho_06(self):
        dec = hsic2_gaussian(measure_with_rho(0.6), B11, 1.0)
        assert dec.term_i == pytest.approx(7.56**-0.5, rel=1e-12, abs=0.0)
        assert dec.term_ii == pytest.approx(9**-0.5, rel=1e-12, abs=0.0)
        assert dec.term_iii == pytest.approx(8.64**-0.5, rel=1e-12, abs=0.0)
        assert dec.value == pytest.approx(HSIC2_RHO06, rel=1e-12, abs=0.0)
        assert dec.value == pytest.approx(0.016615, abs=1e-6)

    def test_mean_translation_invariance_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            shift = rng.normal(size=2, scale=10.0)
            a = hsic2_gaussian(measure_with_rho(0.35), B11, 1.0)
            b = hsic2_gaussian(measure_with_rho(0.35, mean=shift), B11, 1.0)
            assert a.value == b.value

    @staticmethod
    def _exact_rho_terms(gamma, rho):
        # blocks (1, 1): |2g S + I| = (2g+1)^2 - (2g rho)^2, |2g I + I| = (2g+1)^2,
        # |g S + g I + I| = (2g+1)^2 - (g rho)^2, in 60-digit decimals
        with localcontext() as ctx:
            ctx.prec = 60
            g, r = Decimal(gamma), Decimal(rho)
            z2 = (2 * g + 1) ** 2
            terms = [1 / (z2 - (2 * g * r) ** 2).sqrt(), 1 / z2.sqrt(), 1 / (z2 - (g * r) ** 2).sqrt()]
            return [float(t) for t in terms] + [float(terms[0] + terms[1] - 2 * terms[2])]

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1e10, 1e15, 1e16, 1e150, 1e300, 1e308])
    def test_any_finite_bandwidth_matches_exact_determinants(self, gamma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = hsic2_gaussian(measure_with_rho(0.5), B11, gamma)
        got = [dec.term_i, dec.term_ii, dec.term_iii, dec.value]
        for value, exact in zip(got, self._exact_rho_terms(gamma, 0.5)):
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_matches_200_digit_reference(self):
        # at gamma = 1e-9 the three terms agree in their first 15 to 30
        # digits, so the value lies below the rounding of each term
        rng = np.random.default_rng(21)
        for block in SWEEP_BLOCKS:
            covs = [make_adversarial_cov(block, rho) for rho in (1e-6, 1e-3, 0.5, 0.9)]
            covs += [correlated_cov(rng, block, s)[0] for s in (1e-6, 1e-3, 1.0)]
            for cov in covs:
                g = GaussianMeasure(np.zeros(block.total), cov)
                for gamma in (1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6):
                    dec = hsic2_gaussian(g, block, gamma)
                    got = [dec.term_i, dec.term_ii, dec.term_iii, dec.value]
                    assert got == pytest.approx(decimal_hsic2(cov, block, gamma), rel=1e-12, abs=0.0)

    def test_is_mmd2_to_the_product_of_marginals(self):
        # the product of the block marginals of N(m, S1) is N(m, S2), S2 the
        # block-diagonal part of S1: one closed form, so equal to the bit
        rng = np.random.default_rng(23)
        for block in SWEEP_BLOCKS:
            cov, diag = correlated_cov(rng, block, 0.5)
            for s1, s2 in ((cov, diag), (make_adversarial_cov(block, 0.3), np.eye(block.total))):
                for mean in (np.zeros(block.total), rng.normal(size=block.total)):
                    g, product = GaussianMeasure(mean, s1), GaussianMeasure(mean, s2)
                    for gamma in (1e-6, 1.0, 1e6):
                        assert hsic2_gaussian(g, block, gamma).value == mmd2_gaussian(g, product, gamma)

    def test_structure_mismatch(self):
        with pytest.raises(ValueError):
            hsic2_gaussian(GaussianMeasure.standard(3), B11, 1.0)
        with pytest.raises(ValueError):
            hsic2_gaussian(GaussianMeasure.standard(2), BlockStructure((2,)), 1.0)


class TestAdversarialHsic2:
    def test_worked_value_half_rho(self):
        # rho = 1/2; the three terms are those of the alternative's closed form
        value = adversarial_hsic2(1.0, 2, 4)
        assert type(value) is float
        assert value == pytest.approx(8**-0.5 + 9**-0.5 - 2 * 8.75**-0.5, rel=1e-12, abs=0.0)
        assert math.sqrt(value) == pytest.approx(0.103746, abs=1e-6)
        dec = hsic2_gaussian(measure_with_rho(0.5), B11, 1.0)
        assert dec.term_i == pytest.approx(8**-0.5, rel=1e-12, abs=0.0)
        assert dec.term_ii == pytest.approx(9**-0.5, rel=1e-12, abs=0.0)
        assert dec.term_iii == pytest.approx(8.75**-0.5, rel=1e-12, abs=0.0)
        assert dec.value == pytest.approx(value, rel=1e-12, abs=0.0)

    def test_vanishes_as_rho_goes_to_zero(self):
        # rho = 1e-8
        assert adversarial_hsic2(1.0, 2, 10**16) == pytest.approx(0.0, abs=1e-12)

    def test_matches_general_closed_form(self):
        # two forms of one value: the table's gap margin needs e(4u) - 2 e(u),
        # which the general form's (a, b) pair gives only by cancelling
        for rho in (1e-6, 1e-3, *np.arange(0.1, 0.95, 0.1)):
            for gamma in (1e-9, 1e-6, 0.5, 1.0, 2.0, 1e3, 1e6):
                for block in (B11, BlockStructure((2, 1)), BlockStructure((2, 2))):
                    direct = hsic2_gaussian(
                        measure_with_rho(rho, block), block, gamma
                    ).value
                    short = adversarial_hsic2_columns(gamma, block.total, rho * rho)[0]
                    assert short == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_accepts_n_and_unit_rho(self):
        for n in (1, 2, 4, 1000):
            assert adversarial_hsic2(1.0, 2, n) == adversarial_hsic2_columns(1.0, 2, 1.0 / n)[0]
        assert adversarial_hsic2(1.0, 2, 1) > 0  # rho = 1 stays finite

    def test_argument_validation(self):
        for gamma, d, n in ((1.0, 2, 0), (1.0, 2, 2.5), (1.0, 1, 4), (0.0, 2, 4)):
            with pytest.raises(ValueError):
                adversarial_hsic2(gamma, d, n)


class TestMinimaxConstant:
    def test_worked_values(self):
        assert minimax_constant(1.0, 2) == pytest.approx(1.0 / (2.0 * 3.0**1.5), rel=1e-12, abs=0.0)
        assert minimax_constant(1.0, 4) == pytest.approx(1.0 / 18.0, rel=1e-12, abs=0.0)

    def test_strictly_decreasing_in_dimension(self):
        values = [minimax_constant(1.0, d) for d in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0

    def test_gap_certificate_spot_checks(self):
        for gamma in (0.5, 1.0, 2.0):
            for d in (2, 3, 4):
                c = minimax_constant(gamma, d)
                for n in (1, 2, 16, 1000):
                    assert math.sqrt(adversarial_hsic2(gamma, d, n)) >= 2 * c / math.sqrt(n)


class TestFc:
    def test_zero_at_origin(self):
        for gamma in (0.5, 1.0, 2.0):
            assert f_c(0.0, gamma, 2, critical_slope(gamma, 2)) == 0.0

    def test_worked_value_at_one(self):
        # z = 3: (9-4)^{-1/2} + 9^{-1/2} - 2 (9-1)^{-1/2} - 1/27
        expected = 5**-0.5 + 1.0 / 3.0 - 2 * 8**-0.5 - 1.0 / 27.0
        assert critical_slope(1.0, 2) == pytest.approx(1.0 / 27.0, rel=1e-12, abs=0.0)
        assert f_c(1.0, 1.0, 2, 1.0 / 27.0) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert expected == pytest.approx(0.0364031, abs=1e-7)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("d", [2, 4])
    def test_nonnegative_and_nondecreasing_with_critical_slope(self, gamma, d):
        c = critical_slope(gamma, d)
        xs = np.arange(0.0, 1.0001, 0.01)
        values = [f_c(x, gamma, d, c) for x in xs]
        assert all(v >= 0.0 for v in values)
        assert all(b - a >= -1e-12 for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_c(-0.1, 1.0, 2, 0.0)
        with pytest.raises(ValueError):
            f_c((1.0 + 0.5) ** 2, 1.0, 2, 0.0)  # right endpoint for gamma = 1


class TestLecamBound:
    def test_budget_five_fourths(self):
        value = lecam_bound(1.25)
        assert value == pytest.approx((1.0 - math.sqrt(5.0 / 8.0)) / 2.0, abs=1e-15)
        assert value == pytest.approx(0.104715, abs=1e-6)
        assert math.exp(-1.25) / 4.0 == pytest.approx(0.071626, abs=1e-6)
        assert math.exp(-1.25) / 4.0 < value

    def test_small_alpha_limit(self):
        assert lecam_bound(1e-12) == pytest.approx(0.5, abs=1e-5)

    def test_alpha_two_switches_branch(self):
        assert lecam_bound(2.0) == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-12, abs=0.0)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            lecam_bound(0.0)
