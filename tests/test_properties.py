"""Property-based checks of the V and U statistics over generated data, and
of the closed-form HSIC^2 and MMD^2 over generated measures and bandwidths.

Sizes stay small (n <= 3 * TILE_ROWS) so the whole module runs in seconds;
they still cross the TILE_ROWS-row tile boundaries of ``block_stats`` and
deal tiles to both of its lanes, which run in the calling thread at these
sizes.  Runs are derandomized, so every run draws the same examples.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiclab import (
    BlockStructure,
    Dataset,
    GaussianMeasure,
    KernelFamily,
    KernelSpec,
    ProductKernel,
    block_stats,
    hsic2_gaussian,
    mmd2_gaussian,
)
from hsiclab.estimators import TILE_ROWS
from helpers import correlated_cov, embedding_inner, product_gram, random_spd

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
STRUCTURES = [(1, 1), (2, 1), (1, 2), (2, 2), (1, 2, 1)]
# U can sit at zero, where relative agreement means nothing; 1e-13 is far
# below the sampling error of any n this module draws
ABS_FLOOR = 1e-13


@st.composite
def cases(draw, min_n=4, max_n=40):
    """A product kernel and a dataset whose last coordinate depends on the
    first with a drawn correlation (zero included)."""
    block = BlockStructure(draw(st.sampled_from(STRUCTURES)))
    family = draw(st.sampled_from(list(KernelFamily)))
    gammas = draw(st.lists(st.floats(0.1, 10.0), min_size=block.m, max_size=block.m))
    n = draw(st.integers(min_n, max_n))
    rho = draw(st.floats(0.0, 0.95))
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, block.total))
    z[:, -1] = rho * z[:, 0] + np.sqrt(1.0 - rho * rho) * z[:, -1]
    pk = ProductKernel(block, tuple(KernelSpec(family, g) for g in gammas))
    return pk, Dataset(z, block)


def v_and_u(pk, ds):
    stats = block_stats(pk, ds)
    return stats.v_statistic(), (stats.u_statistic() if pk.block.m == 2 else None)


def assert_same_statistics(got, expected):
    for a, b in zip(got, expected):
        if b is not None:
            assert a == pytest.approx(b, rel=1e-10, abs=ABS_FLOOR)


@PROPERTY_SETTINGS
@given(cases(), st.randoms(use_true_random=False))
def test_row_permutation_leaves_v_and_u_unchanged(case, random):
    pk, ds = case
    perm = list(range(ds.n))
    random.shuffle(perm)
    permuted = Dataset(ds.values[perm], ds.block)
    assert_same_statistics(v_and_u(pk, permuted), v_and_u(pk, ds))


@PROPERTY_SETTINGS
@given(cases(), st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4))
def test_per_block_translation_leaves_v_and_u_unchanged(case, offsets):
    # every coordinate moves by its own offset, so each block by its own vector
    pk, ds = case
    shifted = ds.values + offsets[: ds.d]
    assert_same_statistics(v_and_u(pk, Dataset(shifted, ds.block)), v_and_u(pk, ds))


@PROPERTY_SETTINGS
@given(cases(min_n=2), st.integers(1, 4))
def test_v_is_nonnegative(case, copies):
    # repeated rows push V toward its zero lower bound
    pk, ds = case
    repeated = Dataset(np.repeat(ds.values, copies, axis=0), ds.block)
    assert block_stats(pk, repeated).v_statistic() >= -1e-12


@PROPERTY_SETTINGS
@given(cases(min_n=2, max_n=3 * TILE_ROWS + 1))
def test_tiled_sums_equal_dense_sums(case):
    pk, ds = case
    grams, prod = product_gram(pk, ds)
    stats = block_stats(pk, ds)
    assert stats.total == pytest.approx(float(prod.sum()), rel=1e-10, abs=0.0)
    np.testing.assert_allclose(stats.rows, [g.sum(axis=1) for g in grams], rtol=1e-10)


# every finite bandwidth the command line accepts up to 1.7e308: log-uniform
# from the smallest subnormal on, and both edges
BANDWIDTHS = st.one_of(
    st.sampled_from([5e-324, 1.7e308]), st.floats(-1074.0, math.log2(1.7e308)).map(lambda e: 2.0**e)
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.sampled_from([(1, 1), (2, 2), (3, 1, 2), (4, 4)]),
    st.integers(0, 2**32 - 1),
    st.floats(1e-6, 1.0),
    BANDWIDTHS,
)
def test_hsic2_gaussian_is_finite_and_in_range(dims, seed, s, gamma):
    block = BlockStructure(dims)
    cov, diag = correlated_cov(np.random.default_rng(seed), block, s)
    mean = np.zeros(block.total)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        dec = hsic2_gaussian(GaussianMeasure(mean, cov), block, gamma)
        independent = hsic2_gaussian(GaussianMeasure(mean, diag), block, gamma)
    terms = (dec.term_i, dec.term_ii, dec.term_iii)
    assert all(0.0 <= t <= 1.0 for t in terms)
    assert 0.0 <= dec.value and math.isfinite(dec.value)
    assert independent.value == 0.0


def _mmd2_both_ways(g1, g2, gamma):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return mmd2_gaussian(g1, g2, gamma), mmd2_gaussian(g2, g1, gamma)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    st.sampled_from([1e-11, 1e-6, 1.0, 1e6, 1e11]),
    st.one_of(st.just(0.0), st.floats(-30.0, 150.0).map(lambda e: 10.0**e)),
    BANDWIDTHS,
)
def test_mmd2_gaussian_is_finite_nonnegative_and_symmetric(d, seed, eps, scale, shift, gamma):
    # a second covariance eps away from the first (eps = 1: an unrelated one)
    # and scaled by up to 1e11 either way, and a mean shift of up to 1e150
    # along a random direction
    gen = np.random.default_rng(seed)
    cov = random_spd(gen, d)
    sym = gen.normal(size=(d, d))
    other = scale * (random_spd(gen, d) if eps == 1.0 else cov + eps * (sym + sym.T))
    unit = gen.normal(size=d)
    g1 = GaussianMeasure(np.zeros(d), cov)
    g2 = GaussianMeasure(shift * unit / np.linalg.norm(unit), other)
    v12, v21 = _mmd2_both_ways(g1, g2, gamma)
    assert math.isfinite(v12) and v12 >= 0.0
    # below the smallest normal float fewer than 53 bits are left, so
    # relative agreement is asked for only above it
    assert v12 == pytest.approx(v21, rel=1e-12, abs=sys.float_info.min)
    assert _mmd2_both_ways(g2, g2, gamma) == (0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert 0.0 <= embedding_inner(g1, g2, gamma) <= 1.0


def test_mmd2_gaussian_smallest_bandwidth_sees_a_huge_shift():
    # gamma |shift|^2 = 4.94e-24 to first order; r/4 alone rounds to 0 here
    far = GaussianMeasure(np.array([1e150]), np.eye(1))
    v12, v21 = _mmd2_both_ways(GaussianMeasure.standard(1), far, 5e-324)
    assert v12 > 0.0 and v21 > 0.0
