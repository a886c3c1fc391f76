"""Characteristic-function route to MMD and the translation-invariant gap
constant: Monte Carlo integrals against kernel spectral measures.

For a translation-invariant kernel with spectral probability measure L,
MMD^2(P, Q) equals the L^2(L) distance of the characteristic functions of P
and Q, which turns closed-form characteristic functions into an independent
numerical oracle for MMD and HSIC.
"""

from __future__ import annotations

import math

import numpy as np

from .data import BlockStructure
from .gaussian import GaussianMeasure, char_fn
from .kernels import KernelFamily, KernelSpec, spectral_blocks, spectral_exp_sq_mean, spectral_sample


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    """The mean of ``values`` and its standard error, ``values.std(ddof=1)``
    over sqrt(N), from the same ufuncs in the same order as ``std`` but in
    place: ``values`` is overwritten with its squared deviations."""
    n = values.shape[0]
    mean = values.mean(keepdims=True)
    values -= mean
    np.multiply(values, values, out=values)
    return float(mean[0]), math.sqrt(float(values.sum()) / (n - 1)) / math.sqrt(n)


def mmd2_spectral(
    g1: GaussianMeasure, g2: GaussianMeasure, spec: KernelSpec, n_freq: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo MMD^2 as the average of |psi_1(w) - psi_2(w)|^2 over
    frequencies w drawn from the kernel's spectral measure.

    Returns (estimate, standard error).  For the Gaussian family the
    expectation equals mmd2_gaussian exactly.
    """
    if g1.d != g2.d:
        raise ValueError(f"dimension mismatch: {g1.d} vs {g2.d}")
    if n_freq < 2:
        raise ValueError(f"need at least 2 frequencies, got {n_freq}")
    omegas = spectral_sample(spec, g1.d, n_freq, seed)
    # past gamma of about 1e306 a Laplace draw may be +-inf, where both
    # characteristic functions (of positive definite covariances) vanish:
    # such a frequency takes the integrand's limit 0
    finite = np.isfinite(omegas).all(axis=1)
    kept = omegas[finite]
    values = np.zeros(omegas.shape[0])
    values[finite] = np.abs(char_fn(g1, kept) - char_fn(g2, kept)) ** 2
    return _mean_and_se(values)


def gap_constant_partii(
    spec: KernelSpec, block: BlockStructure, n_freq: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the squared gap constant

        int_A (w_i w_j exp(-|w|^2 / 2))^2 dL(w),

    where (i, j) are the two coordinates adjacent to the first block boundary
    and A is the set where they have opposite signs.  Strictly positive for
    any kernel whose spectral measure has full support.  Returns
    (estimate, standard error).

    The coordinates of L are i.i.d. and only (w_i, w_j) decide A, so n_freq
    pairs are drawn and each of the other d - 2 coordinates contributes its
    exact factor E[exp(-w^2)] (``spectral_exp_sq_mean``): the same
    expectation, at no larger variance.
    """
    block.require_multiblock()
    d = block.total
    if n_freq < 2:
        raise ValueError(f"need at least 2 frequencies, got {n_freq}")
    # the integrand of each block of draws goes into its rows of one array,
    # which is reduced whole, so the blocks change no bit of the result
    values = np.empty(n_freq)
    start = 0
    for omegas in spectral_blocks(spec, 2, n_freq, seed):
        # at huge bandwidths w_i w_j and |w|^2 overflow to inf; exp(-|w|^2) > 0
        # bounds |w_i w_j| by |w|^2 / 2 < 373, so the pair is dropped where the
        # weight is 0 and no inf * 0 is formed
        with np.errstate(over="ignore"):
            pair = omegas[:, 0] * omegas[:, 1]
            weight = np.exp(-np.einsum("nd,nd->n", omegas, omegas))
        kept = np.where((pair < 0.0) & (weight > 0.0), pair, 0.0)
        stop = start + omegas.shape[0]
        np.multiply(kept * kept, weight, out=values[start:stop])
        start = stop
    est, se = _mean_and_se(values)
    rest = spectral_exp_sq_mean(spec) ** (d - 2)
    return est * rest, se * rest


def verify_gap_partii(gamma: float, block: BlockStructure, n_freq: int, seed: int) -> tuple[float, float]:
    """The part-(ii) gap constant (``gap_constant_partii``) under the Gaussian
    kernel with bandwidth gamma, as (estimate, standard error); the
    certificate table turns it into its per-budget bound."""
    return gap_constant_partii(KernelSpec(KernelFamily.GAUSSIAN, gamma), block, n_freq, seed)
