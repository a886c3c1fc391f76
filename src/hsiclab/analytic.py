"""Closed forms for Gaussian measures under Gaussian product kernels:
mean-embedding inner products, MMD^2, HSIC^2, and the certificate quantities
of the two-point lower-bound construction.

Every determinant is evaluated in log space through a Cholesky factor and
exponentiated once, so large dimensions cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import BlockStructure
from .gaussian import GaussianMeasure, cholesky_spd


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return gamma


# From this bandwidth on, hsic2_gaussian takes gamma out of its determinants.
# The identity is then below the rounding of unit-scale covariance entries, so
# both forms agree to rounding; below it the direct form keeps its bits.
_FACTOR_GAMMA = 1.0 / np.finfo(float).eps


def _chol_logdet(matrix: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diagonal(cholesky_spd(matrix)))))


def embedding_inner(g1: GaussianMeasure, g2: GaussianMeasure, gamma: float) -> float:
    """Inner product of the kernel mean embeddings of two Gaussians under the
    Gaussian kernel exp(-gamma/2 |x-y|^2):

        exp(-(m1-m2)' (S1+S2+I/gamma)^{-1} (m1-m2) / 2)
            / |gamma S1 + gamma S2 + I|^{1/2}

    Symmetric in its two arguments and always in (0, 1].
    """
    gamma = _check_gamma(gamma)
    if g1.d != g2.d:
        raise ValueError(f"dimension mismatch: {g1.d} vs {g2.d}")
    d = g1.d
    s = g1.cov + g2.cov + np.eye(d) / gamma
    chol = cholesky_spd(s)
    v = np.linalg.solve(chol, g1.mean - g2.mean)
    # |gamma S1 + gamma S2 + I| = gamma^d |S|
    logdet = d * math.log(gamma) + 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return math.exp(-0.5 * float(v @ v) - 0.5 * logdet)


def _clamp_sq(value: float) -> float:
    # squared RKHS distances are nonnegative; absorb round-off in (-1e-12, 0)
    return 0.0 if -1e-12 < value < 0.0 else value


def mmd2_gaussian(g1: GaussianMeasure, g2: GaussianMeasure, gamma: float) -> float:
    """Closed-form squared maximum mean discrepancy of two Gaussians under the
    Gaussian kernel; zero iff the measures coincide."""
    return float(
        _clamp_sq(
            embedding_inner(g1, g1, gamma)
            + embedding_inner(g2, g2, gamma)
            - 2.0 * embedding_inner(g1, g2, gamma)
        )
    )


@dataclass(frozen=True)
class Hsic2Decomposition:
    """HSIC^2 split into its three inner-product terms.

    ``value = term_i + term_ii - 2 term_iii`` compares the joint embedding
    against the product of the block marginals; it vanishes exactly when the
    covariance is block diagonal.
    """

    term_i: float
    term_ii: float
    term_iii: float
    value: float

    def __post_init__(self) -> None:
        if self.value < -1e-12:
            raise ValueError(f"HSIC^2 must be nonnegative, got {self.value}")

    @property
    def hsic(self) -> float:
        """Nonnegative square root of ``value``."""
        return math.sqrt(max(0.0, self.value))


def _block_diagonal(cov: np.ndarray, block: BlockStructure) -> np.ndarray:
    out = np.zeros_like(cov)
    for sl in block.slices():
        out[sl, sl] = cov[sl, sl]
    return out


def hsic2_gaussian(g: GaussianMeasure, block: BlockStructure, gamma: float) -> Hsic2Decomposition:
    """Closed-form HSIC^2 of N(mean, cov) with blockwise Gaussian kernels of a
    common bandwidth gamma:

        |2 gamma S1 + I|^{-1/2} + |2 gamma S2 + I|^{-1/2}
            - 2 |gamma S1 + gamma S2 + I|^{-1/2}

    where S1 is the covariance and S2 its block-diagonal restriction.  The
    mean cancels and never enters.
    """
    gamma = _check_gamma(gamma)
    block.require_multiblock()
    if g.d != block.total:
        raise ValueError(f"measure has d={g.d} but block dims sum to {block.total}")
    s1 = g.cov
    s2 = _block_diagonal(s1, block)
    eye = np.eye(g.d)
    if gamma < _FACTOR_GAMMA:
        mats = (2.0 * gamma * s1 + eye, 2.0 * gamma * s2 + eye, gamma * s1 + gamma * s2 + eye)
        scale = 1.0
    else:
        # |c A + I| = c^d |A + I/c| with c = 2 gamma keeps c out of the
        # matrices, whose entries would overflow (inf * 0 = nan) near
        # gamma = 1e308; the common factor c^(-d/2) scales all three terms
        # alike, so its rounding does not grow in their cancellation
        half = 0.5 / gamma
        mats = (s1 + half * eye, s2 + half * eye, 0.5 * (s1 + s2) + half * eye)
        scale = math.exp(-0.5 * g.d * (math.log(2.0) + math.log(gamma)))
    term_i, term_ii, term_iii = (scale * math.exp(-0.5 * _chol_logdet(mat)) for mat in mats)
    return Hsic2Decomposition(term_i, term_ii, term_iii, _clamp_sq(term_i + term_ii - 2.0 * term_iii))


def _scale_and_u(gamma: float, d: int, x):
    # z^(-d/2) and u = (gamma/z)^2 x with z = 2 gamma + 1, taking gamma/z as
    # 1/(2 + 1/gamma) and log z as log1p(2 gamma): finite for any finite
    # gamma; at tiny gamma the square is a float64 that overflows to inf, where
    # a Python float raises, and u is 0
    with np.errstate(over="ignore"):
        return math.exp(-0.5 * d * math.log1p(2.0 * gamma)), x / np.float64(2.0 + 1.0 / gamma) ** 2


def _excess(y):
    # e(y) = (1 - y)^(-1/2) - 1 - y/2 = y^2 (2 + s) / (2 s (1 + s)^2), s = sqrt(1 - y)
    s = np.sqrt(1.0 - y)
    return y * y * (2.0 + s) / (2.0 * s * (1.0 + s) ** 2)


def adversarial_hsic2_columns(gamma: float, d: int, x):
    """The adversarial HSIC^2 and its gap margin hsic2 - (2c)^2 x, with c =
    ``minimax_constant(gamma, d)``, elementwise over x = rho^2; unvalidated.
    With z = 2 gamma + 1, u = (gamma/z)^2 x and e(y) = (1 - y)^(-1/2) - 1 - y/2
    they are z^(-d/2) (u + e(4u) - 2 e(u)) and z^(-d/2) (e(4u) - 2 e(u)): every
    term is positive and e(4u) is about 16 e(u), so neither column cancels."""
    scale, u = _scale_and_u(gamma, d, x)
    bracket = _excess(4.0 * u) - 2.0 * _excess(u)
    return scale * (u + bracket), scale * bracket


def adversarial_hsic2(
    gamma: float, d: int, rho: float | None = None, n: int | None = None
) -> Hsic2Decomposition:
    """HSIC^2 of the single-correlation covariance in closed form.

    With z = 2 gamma + 1:

        term_i   = [z^{d-2} (z^2 - (2 gamma rho)^2)]^{-1/2}
        term_ii  = z^{-d/2}
        term_iii = [z^{d-2} (z^2 - (gamma rho)^2)]^{-1/2}

    ``value`` = term_i + term_ii - 2 term_iii is taken from the form without
    cancellation, ``adversarial_hsic2_columns`` at x = rho^2.  Exactly one of
    ``rho`` and ``n`` (x = 1/n) must be given.  rho = 1 (n = 1) is allowed:
    for gamma below about 1e15 the terms stay finite there even though the
    underlying Gaussian degenerates.
    """
    gamma = _check_gamma(gamma)
    if int(d) != d or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d}")
    if (rho is None) == (n is None):
        raise ValueError("give exactly one of rho and n")
    if rho is None:
        if int(n) != n or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n}")
        x = 1.0 / n
    else:
        rho = float(rho)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
        x = rho * rho
    scale, u = _scale_and_u(gamma, d, x)
    terms = (float(scale / np.sqrt(1.0 - 4.0 * u)), scale, float(scale / np.sqrt(1.0 - u)))
    return Hsic2Decomposition(*terms, float(adversarial_hsic2_columns(gamma, d, x)[0]))


def minimax_constant(gamma: float, d: int) -> float:
    """Explicit constant c = gamma / (2 (2 gamma + 1)^{d/4 + 1}) in the
    n^{-1/2} lower bound for Gaussian product kernels; the adversarial HSIC
    gap is at least 2c/sqrt(n) for every n >= 1."""
    gamma = _check_gamma(gamma)
    if int(d) != d or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d}")
    return gamma * math.exp(-(d / 4.0 + 1.0) * math.log(2.0 * gamma + 1.0)) / 2.0


def lecam_bound(alpha: float) -> float:
    """Two-point testing floor max(e^{-alpha}/4, (1 - sqrt(alpha/2))/2).

    This lower-bounds the worst-case error probability of any estimator that
    must distinguish two hypotheses whose n-fold product KL is at most alpha.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return max(math.exp(-alpha) / 4.0, (1.0 - math.sqrt(alpha / 2.0)) / 2.0)
