"""Closed forms for Gaussian measures under Gaussian product kernels:
MMD^2, HSIC^2 with its mean-embedding inner products, and the certificate
quantities of the two-point lower-bound construction.

MMD^2 and HSIC^2 come from one form, ``_mmd2_terms``: HSIC^2 is the MMD^2
between the joint law and the product of its block marginals.  Every
determinant is a log through its own Cholesky factor, exponentiated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import BlockStructure, whole
from .gaussian import GaussianMeasure, cholesky_spd


def _check_gamma(gamma: float) -> float:
    gamma = float(gamma)
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return gamma


@dataclass(frozen=True)
class Hsic2Decomposition:
    """A squared MMD with its three embedding inner products: ``value =
    term_i + term_ii - 2 term_iii``, computed without cancellation (see
    ``_mmd2_terms``).  For HSIC^2 the two measures are the joint law and
    the product of its block marginals, and the value vanishes exactly when
    the covariance is block diagonal.
    """

    term_i: float
    term_ii: float
    term_iii: float
    value: float

    @property
    def hsic(self) -> float:
        """Square root of ``value``."""
        return math.sqrt(self.value)


def _mmd2_terms(m1, s1, m2, s2, gamma: float) -> Hsic2Decomposition:
    """MMD^2 of N(m1, S1) and N(m2, S2) under the kernel exp(-gamma/2 |x-y|^2)
    with its embedding inner products.  With A_j = 2 gamma S_j + I and C =
    (A_1 + A_2)/2, each determinant a log through its own Cholesky factor:

        term_i = <mu1, mu1> = |A_1|^{-1/2},  term_ii = <mu2, mu2> = |A_2|^{-1/2}
        term_iii = <mu1, mu2> = |C|^{-1/2} e^{-q},  q = gamma (m1-m2)' C^{-1} (m1-m2) / 2

    term_iii <= (term_i term_ii)^{1/2} e^{-b/2}, e^{-b} = (|A_1| |A_2|)^{1/2} / |C|
    <= 1: while e^{-b} < 1/2, value = term_i + term_ii - 2 term_iii loses under
    two bits.  Otherwise, with A_2 = L L' and lambda the eigenvalues of gamma
    L^{-1} (S1 - S2) L^{-T}, all in [-0.47, 6.5] there,

        value = term_ii [expm1(a)^2 - 2 e^a expm1(-q) + e^(2a) expm1(b)]

    with a = -sum log1p(lambda) / 2 and b = sum log1p(lambda^2 / (1 + 2
    lambda)) / 2: three nonnegative terms, so nothing cancels.
    """
    gamma = _check_gamma(gamma)
    if len(m1) != len(m2):
        raise ValueError(f"dimension mismatch: {len(m1)} vs {len(m2)}")
    # |2 gamma S + I| = (2k)^d |r S + I/(2k)| with k = max(1/2, gamma), r =
    # gamma/k: 2 gamma, which overflows near 1e308, stays out of the factors
    k = max(0.5, gamma)
    r = gamma / k
    eye = (0.5 / k) * np.eye(len(m1))
    chols = [cholesky_spd(r * s + eye) for s in (s1, s2, 0.5 * (s1 + s2))]
    half_log_2k = 0.5 * len(m1) * (math.log(2.0) + math.log(k))
    h1, h2, h3 = (half_log_2k + float(np.sum(np.log(np.diagonal(c)))) for c in chols)
    x = np.linalg.solve(chols[2], m1 - m2)
    # r times the sum first: at gamma = 5e-324, r/4 is 0; past |x| of about
    # 1.3e154 the sum overflows to inf, where e^-q takes its exact limit 0
    with np.errstate(over="ignore"):
        q = 0.25 * (r * float(x @ x))
    term_i, term_ii, term_iii = math.exp(-h1), math.exp(-h2), math.exp(-h3 - q)
    if h1 + h2 - 2.0 * h3 < -math.log(2.0):
        return Hsic2Decomposition(term_i, term_ii, term_iii, term_i + term_ii - 2.0 * term_iii)
    lam = 0.5 * r * np.linalg.eigvalsh(np.linalg.solve(chols[1], np.linalg.solve(chols[1], s1 - s2).T))
    a = -0.5 * float(np.sum(np.log1p(lam)))
    b = 0.5 * float(np.sum(np.log1p(lam * lam / (1.0 + 2.0 * lam))))
    # the bracket as (term_ii^(1/2) expm1(a))^2 + 2 term_ii e^a (1 - e^(-q)) +
    # term_ii e^(2a + b) (1 - e^(-b)), each exponential taken where it is at most 1
    root = math.exp(max(a, 0.0) - 0.5 * h2) * math.expm1(-abs(a))
    e2ab = math.exp(-h2 - 0.5 * float(np.sum(np.log1p(2.0 * lam))))
    value = root * root - 2.0 * math.exp(a - h2) * math.expm1(-q) - e2ab * math.expm1(-b)
    return Hsic2Decomposition(term_i, term_ii, term_iii, value)


def mmd2_gaussian(g1: GaussianMeasure, g2: GaussianMeasure, gamma: float) -> float:
    """Closed-form squared MMD of two Gaussians under the Gaussian kernel,
    ``value`` of ``_mmd2_terms``: accurate for nearby measures too, as no
    difference cancels; zero iff the measures coincide."""
    return _mmd2_terms(g1.mean, g1.cov, g2.mean, g2.cov, gamma).value


def hsic2_gaussian(g: GaussianMeasure, block: BlockStructure, gamma: float) -> Hsic2Decomposition:
    """Closed-form HSIC^2 of N(mean, cov) with blockwise Gaussian kernels of a
    common bandwidth gamma: the MMD^2 of ``_mmd2_terms`` between the joint law
    and the product of its block marginals, N(mean, S2) with S2 the
    block-diagonal restriction of cov.  The mean never enters; the
    eigenvalues lambda sum to 0 here, so a is of second order in them.
    """
    block.require_multiblock()
    if g.d != block.total:
        raise ValueError(f"measure has d={g.d} but block dims sum to {block.total}")
    s2 = np.zeros_like(g.cov)
    for sl in block.slices():
        s2[sl, sl] = g.cov[sl, sl]
    return _mmd2_terms(g.mean, g.cov, g.mean, s2, gamma)


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


def adversarial_hsic2(gamma: float, d: int, n: int) -> float:
    """The adversarial HSIC^2 at budget n: ``adversarial_hsic2_columns`` at
    x = rho^2 = 1/n, with its arguments checked.  n = 1 (rho = 1) is allowed:
    the value stays finite for gamma below about 1e15, even though the
    underlying Gaussian degenerates there."""
    gamma = _check_gamma(gamma)
    if whole(d, "d") < 2:
        raise ValueError(f"d must be an integer >= 2, got {d}")
    if whole(n, "n") < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return float(adversarial_hsic2_columns(gamma, d, 1.0 / n)[0])


def minimax_constant(gamma: float, d: int) -> float:
    """Explicit constant c = gamma / (2 (2 gamma + 1)^{d/4 + 1}) in the
    n^{-1/2} lower bound for Gaussian product kernels; the adversarial HSIC
    gap is at least 2c/sqrt(n) for every n >= 1."""
    gamma = _check_gamma(gamma)
    if whole(d, "d") < 2:
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
