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
    """HSIC^2 with its three inner-product terms: ``value = term_i + term_ii
    - 2 term_iii``, computed as a sum of nonnegative terms (see
    ``hsic2_gaussian``), compares the joint embedding against the product of
    the block marginals; it vanishes exactly when the covariance is block
    diagonal.
    """

    term_i: float
    term_ii: float
    term_iii: float
    value: float

    @property
    def hsic(self) -> float:
        """Square root of ``value``."""
        return math.sqrt(self.value)


# 1/35, 1/33, ..., 1/3: atanh(t) - t = t^3 sum_k t^(2k)/(2k + 3) to rounding at |t| < 1/3
_ATANH_TAIL = 1.0 / np.arange(35.0, 1.0, -2.0)


def hsic2_gaussian(g: GaussianMeasure, block: BlockStructure, gamma: float) -> Hsic2Decomposition:
    """Closed-form HSIC^2 of N(mean, cov) with blockwise Gaussian kernels of a
    common bandwidth gamma.  With S1 the covariance, S2 its block-diagonal
    restriction, B = 2 gamma S2 + I = L L' and lambda the eigenvalues of
    gamma L^{-1} (S1 - S2) L^{-T}, which sum to 0:

        term_i   = |2 gamma S1 + I|^{-1/2}          = |B|^{-1/2} prod (1 + 2 lambda)^{-1/2}
        term_ii  = |2 gamma S2 + I|^{-1/2}          = |B|^{-1/2}
        term_iii = |gamma S1 + gamma S2 + I|^{-1/2} = |B|^{-1/2} prod (1 + lambda)^{-1/2}
        HSIC^2 = term_i + term_ii - 2 term_iii      = |B|^{-1/2} [expm1(a)^2 + e^(2a) expm1(b)]

    with a = -sum (log1p(lambda) - lambda) / 2 >= 0 and b = sum
    log1p(lambda^2 / (1 + 2 lambda)) / 2 >= 0: no difference is formed, so
    every field is accurate to rounding at every finite gamma.  The mean
    never enters.
    """
    gamma = _check_gamma(gamma)
    block.require_multiblock()
    if g.d != block.total:
        raise ValueError(f"measure has d={g.d} but block dims sum to {block.total}")
    s2 = np.zeros_like(g.cov)
    for sl in block.slices():
        s2[sl, sl] = g.cov[sl, sl]
    # B = 2k (r S2 + I/(2k)) with k = max(1/2, gamma), r = gamma/k: 2 gamma,
    # which overflows near 1e308, stays out of the factored matrix
    k = max(0.5, gamma)
    r = gamma / k
    chol = cholesky_spd(r * s2 + (0.5 / k) * np.eye(g.d))
    logdet_b = g.d * (math.log(2.0) + math.log(k)) + 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    lam = 0.5 * r * np.linalg.eigvalsh(np.linalg.solve(chol, np.linalg.solve(chol, g.cov - s2).T))
    # log1p(lam) - lam = 2 (atanh(t) - t) - 2 t^2/(1 - t) with t = lam/(2 + lam):
    # two terms that share a sign or differ ninefold at t < 1/3 (lam < 1);
    # from lam = 1 on the plain difference loses at most two bits
    t = lam / (2.0 + lam)
    series = 2.0 * t**3 * np.polyval(_ATANH_TAIL, t * t) - 2.0 * t * t / (1.0 - t)
    a = -0.5 * float(np.sum(np.where(t < 1.0 / 3.0, series, np.log1p(lam) - lam)))
    b = 0.5 * float(np.sum(np.log1p(lam * lam / (1.0 + 2.0 * lam))))
    term_i = math.exp(-0.5 * (logdet_b + float(np.sum(np.log1p(2.0 * lam)))))
    term_iii = math.exp(-0.5 * (logdet_b + float(np.sum(np.log1p(lam)))))
    # the bracket as (|B|^{-1/4} expm1(a))^2 + term_i (1 - e^{-b}), where
    # e^{a - log|B|/4} <= 1 (term_iii^2 <= term_i term_ii) cannot overflow
    root = math.exp(a - 0.25 * logdet_b) * -math.expm1(-a)
    return Hsic2Decomposition(term_i, math.exp(-0.5 * logdet_b), term_iii, root * root - term_i * math.expm1(-b))


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
    if int(d) != d or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d}")
    if int(n) != n or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return float(adversarial_hsic2_columns(gamma, d, 1.0 / n)[0])


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
