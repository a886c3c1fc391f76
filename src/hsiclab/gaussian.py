"""Multivariate normal model: adversarial covariance construction, sampling,
characteristic functions, and exact/bounded Kullback-Leibler divergences.

All determinants and inverses go through Cholesky factors; covariances are
rejected up front unless they are symmetric and strictly positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .data import BlockStructure, Dataset

_SYM_TOL = 1e-12
_PIVOT_TOL = 1e-12


def cholesky_spd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, rejecting matrices with pivots below 1e-12."""
    try:
        chol = np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    if float(np.min(np.diagonal(chol))) ** 2 <= _PIVOT_TOL:
        raise ValueError("matrix is numerically singular (Cholesky pivot below 1e-12)")
    return chol


@dataclass(frozen=True, eq=False)
class GaussianMeasure:
    """N(mean, cov) on R^d with a symmetric, strictly positive definite cov."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float).reshape(-1)
        cov = np.array(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"cov must be a square matrix, got shape {cov.shape}")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has length {mean.shape[0]} but cov is {cov.shape[0]}x{cov.shape[1]}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        if cov.size and float(np.max(np.abs(cov - cov.T))) > _SYM_TOL:
            raise ValueError("cov must be symmetric to within 1e-12 per entry")
        chol = cholesky_spd(cov)
        for arr in (mean, cov, chol):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of cov."""
        return self._chol  # type: ignore[attr-defined]

    @classmethod
    def standard(cls, d: int) -> "GaussianMeasure":
        """N(0, I_d)."""
        return cls(np.zeros(d), np.eye(d))


def make_adversarial_cov(block: BlockStructure, rho: float) -> np.ndarray:
    """Identity matrix of size d with entries (i, i+1) and (i+1, i) set to rho,
    where i = ``block.dims[0] - 1``: the correlated pair straddles the first
    block boundary.  The determinant is 1 - rho^2.
    """
    block.require_multiblock()
    rho = float(rho)
    if not -1.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (-1, 1) for a positive definite matrix, got {rho}")
    i = block.dims[0] - 1
    cov = np.eye(block.total)
    cov[i, i + 1] = rho
    cov[i + 1, i] = rho
    return cov


def sample(g: GaussianMeasure, n: int, seed: int, block: BlockStructure | None = None) -> Dataset:
    """n i.i.d. rows mean + L z, with L the Cholesky factor of cov.

    Deterministic in (g, n, seed).  ``block`` defaults to a single block of
    size d; pass an explicit partition when the rows feed an independence
    estimator.
    """
    if block is None:
        block = BlockStructure((g.d,))
    if block.total != g.d:
        raise ValueError(f"block dims sum to {block.total} but the measure has d={g.d}")
    return Dataset(sample_stack(g, n, [rng.stream(seed)], 1)[0], block)


def sample_stack(g: GaussianMeasure, n: int, gens, count: int) -> np.ndarray:
    """The rows of ``sample`` for each of the next ``count`` generators of
    ``gens`` in turn, stacked as (count, n, d): row r is ``sample(g, n,
    seed).values`` when the r-th generator is ``rng.stream(seed)``.  Each
    generator draws straight into its slot of the stack, so it need only
    stay valid until the next is drawn (as ``rng.streams`` yields them)."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    z = np.empty((count, int(n), g.d))
    drawn = 0
    for slot, gen in zip(z, gens):
        gen.standard_normal(out=slot)
        drawn += 1
    if drawn < count:
        raise ValueError(f"need {count} generators, got {drawn}")
    return g.mean + z @ g.chol.T


def char_fn(g: GaussianMeasure, omega: np.ndarray):
    """Characteristic function exp(i <mean, w> - <w, cov w>/2).

    Accepts a single frequency of shape (d,) or a batch of shape (N, d);
    returns a complex scalar or a complex array accordingly.
    """
    om = np.asarray(omega, dtype=float)
    single = om.ndim == 1
    om2 = np.atleast_2d(om)
    if om2.shape[1] != g.d:
        raise ValueError(f"omega has dimension {om2.shape[1]}, measure has d={g.d}")
    if not np.all(np.isfinite(om2)):
        raise ValueError("omega must be finite")
    # <w, cov w> as |L^T w|^2, a sum of squares: at huge frequencies it
    # overflows to inf (or NaN, where L^T w sums inf and -inf), and there the
    # value is its limit 0; the phase <mean, w>, which may overflow too, is
    # used only where the modulus exp(-|L^T w|^2 / 2) is positive
    with np.errstate(over="ignore", invalid="ignore"):
        phase = om2 @ g.mean
        half = om2 @ g.chol
        quad = np.einsum("nd,nd->n", half, half)
    live = np.exp(-0.5 * quad) > 0.0
    vals = np.zeros(om2.shape[0], dtype=complex)
    vals[live] = np.exp(1j * phase[live] - 0.5 * quad[live])
    return complex(vals[0]) if single else vals


def _check_adversarial_args(n: int, rho: float) -> None:
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")


def adversarial_kl(n, rho) -> tuple[np.ndarray, np.ndarray]:
    """Exact n-fold product KL of the adversarial pair, 1/(2n) + (n/2) ln(1/(1 - rho^2)),
    and its budget bound 1/(2n) + (n/2) rho^2/(1 - rho^2), elementwise over float
    arrays or scalars ``n`` and ``rho``.  Unvalidated: ``kl_adversarial_exact``
    and ``kl_adversarial_bound`` are the checked scalar forms."""
    base = 1.0 / (2.0 * n)
    exact = base - 0.5 * n * np.log1p(-rho * rho)
    bound = base + 0.5 * n * rho * rho / (1.0 - rho * rho)
    return exact, bound


def kl_adversarial_exact(n: int, rho: float) -> float:
    """Exact n-fold product KL of the adversarial pair (see ``adversarial_kl``).

    Equals n times the per-sample KL (product measures add), independent of
    the dimension and of how it splits across blocks.
    """
    _check_adversarial_args(n, rho)
    return float(adversarial_kl(n, rho)[0])


def kl_adversarial_bound(n: int, rho: float) -> float:
    """Budget bound on the adversarial KL (see ``adversarial_kl``); at
    rho^2 = 1/n it is at most 5/4 for every n >= 2 (ln x <= x - 1)."""
    _check_adversarial_args(n, rho)
    return float(adversarial_kl(n, rho)[1])
