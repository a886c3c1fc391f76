"""Independent oracles shared by the test modules.

These deliberately avoid the library's tiled code paths: ``product_gram``
and ``mmd_v`` build dense n x n Grams, the V-statistic oracle enumerates
index tuples straight from the definition of the plug-in embedding distance,
and the U-statistic oracle sums over distinct index tuples.  The two
enumerations are O(n^large) and only meant for small n.  ``eval_kernel``
evaluates one pair of points, ``kl_gaussians`` is the general Gaussian KL
through triangular solves, and ``nystrom_cross_cov`` builds the Nystrom
features of one dataset with a plain 2-D eigendecomposition.
``points_major_nystrom`` is the stacked Nystrom estimate with each block's
landmark Gram in the points' orientation, k(x, L); the library builds k(L, x)
and multiplies its transpose.
``adversarial_terms`` is the adversarial HSIC^2 as its three determinant
terms, evaluated with math alone; the library evaluates it in a form
without their cancellation.  ``f_c`` and ``critical_slope`` are the slope
form of the gap certificate, built on these terms.  ``full_draw_gap_constant``
is the part-(ii) Monte Carlo over all d coordinates of each frequency; the
library draws only the two that decide the opposite-sign set.
``whole_draw`` draws the spectral frequencies in one call straight from the
seed's stream, and ``one_shot_gap_constant`` and ``whole_draw_mmd2`` are the
library's part-(ii) and spectral MMD^2 estimates from that one draw and one
whole-length integrand, where the library works in row blocks.
``decimal_hsic2`` is the general HSIC^2 as its three determinant terms and
their difference in 200-digit decimals, the zero-shift case of
``decimal_mmd2``, the general Gaussian MMD^2 with each determinant and its
quadratic form by elimination; the library never forms that difference.
``line_read_matrix`` parses a CSV file one line at a time into a list of
rows, where the command line reads with numpy's reader and, for the files it
refuses, streams its lines into one array.  ``block_values`` is
one block's columns of a dataset, and ``embedding_inner`` the cross term
<mu1, mu2> of the library's MMD^2 form.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.linalg import solve_triangular

from hsiclab import rng
from hsiclab.analytic import _check_gamma, _mmd2_terms
from hsiclab.cli import EXIT_DATA, CliError
from hsiclab.estimators import _inv_sqrt_psd
from hsiclab.gaussian import char_fn
from hsiclab.kernels import KernelFamily, gram, spectral_exp_sq_mean, stacked_gram


def eval_kernel(spec, x, y) -> float:
    """k(x, y) for a single pair of points; depends only on x - y."""
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.shape != yv.shape:
        raise ValueError(f"dimension mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    delta = xv - yv
    if spec.family is KernelFamily.GAUSSIAN:
        return float(np.exp(-0.5 * spec.gamma * float(delta @ delta)))
    return float(np.exp(-spec.gamma * float(np.sum(np.abs(delta)))))


def block_values(data, m: int) -> np.ndarray:
    """Columns of block m of a dataset, shape (n, d_m)."""
    return data.values[:, data.block.slices()[m]]


def embedding_inner(g1, g2, gamma: float) -> float:
    """Inner product of the Gaussian-kernel mean embeddings of two Gaussians,
    the library's ``term_iii`` of their MMD^2."""
    return _mmd2_terms(g1.mean, g1.cov, g2.mean, g2.cov, gamma).term_iii


def _clamp_kl(value: float) -> float:
    # KL is nonnegative; absorb round-off in (-1e-12, 0).
    if -1e-12 < value < 0.0:
        return 0.0
    return value


def kl_gaussians(g1, g0) -> float:
    """KL(N1 || N0) in nats.

    Computed as [tr(S0^{-1} S1) + (m0-m1)' S0^{-1} (m0-m1) - d
    + ln(|S0|/|S1|)] / 2 through the Cholesky factors of both covariances.
    """
    if g1.d != g0.d:
        raise ValueError(f"dimension mismatch: {g1.d} vs {g0.d}")
    l0, l1 = g0.chol, g1.chol
    a = solve_triangular(l0, l1, lower=True)
    trace_term = float(np.sum(a * a))
    v = solve_triangular(l0, g1.mean - g0.mean, lower=True)
    quad = float(v @ v)
    logdet0 = 2.0 * float(np.sum(np.log(np.diagonal(l0))))
    logdet1 = 2.0 * float(np.sum(np.log(np.diagonal(l1))))
    return _clamp_kl(0.5 * (trace_term + quad - g0.d + logdet0 - logdet1))


def nystrom_cross_cov(pk, data, landmark_points) -> np.ndarray:
    """Centered cross-covariance of Nystrom features built on explicit
    per-block landmark points (arrays of shape (l_m, d_m)), shape (l_0, l_1).

    Features are phi_m(x) = W_m^{-1/2} k_m(landmarks_m, x) with W_m the
    landmark Gram, its spectrum floored at 1e-10 times its largest
    eigenvalue.  Sharing landmark points across datasets puts their
    estimates in a common coordinate system.
    """
    if pk.block.m != 2:
        raise ValueError(f"cross-covariance features require exactly 2 blocks, got {pk.block.m}")
    phis = []
    for m, spec in enumerate(pk.specs):
        lm = np.atleast_2d(np.asarray(landmark_points[m], dtype=float))
        if lm.shape[1] != pk.block.dims[m]:
            raise ValueError(f"landmarks for block {m} have {lm.shape[1]} columns, expected {pk.block.dims[m]}")
        vals, vecs = np.linalg.eigh(gram(spec, lm, lm))
        vals = np.maximum(vals, 1e-10 * vals[-1])
        phi = gram(spec, block_values(data, m), lm) @ ((vecs / np.sqrt(vals)) @ vecs.T)
        phis.append(phi - phi.mean(axis=0))
    return phis[0].T @ phis[1] / data.n


def points_major_nystrom(pk, values, picks) -> np.ndarray:
    """The Nystrom estimates of one stack of datasets, ``values`` of shape
    (R, n, d) with landmark rows ``picks`` of shape (R, 2, l), with each
    block's features built in the points' orientation,
    ``stacked_gram(spec, x, lm) @ W^(-1/2)`` of shape (R, n, l), and the
    library's floored inverse square root, centering and norm."""
    phis = []
    stack = np.arange(len(values))[:, None]
    for spec, cols, rows in zip(pk.specs, pk.block.slices(), np.transpose(picks, (1, 0, 2))):
        x = values[:, :, cols]
        lm = x[stack, rows]
        phis.append(stacked_gram(spec, x, lm) @ _inv_sqrt_psd(stacked_gram(spec, lm, lm)))
    means = [phi.mean(axis=1) for phi in phis]
    cov = phis[0].transpose(0, 2, 1) @ phis[1] / values.shape[1] - means[0][:, :, None] * means[1][:, None, :]
    cov = cov.reshape(len(cov), -1)
    return np.sqrt((cov * cov).sum(axis=-1))


def product_gram(pk, data):
    """Dense per-block Gram matrices and their entrywise (Hadamard) product,
    which is the Gram matrix of the tensor kernel on the concatenated
    coordinates."""
    if data.block != pk.block:
        raise ValueError(
            f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}"
        )
    grams = tuple(
        gram(spec, block_values(data, m), block_values(data, m))
        for m, spec in enumerate(pk.specs)
    )
    prod = grams[0].copy()
    for g in grams[1:]:
        prod *= g
    return grams, prod


def mmd_v(spec, x, y) -> float:
    """Biased plug-in MMD^2 between two samples under one kernel:

        mean k(X, X) + mean k(Y, Y) - 2 mean k(X, Y), floored at 0.
    """
    if x.d != y.d:
        raise ValueError(f"dimension mismatch: {x.d} vs {y.d}")
    kxx = float(gram(spec, x.values, x.values).mean())
    kyy = float(gram(spec, y.values, y.values).mean())
    kxy = float(gram(spec, x.values, y.values).mean())
    return max(0.0, kxx + kyy - 2.0 * kxy)


def naive_hsic_v(specs, blocks_data) -> float:
    """Plug-in HSIC^2 by explicit enumeration over index tuples."""
    m_blocks = len(blocks_data)
    n = blocks_data[0].shape[0]
    kmats = [
        np.array(
            [
                [eval_kernel(specs[m], blocks_data[m][i], blocks_data[m][j]) for j in range(n)]
                for i in range(n)
            ]
        )
        for m in range(m_blocks)
    ]
    t1 = sum(
        np.prod([kmats[m][i, j] for m in range(m_blocks)])
        for i in range(n)
        for j in range(n)
    ) / n**2
    t2 = 0.0
    for ii in itertools.product(range(n), repeat=m_blocks):
        for jj in itertools.product(range(n), repeat=m_blocks):
            t2 += np.prod([kmats[m][ii[m], jj[m]] for m in range(m_blocks)])
    t2 /= n ** (2 * m_blocks)
    t3 = 0.0
    for i in range(n):
        for jj in itertools.product(range(n), repeat=m_blocks):
            t3 += np.prod([kmats[m][i, jj[m]] for m in range(m_blocks)])
    t3 *= 2.0 / n ** (m_blocks + 1)
    return float(t1 + t2 - t3)


def naive_hsic_u(k: np.ndarray, l: np.ndarray) -> float:
    """Unbiased HSIC^2 by summation over distinct index tuples."""
    n = k.shape[0]
    idx = range(n)
    h1 = sum(k[i, j] * l[i, j] for i in idx for j in idx if i != j) / (n * (n - 1))
    h3 = sum(
        k[i, j] * l[i, q] for i in idx for j in idx for q in idx if len({i, j, q}) == 3
    ) / (n * (n - 1) * (n - 2))
    h2 = sum(
        k[i, j] * l[q, r]
        for i in idx
        for j in idx
        for q in idx
        for r in idx
        if len({i, j, q, r}) == 4
    ) / (n * (n - 1) * (n - 2) * (n - 3))
    return float(h1 + h2 - 2 * h3)


def trace_form_hsic_v(k: np.ndarray, l: np.ndarray) -> float:
    """Two-block V-statistic as trace(K H L H) / n^2 with explicit centering."""
    n = k.shape[0]
    h = np.eye(n) - np.ones((n, n)) / n
    return float(np.trace(k @ h @ l @ h) / n**2)


def dense_hsic_v(grams) -> float:
    """M-block V-statistic from dense Grams: means of the Hadamard product,
    of each Gram, and of the product of the per-block row means."""
    term1 = np.prod(np.stack(grams), axis=0).mean()
    term2 = np.prod([g.mean() for g in grams])
    term3 = np.prod(np.stack([g.mean(axis=1) for g in grams]), axis=0).mean()
    return float(term1 + term2 - 2.0 * term3)


def dense_hsic_u(k: np.ndarray, l: np.ndarray) -> float:
    """Two-block U-statistic from dense Grams with explicitly zeroed diagonals."""
    n = k.shape[0]
    kt = k - np.diag(np.diag(k))
    lt = l - np.diag(np.diag(l))
    t1 = np.sum(kt * lt)
    t2 = kt.sum() * lt.sum() / ((n - 1) * (n - 2))
    t3 = 2.0 * float(kt.sum(axis=1) @ lt.sum(axis=1)) / (n - 2)
    return float((t1 + t2 - t3) / (n * (n - 3)))


def random_spd(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric positive definite matrix with a safe spectral floor."""
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T / d + 0.5 * np.eye(d))


def correlated_cov(rng: np.random.Generator, block, s: float) -> tuple[np.ndarray, np.ndarray]:
    """(D + s (C - D), D): C is the correlation matrix of a ``random_spd``
    matrix and D its block-diagonal part, so s in (0, 1] scales every
    cross-block correlation and keeps the matrix positive definite."""
    cov = random_spd(rng, block.total)
    scale = np.sqrt(np.diagonal(cov))
    corr = cov / np.outer(scale, scale)
    diag = np.zeros_like(corr)
    for sl in block.slices():
        diag[sl, sl] = corr[sl, sl]
    return diag + s * (corr - diag), diag


def _decimal_det_solve(rows, rhs):
    # elimination without pivoting, then back substitution: every matrix here
    # is positive definite
    d = len(rows)
    rows = [list(row) + [v] for row, v in zip(rows, rhs)]
    det = Decimal(1)
    for j in range(d):
        det *= rows[j][j]
        for i in range(j + 1, d):
            f = rows[i][j] / rows[j][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]
    x = [Decimal(0)] * d
    for j in reversed(range(d)):
        x[j] = (rows[j][d] - sum(rows[j][c] * x[c] for c in range(j + 1, d))) / rows[j][j]
    return det, x


def decimal_mmd2(mean1, cov1, mean2, cov2, gamma: float) -> list[float]:
    """[term_i, term_ii, term_iii, value] of the Gaussian-kernel MMD^2 of
    N(m1, S1) and N(m2, S2), from the exact values of the floats in 200-digit
    decimals, with g = gamma and d = m1 - m2:

        term_i   = |2g S1 + I|^{-1/2},  term_ii = |2g S2 + I|^{-1/2},
        term_iii = |g S1 + g S2 + I|^{-1/2} exp(-g d' (g S1 + g S2 + I)^{-1} d / 2),
        value    = term_i + term_ii - 2 term_iii

    Each determinant and the quadratic form's solve are by elimination."""
    with localcontext() as ctx:
        ctx.prec = 200
        g = Decimal(gamma)
        s1, s2, eye = ([[Decimal(v) for v in row] for row in m.tolist()] for m in (cov1, cov2, np.eye(len(mean1))))
        delta = [Decimal(a) - Decimal(b) for a, b in zip(mean1.tolist(), mean2.tolist())]

        def term(c1, c2, shift):
            rows = [[c1 * a + c2 * b + e for a, b, e in zip(*row)] for row in zip(s1, s2, eye)]
            det, x = _decimal_det_solve(rows, shift)
            return (-g * sum(a * b for a, b in zip(shift, x)) / 2).exp() / det.sqrt()

        zero = [Decimal(0)] * len(delta)
        terms = [term(2 * g, 0, zero), term(0, 2 * g, zero), term(g, g, delta)]
        return [float(t) for t in terms + [terms[0] + terms[1] - 2 * terms[2]]]


def decimal_hsic2(cov: np.ndarray, block, gamma: float) -> list[float]:
    """``decimal_mmd2`` of N(0, S1) and N(0, S2), S2 the block-diagonal part
    of S1 = cov: HSIC^2 = |2g S1 + I|^{-1/2} + |2g S2 + I|^{-1/2} - 2 |g S1 +
    g S2 + I|^{-1/2}."""
    s2 = np.zeros_like(cov)
    for sl in block.slices():
        s2[sl, sl] = cov[sl, sl]
    zero = np.zeros(block.total)
    return decimal_mmd2(zero, cov, zero, s2, gamma)


def adversarial_terms(gamma: float, d: int, rho: float) -> tuple[float, float, float]:
    """The three terms of the adversarial HSIC^2 = term_i + term_ii - 2 term_iii,
    with z = 2 gamma + 1:

        term_i   = [z^{d-2} (z^2 - (2 gamma rho)^2)]^{-1/2}
        term_ii  = z^{-d/2}
        term_iii = [z^{d-2} (z^2 - (gamma rho)^2)]^{-1/2}
    """
    z = 2.0 * gamma + 1.0
    t1 = (z ** (d - 2) * (z * z - (2.0 * gamma * rho) ** 2)) ** -0.5
    t3 = (z ** (d - 2) * (z * z - (gamma * rho) ** 2)) ** -0.5
    return t1, z ** (-d / 2.0), t3


def critical_slope(gamma: float, d: int) -> float:
    """Largest slope c for which f_c stays nonnegative on (0, 1]:
    c* = gamma^2 / ((2 gamma + 1)^2 sqrt((2 gamma + 1)^d))."""
    gamma = _check_gamma(gamma)
    z = 2.0 * gamma + 1.0
    return gamma * gamma * math.exp(-(2.0 + d / 2.0) * math.log(z))


def f_c(x: float, gamma: float, d: int, c: float) -> float:
    """Slope-certificate function, with z = 2 gamma + 1:

        f_c(x) = [z^{d-2}(z^2 - 4 gamma^2 x)]^{-1/2} + (z^d)^{-1/2}
                 - 2 [z^{d-2}(z^2 - gamma^2 x)]^{-1/2} - c x

    from ``adversarial_terms`` at rho = sqrt(x), for 0 <= x < (1 + 1/(2 gamma))^2.
    f_c(0) = 0, and with c = critical_slope(gamma, d) the function is
    nonnegative and nondecreasing on (0, 1]; evaluating at x = 1/n certifies
    the HSIC^2 gap at budget n.
    """
    gamma = _check_gamma(gamma)
    x = float(x)
    limit = (1.0 + 1.0 / (2.0 * gamma)) ** 2
    if not 0.0 <= x < limit:
        raise ValueError(f"x must lie in [0, {limit}), got {x}")
    t1, t2, t3 = adversarial_terms(gamma, d, math.sqrt(x))
    return t1 + t2 - 2.0 * t3 - float(c) * x


def full_draw_gap_constant(spec, block, n_freq: int, seed: int) -> tuple[float, float]:
    """The squared gap constant int_A (w_i w_j exp(-|w|^2 / 2))^2 dL(w) as
    (estimate, standard error) from n_freq full d-coordinate frequencies,
    (i, j) the coordinates adjacent to the first block boundary."""
    omegas = whole_draw(spec, block.total, n_freq, seed)
    i = block.dims[0] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        pair = omegas[:, i] * omegas[:, i + 1]
        values = np.where(pair < 0.0, pair * pair * np.exp(-np.einsum("nd,nd->n", omegas, omegas)), 0.0)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_freq))


def whole_draw(spec, dim: int, n: int, seed: int) -> np.ndarray:
    """n frequency vectors of the kernel's spectral measure from one call of
    the seed's stream: N(0, gamma) or Cauchy(scale=gamma) coordinates."""
    gen = rng.stream(seed)
    if spec.family is KernelFamily.GAUSSIAN:
        return np.sqrt(spec.gamma) * gen.standard_normal((n, dim))
    with np.errstate(over="ignore"):
        return spec.gamma * gen.standard_cauchy((n, dim))


def whole_draw_mmd2(g1, g2, spec, n_freq: int, seed: int) -> tuple[float, float]:
    """The spectral MMD^2 estimate and its standard error from one
    ``whole_draw`` and one whole-length integrand; a frequency that is not
    finite contributes 0."""
    omegas = whole_draw(spec, g1.d, n_freq, seed)
    finite = np.isfinite(omegas).all(axis=1)
    values = np.zeros(n_freq)
    values[finite] = np.abs(char_fn(g1, omegas[finite]) - char_fn(g2, omegas[finite])) ** 2
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_freq))


def one_shot_gap_constant(spec, block, n_freq: int, seed: int) -> tuple[float, float]:
    """The two-coordinate part-(ii) estimate and its standard error, each
    times the exact factor of the other d - 2 coordinates, from one
    ``whole_draw`` and one whole-length integrand."""
    omegas = whole_draw(spec, 2, n_freq, seed)
    with np.errstate(over="ignore"):
        pair = omegas[:, 0] * omegas[:, 1]
        weight = np.exp(-np.einsum("nd,nd->n", omegas, omegas))
    kept = np.where((pair < 0.0) & (weight > 0.0), pair, 0.0)
    values = kept * kept * weight
    rest = spectral_exp_sq_mean(spec) ** (block.total - 2)
    return float(values.mean()) * rest, float(values.std(ddof=1) / math.sqrt(n_freq)) * rest


def line_read_matrix(path: str, header: bool = False) -> np.ndarray:
    """``cli.read_matrix`` one line at a time: each line's cells through a
    list comprehension of floats, every row held in one list of lists."""
    rows: list[list[float]] = []
    width = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if header and lineno == 1:
                    continue
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                try:
                    row = [float(cell) for cell in cells]
                    finite = all(map(math.isfinite, row))
                except ValueError:
                    finite = False
                if not finite:
                    column = next(j for j, cell in enumerate(cells) if not _is_finite_number(cell))
                    raise CliError(
                        EXIT_DATA,
                        f"{path}: line {lineno}, column {column + 1}: {cells[column].strip()!r} is not a finite number",
                    )
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise CliError(
                        EXIT_DATA,
                        f"{path}: line {lineno}: expected {width} columns, found {len(row)}",
                    )
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise CliError(EXIT_DATA, f"{path}: not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}") from exc
    if not rows:
        raise CliError(EXIT_DATA, f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False
