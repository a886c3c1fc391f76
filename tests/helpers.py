"""Independent oracles shared by the test modules.

These deliberately avoid the library's tiled code paths: ``product_gram``
and ``mmd_v`` build dense n x n Grams, the V-statistic oracle enumerates
index tuples straight from the definition of the plug-in embedding distance,
and the U-statistic oracle sums over distinct index tuples.  The two
enumerations are O(n^large) and only meant for small n.
"""

from __future__ import annotations

import itertools

import numpy as np

from hsiclab.kernels import eval_kernel, gram


def product_gram(pk, data):
    """Dense per-block Gram matrices and their entrywise (Hadamard) product,
    which is the Gram matrix of the tensor kernel on the concatenated
    coordinates."""
    if data.block != pk.block:
        raise ValueError(
            f"dataset blocks {data.block.dims} do not match kernel blocks {pk.block.dims}"
        )
    grams = tuple(
        gram(spec, data.block_values(m), data.block_values(m))
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
