"""Independent NumPy recomputation of the statistic the benchmark checks.

The orthonormal bases are built here from textbook recurrences rather than
from the package, and whitening is a linear solve against ``Sigma`` rather
than the package's inverse square roots.  Only the null coefficients
(``alpha`` and ``Sigma``) come from the package.

Sign convention: degree-j polynomials carry the sign (-1)**j on their
leading coefficient for the Laguerre and Meixner families and +1 for
shifted Legendre, as in the package.  T_k does not depend on the sign of
each polynomial as long as ``alpha`` and ``Sigma`` use the same one.
"""

from __future__ import annotations

import math

import numpy as np


def laguerre_q(x: np.ndarray, k: int) -> np.ndarray:
    """Laguerre polynomials L_0..L_k at x; orthonormal under exp(-x)."""
    return np.polynomial.laguerre.lagvander(x, k).T


def shifted_legendre_q(x: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal shifted Legendre polynomials under the uniform law on [0, 1]."""
    v = np.polynomial.legendre.legvander(2.0 * x - 1.0, k).T
    return v * np.sqrt(2.0 * np.arange(k + 1) + 1.0)[:, None]


def meixner_q(x: np.ndarray, k: int, p: float) -> np.ndarray:
    """Orthonormal Meixner polynomials under the weight (1 - p) p**x.

    Monic Meixner (beta = 1, c = p) satisfy
    x P_j = P_{j+1} + a_j P_j + b_j P_{j-1} with
    a_j = (j + (j + 1) p) / (1 - p) and b_j = j**2 p / (1 - p)**2.
    """
    q = np.empty((k + 1, x.size))
    q[0] = 1.0
    prev, sb_prev = np.zeros_like(x), 0.0
    for j in range(k):
        a = (j + (j + 1) * p) / (1.0 - p)
        sb = math.sqrt((j + 1) ** 2 * p) / (1.0 - p)
        q[j + 1] = ((x - a) * q[j] - sb_prev * prev) / sb
        prev, sb_prev = q[j], sb
    signs = (-1.0) ** np.arange(k + 1)
    return q * signs[:, None]


def basis_and_density(ref, x: np.ndarray, k: int):
    """Q_0..Q_k(x) and the reference density m(x).

    ``ref`` is ("exp1",), ("unif",) or ("geom", p).
    """
    if ref[0] == "exp1":
        return laguerre_q(x, k), np.exp(-x)
    if ref[0] == "unif":
        return shifted_legendre_q(x, k), np.ones_like(x)
    if ref[0] == "geom":
        p = ref[1]
        return meixner_q(x, k, p), (1.0 - p) * p ** x
    raise ValueError(f"no oracle basis for reference {ref!r}")


def t_sequence(x: np.ndarray, ref, alphas: np.ndarray, sigma: np.ndarray,
               k: int) -> np.ndarray:
    """T_1..T_k with T_j = b[:j]' Sigma[:j, :j]^-1 b[:j]."""
    q, m = basis_and_density(ref, np.asarray(x, dtype=float), k)
    b = math.sqrt(x.size) * ((q[1:] * m).mean(axis=1) - alphas[:k])
    return np.array([b[:j] @ np.linalg.solve(sigma[:j, :j], b[:j])
                     for j in range(1, k + 1)])


def chi2_1_sf(t: float) -> float:
    """Survival function of chi-squared with one degree of freedom."""
    return math.erfc(math.sqrt(max(t, 0.0) / 2.0))
