"""Orthogonal polynomial families, their Gauss rules and convolution splits.

Three families are supported, each orthogonal with respect to a probability
measure used as the reference weight of the fit test:

* generalized Laguerre ``L(n, shape)`` -- Gamma(shape, 1) weight on (0, inf),
* shifted Legendre -- uniform weight on [0, 1],
* Meixner ``M(n, p)`` -- geometric weight ``p**x * (1 - p)`` on {0, 1, ...}.

This module owns every Gauss rule of the package: Gauss-Laguerre,
Gauss-Legendre on [0, 1], Gauss-Charlier and Gauss-Meixner, each built by
one Golub & Welsch (1969) solver from the Jacobi matrix of its probability
law.  Each law in ``measures`` gives its Gauss rule, one of these, through
its ``rule`` method; this module imports nothing from the package.  A
``PolynomialFamilySpec`` owns all that depends on its kind: its raw table,
the Gauss rule that certifies it, and its addition split.  Norms are always
established numerically at table construction, with the family's own rule at
``max_degree + 1`` nodes, and the resulting orthonormal system is certified
against its Gram matrix; printed closed-form norm constants are never
trusted.  For the Laguerre family (raw scale) and the Meixner family
(convolution scale) the polynomial of a sum ``y + z`` splits exactly into
weighted products of lower-degree polynomials of ``y`` and ``z`` at half the
family's parameter; those splits are what make closed-form convolution
coefficients possible.  They are identities of the recurrences, not
properties of a built table, so certification checks only the Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, sqrt

import numpy as np

HARD_DEGREE_CAP = 30
GRAM_TOL = 1e-8

LAGUERRE = "laguerre"
SHIFTED_LEGENDRE = "shifted_legendre"
MEIXNER = "meixner"

_KINDS = (LAGUERRE, SHIFTED_LEGENDRE, MEIXNER)


class DegreeOverflowError(ValueError):
    """Requested degree exceeds the table or the hard recurrence cap."""


class DomainError(ValueError):
    """Argument or parameter outside the valid domain of a family."""


class BasisInconsistencyError(RuntimeError):
    """Orthonormality certification failed; carries the worst entry."""

    def __init__(self, kind: str, pair: tuple[int, int], residual: float):
        self.kind = kind
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"{kind} basis failed orthonormality certification at entry "
            f"{pair}: |Gram - I| = {residual:.3e} (tolerance {GRAM_TOL:.0e})"
        )


@dataclass(frozen=True)
class PolynomialFamilySpec:
    """Which family to build, its shape parameter, and the degree cap.

    ``shape`` is the Gamma shape for Laguerre, the geometric parameter
    ``p`` for Meixner, and is ignored for shifted Legendre.
    """

    kind: str
    shape: float = 1.0
    max_degree: int = 16

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown polynomial family {self.kind!r}")
        if not 0 <= self.max_degree <= HARD_DEGREE_CAP:
            raise DegreeOverflowError(
                f"max_degree {self.max_degree} outside [0, {HARD_DEGREE_CAP}]"
            )
        if self.kind == LAGUERRE and not self.shape > 0:
            raise DomainError("Laguerre shape must be positive")
        if self.kind == MEIXNER and not 0 < self.shape < 1:
            raise DomainError("Meixner parameter p must lie in (0, 1)")

    def raw_table(self, k: int, x) -> np.ndarray:
        """Raw values P(0..k) at x, shape ``(k + 1,) + x.shape``."""
        if self.kind == LAGUERRE:
            return laguerre_table(k, self.shape, x)
        if self.kind == SHIFTED_LEGENDRE:
            return shifted_legendre_table(k, x)
        return meixner_scaled_table(k, 1.0, self.shape, x)

    def certification_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Gauss rule of the family's weight with ``max_degree + 1`` nodes,
        the fewest exact for the Gram matrix (degree 2 * max_degree)."""
        n_nodes = self.max_degree + 1
        if self.kind == LAGUERRE:
            return _gamma_weight_rule(self.shape, n_nodes)
        if self.kind == SHIFTED_LEGENDRE:
            return _uniform01_rule(n_nodes)
        return _meixner_rule(self.shape, n_nodes)

    def addition_split(self, k: int):
        """``(split, table)`` of raw degrees 0..k; None for shifted Legendre.

        ``P_i(y + z) = sum_s split[i, s, i - s] table(y)[s] table(z)[i - s]``
        where ``table`` is the family at half its order parameter (Laguerre
        ``shape / 2``, Meixner ``b = 1/2``).  The weights are 1 for Laguerre,
        for any division of the shape, and ``C(i, s)`` for Meixner.
        """
        _check_degree(k)
        if self.kind == SHIFTED_LEGENDRE:
            return None
        i, s = np.tril_indices(k + 1)
        split = np.zeros((k + 1,) * 3)
        if self.kind == LAGUERRE:
            split[i, s, i - s] = 1.0
            return split, partial(laguerre_table, k, self.shape / 2)
        split[i, s, i - s] = [comb(a, b) for a, b in zip(i, s)]
        return split, partial(meixner_scaled_table, k, 0.5, self.shape)


def _check_degree(degree: int, cap: int = HARD_DEGREE_CAP):
    if degree < 0:
        raise DomainError(f"degree must be nonnegative, got {degree}")
    if degree > cap:
        raise DegreeOverflowError(f"degree {degree} exceeds cap {cap}")


# ---------------------------------------------------------------------------
# Raw evaluations (three-term recurrences)
# ---------------------------------------------------------------------------

def laguerre_table(max_degree: int, shape: float, x) -> np.ndarray:
    """All generalized Laguerre values L(0..max_degree, shape) at x.

    Recurrence: L0 = 1, L1 = shape - x,
    (i+1) L_{i+1} = (2i + shape - x) L_i - (i + shape - 1) L_{i-1}.
    Returns an array of shape ``(max_degree + 1,) + x.shape``.
    """
    _check_degree(max_degree)
    if not shape > 0:
        raise DomainError("Laguerre shape must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = shape - x
    for i in range(1, max_degree):
        out[i + 1] = ((2 * i + shape - x) * out[i]
                      - (i + shape - 1) * out[i - 1]) / (i + 1)
    return out


def shifted_legendre_table(max_degree: int, x) -> np.ndarray:
    """Shifted Legendre values P(0..max_degree) on [0, 1].

    Defined as the ordinary Legendre polynomials at ``2x - 1``; this is the
    family with P0 = 1, P1 = 2x - 1 and squared norm 1/(2n + 1) under the
    uniform weight.
    """
    _check_degree(max_degree)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise DomainError("shifted Legendre argument must lie in [0, 1]")
    t = 2.0 * x - 1.0
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = t
    for n in range(1, max_degree):
        out[n + 1] = ((2 * n + 1) * t * out[n] - n * out[n - 1]) / (n + 1)
    return out


def meixner_scaled_table(max_degree: int, b: float, p: float, x) -> np.ndarray:
    """Meixner values in the convolution scale ``(b)_n (1-p)**n M(n; b, p)``.

    ``M(n; b, p)`` is the hypergeometric Meixner polynomial
    2F1(-n, -x; b; 1 - 1/p).  In this scale the same three-term recurrence
    holds for every positive ``b`` and the polynomial of a sum splits with
    plain binomial weights (see ``PolynomialFamilySpec.addition_split``).
    """
    _check_degree(max_degree)
    if not 0 < p < 1:
        raise DomainError("Meixner parameter p must lie in (0, 1)")
    if not b > 0:
        raise DomainError("Meixner order parameter b must be positive")
    x = np.asarray(x, dtype=float)
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = 1.0
    if max_degree >= 1:
        out[1] = b * (1 - p) - x * (1 - p) ** 2 / p
    for n in range(1, max_degree):
        out[n + 1] = (((p - 1) * x + n + (n + b) * p) * out[n]
                      - (1 - p) * n * (b + n - 1) * out[n - 1]) * (1 - p) / p
    return out


# ---------------------------------------------------------------------------
# Gauss rules and certification
# ---------------------------------------------------------------------------

def _jacobi_rule(diag: np.ndarray, off: np.ndarray):
    """Gauss rule of a probability law from its orthonormal three-term
    recurrence ``x q_j = off[j] q_(j+1) + diag[j] q_j + off[j-1] q_(j-1)``.

    The nodes are the eigenvalues of the Jacobi matrix, whose normalized
    eigenvector at node x has components ``sqrt(w) q_j(x)`` (Golub &
    Welsch).  The weight w is read from the largest component, not the
    first: at far nodes the first is below rounding, so its square loses all
    relative accuracy, while the forward recurrence for q grows towards the
    largest component, the direction in which it is stable.  Where the
    first component is the largest this is the classical ``w = v_0**2``.
    """
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    top = np.argmax(np.abs(vectors), axis=0)
    cols = np.arange(nodes.size)
    with np.errstate(all="ignore"):
        # sum_j q_j(x)**2 = 1 / w, so a row overflows (or a vanishing
        # off-diagonal divides by 0) only where w is below the float range
        step = (nodes - diag[:-1, None]) / off[:, None]
        back = off[:-1] / off[1:]
        q = np.empty_like(vectors)
        q[0] = 1.0
        q[1:2] = step[:1]
        for j in range(1, len(off)):
            q[j + 1] = step[j] * q[j] - back[j - 1] * q[j - 1]
        weights = (vectors[top, cols] / q[top, cols]) ** 2
    return nodes, np.where(np.isnan(weights), 0.0, weights)


def _gamma_weight_rule(shape: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the Gamma(shape, 1) law (generalized Gauss-Laguerre)."""
    j = np.arange(n_nodes)
    return _jacobi_rule(2 * j + shape, np.sqrt(j[1:] * (j[1:] + shape - 1)))


def _uniform01_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule of the U(0, 1) law (shifted Gauss-Legendre)."""
    j = np.arange(1, n_nodes)
    return _jacobi_rule(np.full(n_nodes, 0.5), j / (2 * np.sqrt(4 * j ** 2 - 1)))


def _charlier_rule(mu: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Charlier rule of the Poisson(mu) law."""
    j = np.arange(n_nodes)
    return _jacobi_rule(j + mu, np.sqrt(j[1:] * mu))


def _meixner_rule(c: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Meixner rule (beta = 1) of the geometric law ``(1 - c) c**x``."""
    j = np.arange(n_nodes)
    return _jacobi_rule((j + (j + 1) * c) / (1 - c),
                        j[1:] * (sqrt(c) / (1 - c)))


@dataclass
class BasisTable:
    """Certified orthonormal polynomial system for one family.

    ``norms`` are the numerically computed L2 norms of the raw family under
    its weight; normalized evaluations divide by them.
    """

    family: PolynomialFamilySpec
    norms: np.ndarray
    gram_residual: float

    def eval_normalized(self, x, max_degree: int | None = None) -> np.ndarray:
        """Orthonormal values Q(0..k) at x, shape ``(k + 1,) + x.shape``."""
        k = self.family.max_degree if max_degree is None else max_degree
        if k > self.family.max_degree:
            raise DegreeOverflowError(
                f"degree {k} exceeds table max {self.family.max_degree}")
        raw = self.family.raw_table(k, x)
        raw /= self.norms[: k + 1].reshape((k + 1,) + (1,) * (raw.ndim - 1))
        return raw


def _gram(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.einsum("in,jn,n->ij", values, values, weights)


def certify_orthonormality(family: PolynomialFamilySpec) -> BasisTable:
    """Numerically certify a family and return its orthonormal table.

    Norms come from the family's ``certification_rule``.  Every squared
    norm must be finite and positive, and the Gram matrix of the normalized
    system must match the identity within 1e-8, otherwise
    ``BasisInconsistencyError`` names the worst entry.  A table that
    overflows shows as a non-finite norm or residual, so it is refused
    without a warning.
    """
    x, weights = family.certification_rule()
    with np.errstate(all="ignore"):
        values = family.raw_table(family.max_degree, x)
        norms_sq = np.einsum("in,n->i", values ** 2, weights)
        norms = np.sqrt(norms_sq)
        resid = np.abs(_gram(values / norms[:, None], weights)
                       - np.eye(len(norms)))
    bad = np.flatnonzero(~(np.isfinite(norms_sq) & (norms_sq > 0)))
    if bad.size:
        raise BasisInconsistencyError(family.kind, (int(bad[0]),) * 2,
                                      float(norms_sq[bad[0]]))
    i, j = np.unravel_index(np.argmax(resid), resid.shape)
    worst = float(resid[i, j])
    if not worst < GRAM_TOL:
        raise BasisInconsistencyError(family.kind, (int(i), int(j)), worst)
    return BasisTable(family=family, norms=norms, gram_residual=worst)
