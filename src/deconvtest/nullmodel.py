"""Null expansion coefficients and their covariance.

Under the null the observable X = Y + Z has expansion coefficients
``alpha_j = E[Q_j(X) m(X)]`` against the orthonormal reference basis, and
the test statistic whitens empirical coefficient estimates with

    sigma_ij = E[Q_i(X) Q_j(X) m(X)**2] - alpha_i * alpha_j.

Every reference density is ``m(0) * exp(-rate * x)`` on its support, so
``alpha_j`` is ``m(0)`` times a polynomial moment under the law tilted by
``exp(-rate x)``, and the second moment is ``m(0)**2`` times a polynomial
moment of degree at most 2k under the law tilted by ``exp(-2 rate x)``.
Both deterministic paths take these from each axis's Gauss rule, the
law's ``rule`` (called as ``engines.expectation_rule``), one of those that
``orthopoly`` owns, with k + 1 nodes, exact, in one pass.  The reference
fixes the basis family, and the family supplies its addition split, so this
module never asks which family it has.  Two computation paths exist:

* ``closed_form``: the polynomial of the sum is split by the family's
  addition identity, with its parameter halved between Y and Z, into
  products of one-dimensional expectations over Y and Z separately; a
  family without a split (shifted Legendre) serves a ``closed_form``
  request by the tensor rule and records ``quadrature``,
* ``quadrature``: the tensor rule over (Y, Z) of the bivariate integrand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import inf, sqrt

import numpy as np

from .engines import expectation_rule
from .measures import Distribution, ReferenceMeasure
from .orthopoly import PolynomialFamilySpec, certify_orthonormality

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"

PSD_SLACK = 1e-10
CONDITION_CAP = 1e12  # largest condition number of a usable covariance block


class NullSpecError(ValueError):
    """Inconsistent pairing of component laws and reference."""


def plain_dict(obj) -> dict:
    """``dataclasses.asdict`` with arrays written as lists, for JSON."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(obj).items()}


def value_masses(y: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values 0, ..., w - 1 and ``top`` of X = Y + Z, and their masses.

    ``y`` and ``z`` hold the masses of independent count laws on 0 .. top
    - 1; their convolution, each cut after its last nonzero mass, gives
    P(X = v) for v < w <= top (past w every product is below 2**-1074).
    The last value, ``top``, takes the rest, clipped at 0: P(X >= top),
    where a component's mass at or beyond ``top`` lands.
    """
    top = y.size
    ly, lz = (int(np.max(np.flatnonzero(m), initial=0)) + 1 for m in (y, z))
    p = np.convolve(y[:ly], z[:lz])[:top]
    return (np.append(np.arange(p.size), top),
            np.append(p, max(0.0, 1.0 - p.sum())))


@dataclass(frozen=True)
class NullSpec:
    """The convolution null: independent component laws and a reference.

    The reference fixes ``basis``, its family's certified table, which is
    no field: nulls compare and hash by their laws and reference.
    """

    y: Distribution
    z: Distribution
    ref: ReferenceMeasure
    # Y and Z are independent; perfbench/spans.py labels its coefficient
    # span by this until that label comes from ``NullCoefficients.method``
    independent = True

    def __post_init__(self):
        object.__setattr__(self, "basis", certify_orthonormality(
            PolynomialFamilySpec(*self.ref.family)))
        lo_y, hi_y = self.y.support()
        lo_z, hi_z = self.z.support()
        lo_r, hi_r = self.ref.support()
        if lo_y + lo_z < lo_r or hi_y + hi_z > hi_r:
            raise NullSpecError(
                f"support of Y + Z [{lo_y + lo_z}, {hi_y + hi_z}] is not "
                f"contained in the reference support [{lo_r}, {hi_r}]")
        if self.ref.discrete and not (self.y.discrete and self.z.discrete):
            raise NullSpecError(
                "a discrete reference requires integer-supported components")

    def basis_terms(self, x: np.ndarray, k: int) -> np.ndarray:
        """Q_1..Q_k(x) m(x), shape (k,) + x.shape; 0 where m(x) underflows.

        Where m(x) is 0 the basis is evaluated at 0 instead of at an x where
        it may overflow, so a far value gives 0, not inf * 0.
        """
        m = self.ref.density(x)
        if not m.all():
            x = np.where(m > 0, x, 0.0)
        v = self.basis.eval_normalized(x, k)[1:]
        v *= m
        return v

    def config(self) -> dict:
        return {
            "y": self.y.config(),
            "z": self.z.config(),
            "reference": self.ref.config(),
            "dependence": "independent",
            "basis": {"kind": self.basis.family.kind,
                      "shape": self.basis.family.shape},
        }


@dataclass
class NullCoefficients:
    """alpha_1..alpha_k, the k x k covariance, and how they were obtained."""

    k: int
    alphas: np.ndarray
    sigma: np.ndarray
    method: str
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in (CLOSED_FORM, QUADRATURE):
            raise ValueError(f"unknown coefficient method {self.method!r}")
        if (not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool)
                or self.k < 1):
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        self.alphas = np.asarray(self.alphas, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        if self.alphas.shape != (self.k,) or self.sigma.shape != (self.k, self.k):
            raise ValueError("coefficient shapes do not match k")
        if not (np.isfinite(self.alphas).all() and np.isfinite(self.sigma).all()):
            raise FloatingPointError("coefficients hold non-finite values")
        asym = float(np.max(np.abs(self.sigma - self.sigma.T)))
        if asym > 1e-12:
            raise ValueError(f"sigma is not symmetric (max asymmetry {asym:.3e})")
        min_eigen = float(np.linalg.eigvalsh(self.sigma)[0])
        if min_eigen < -PSD_SLACK:
            raise np.linalg.LinAlgError(
                f"sigma has eigenvalue {min_eigen:.3e} below the "
                f"-{PSD_SLACK:.0e} positive-semidefiniteness slack")
        if min_eigen < 0 and "psd-clip" not in " ".join(self.notes):
            self.notes = self.notes + (
                f"psd-clip: eigenvalue {min_eigen:.3e} in "
                f"(-{PSD_SLACK:.0e}, 0) treated as zero",)

    def to_dict(self) -> dict:
        return plain_dict(self)


# ---------------------------------------------------------------------------
# Deterministic paths
# ---------------------------------------------------------------------------

def _split_pieces(dist: Distribution, table, ref: ReferenceMeasure, k: int):
    """One-dimensional expectations of one axis's split factors.

    With ``P = table(x)`` and m(x) = m(0) exp(-rate x),
    a1[s] = sqrt(m(0)) E[P_s(X) e^(-rate X)] and
    a2[s, t] = m(0) E[P_s(X) P_t(X) e^(-2 rate X)]; products of the pieces
    of Y and Z then carry m(Y + Z) and m(Y + Z)**2.  Each is a polynomial of
    degree at most 2k under a tilted law, so k + 1 nodes are exact.
    """
    m0 = float(ref.density(0.0))
    x, w = expectation_rule(dist, k + 1, ref.rate)
    a1 = sqrt(m0) * (table(x) @ w)
    x, w = expectation_rule(dist, k + 1, 2.0 * ref.rate)
    values = table(x)
    a2 = m0 * np.einsum("sn,tn,n->st", values, values, w)
    return a1, a2


def _closed_form(null: NullSpec, k: int, split: np.ndarray, table):
    """Coefficients through the family's addition split.

    ``split[i, s, r]`` is the weight of P_s(y) P_r(z) in P_i(y + z), where
    ``table`` evaluates P at half the family's parameter.
    """
    a1, a2 = _split_pieces(null.y, table, null.ref, k)
    b1, b2 = _split_pieces(null.z, table, null.ref, k)
    norms = null.basis.norms[: k + 1]
    alphas = np.einsum("isr,s,r->i", split, a1, b1) / norms
    m2 = np.einsum("isr,jtq,st,rq->ij", split, split, a2, b2, optimize=True)
    return alphas, m2 / np.outer(norms, norms) - np.outer(alphas, alphas)


def _tensor_rule(null: NullSpec, k: int, rate: float):
    """Values q = Q(y + z) and weights of the product rule at ``rate``."""
    y, wy = expectation_rule(null.y, k + 1, rate)
    z, wz = expectation_rule(null.z, k + 1, rate)
    return (null.basis.eval_normalized(y[:, None] + z[None, :], k),
            wy[:, None] * wz[None, :])


def _quadrature(null: NullSpec, k: int):
    """Tensor rule: alpha = m(0) sum(w q) at ``rate``, and the second
    moment m(0)**2 sum(w q q) at ``2 * rate``, both at x = y + z."""
    m0 = float(null.ref.density(0.0))
    q, w = _tensor_rule(null, k, null.ref.rate)
    alphas = m0 * np.tensordot(q, w, axes=([1, 2], [0, 1]))
    q, w = _tensor_rule(null, k, 2.0 * null.ref.rate)
    m2 = m0 ** 2 * np.einsum("iab,jab,ab->ij", q, q, w)
    return alphas, m2 - np.outer(alphas, alphas)


def compute_coefficients(null: NullSpec, k: int,
                         method: str = CLOSED_FORM) -> NullCoefficients:
    """Compute alpha_1..alpha_k and sigma under the null.

    ``method`` is ``closed_form`` (the default) or ``quadrature``.  Where
    the family has no addition split (shifted Legendre) the closed form is
    the tensor rule, and the result records ``quadrature``.
    """
    if k < 1:
        raise ValueError("order k must be at least 1")
    if k > null.basis.family.max_degree:
        raise ValueError(
            f"order {k} exceeds the basis degree {null.basis.family.max_degree}")
    if method not in (CLOSED_FORM, QUADRATURE):
        raise ValueError(f"unknown coefficient method {method!r}")
    split = (null.basis.family.addition_split(k) if method == CLOSED_FORM
             else None)
    if split is None:
        method = QUADRATURE
        full_a, full_s = _quadrature(null, k)
    else:
        full_a, full_s = _closed_form(null, k, *split)
    # both paths carry the degree-0 row; drop it
    alphas, sigma = full_a[1:], full_s[1:, 1:]
    return NullCoefficients(k=k, alphas=alphas, sigma=sigma, method=method)


# ---------------------------------------------------------------------------
# Eigenvalue diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDiagnostics:
    """Spectral health of the nested covariance blocks.

    Entry j - 1 of each field describes the leading block sigma[:j, :j].
    ``usable_k_max`` is the longest run of blocks whose every eigenvalue
    lies above ``lambda_max / CONDITION_CAP`` (full rank under the cap).
    """

    lambda_mins: np.ndarray
    lambda_maxs: np.ndarray
    condition_numbers: np.ndarray
    usable_k_max: int


def eigen_floor_diagnostics(coeffs: NullCoefficients) -> EigenDiagnostics:
    """One symmetric eigenvalue solve per leading block of ``coeffs.sigma``.

    It gives each order's extreme eigenvalues and condition number, and the
    usable cap: beyond it a block has an eigenvalue at or below the floor
    ``lambda_max / CONDITION_CAP``.  Raises ``LinAlgError`` if sigma_11 <= 0.

    A usable block of order up to ``orthopoly.HARD_DEGREE_CAP`` has a
    Cholesky factor: scaled to a unit diagonal, its smallest eigenvalue
    still exceeds 1 / CONDITION_CAP, ten times the 1.0e-13 that Demmel's
    sufficient condition asks for at order 30 (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 10).
    """
    sigma = 0.5 * (coeffs.sigma + coeffs.sigma.T)
    spectra = [np.linalg.eigvalsh(sigma[:j, :j])
               for j in range(1, coeffs.k + 1)]
    lam_min = np.array([w[0] for w in spectra])
    lam_max = np.array([w[-1] for w in spectra])
    full_rank = lam_min > np.maximum(lam_max / CONDITION_CAP, 0.0)
    if not full_rank[0]:
        raise np.linalg.LinAlgError(
            "all eigenvalues fall below the condition floor")
    usable = int(np.argmin(np.append(full_rank, False)))  # first False
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(lam_min > 0, lam_max / np.maximum(lam_min, 1e-300), inf)
    return EigenDiagnostics(lambda_mins=lam_min, lambda_maxs=lam_max,
                            condition_numbers=cond,
                            usable_k_max=usable)
