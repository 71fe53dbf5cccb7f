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

    The reference owns the basis (``ref.basis``), so a null holds nothing
    else and compares and hashes by its laws and reference.
    """

    y: Distribution
    z: Distribution
    ref: ReferenceMeasure
    # Y and Z are independent; perfbench/spans.py labels its coefficient
    # span by this until that label comes from ``NullCoefficients.method``
    independent = True

    def __post_init__(self):
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

    def config(self) -> dict:
        return {
            "y": self.y.config(),
            "z": self.z.config(),
            "reference": self.ref.config(),
            "dependence": "independent",
            "basis": {"kind": self.ref.family.kind,
                      "shape": self.ref.family.shape},
        }


@dataclass
class NullCoefficients:
    """alpha_1..alpha_k, the k x k covariance, and how they were obtained."""

    k: int
    alphas: np.ndarray
    sigma: np.ndarray
    method: str

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

    def to_dict(self) -> dict:
        return plain_dict(self)


# ---------------------------------------------------------------------------
# Deterministic paths
# ---------------------------------------------------------------------------

def _one_pass(evaluate, points) -> list[np.ndarray]:
    """``evaluate`` at every array of ``points`` in one call.

    ``evaluate`` maps a flat array to rows of values at it.  This returns
    one contiguous block per array x, of shape ``(rows,) + x.shape``, with
    the bits that a call on x alone gives.
    """
    values, blocks, start = evaluate(np.concatenate(points, axis=None)), [], 0
    for x in points:
        part = np.ascontiguousarray(values[:, start:start + x.size])
        blocks.append(part.reshape(part.shape[:1] + x.shape))
        start += x.size
    return blocks


def _closed_form(null: NullSpec, k: int, split: np.ndarray, table):
    """Coefficients through the family's addition split.

    ``split[i, s, r]`` is the weight of P_s(y) P_r(z) in P_i(y + z), where
    ``table`` evaluates P at half the family's parameter.  With m(x) =
    m(0) exp(-rate x), each axis gives the pieces a1[s] = sqrt(m(0))
    E[P_s(X) e^(-rate X)] and a2[s, t] = m(0) E[P_s(X) P_t(X) e^(-2 rate
    X)]; products of the pieces of Y and Z then carry m(Y + Z) and
    m(Y + Z)**2.  Each is a polynomial of degree at most 2k under a tilted
    law, so k + 1 nodes are exact.  One ``table`` pass covers the nodes of
    all four rules.
    """
    m0, rate = float(null.ref.density(0.0)), null.ref.rate
    nodes, weights = zip(*[expectation_rule(dist, k + 1, tilt)
                           for dist in (null.y, null.z)
                           for tilt in (rate, 2.0 * rate)])
    v = _one_pass(table, nodes)
    a1, b1 = (sqrt(m0) * (v[i] @ weights[i]) for i in (0, 2))
    a2, b2 = (m0 * np.einsum("sn,tn,n->st", v[i], v[i], weights[i])
              for i in (1, 3))
    norms = null.ref.basis.norms[: k + 1]
    alphas = np.einsum("isr,s,r->i", split, a1, b1) / norms
    # the sum of split[i, s, r] split[j, t, q] a2[s, t] b2[r, q], by pairs
    m2 = np.tensordot(np.tensordot(b2, split, ([1], [2])),
                      np.tensordot(a2, split, ([0], [1])), ([0, 2], [2, 0])).T
    return alphas, m2 / np.outer(norms, norms) - np.outer(alphas, alphas)


def _quadrature(null: NullSpec, k: int):
    """Tensor rule: alpha = m(0) sum(w q) at ``rate``, and the second
    moment m(0)**2 sum(w q q) at ``2 * rate``, both at q = Q(y + z).  One
    basis pass covers both tilts' grids."""
    m0, rate = float(null.ref.density(0.0)), null.ref.rate
    grids, weights = [], []
    for tilt in (rate, 2.0 * rate):
        y, wy = expectation_rule(null.y, k + 1, tilt)
        z, wz = expectation_rule(null.z, k + 1, tilt)
        grids.append(y[:, None] + z[None, :])
        weights.append(wy[:, None] * wz[None, :])
    q1, q2 = _one_pass(lambda x: null.ref.basis.eval_normalized(x, k), grids)
    alphas = m0 * np.tensordot(q1, weights[0], axes=([1, 2], [0, 1]))
    m2 = m0 ** 2 * np.einsum("iab,jab,ab->ij", q2, q2, weights[1])
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
    family = null.ref.family
    if k > family.max_degree:
        raise ValueError(
            f"order {k} exceeds the basis degree {family.max_degree}")
    if method not in (CLOSED_FORM, QUADRATURE):
        raise ValueError(f"unknown coefficient method {method!r}")
    split = family.addition_split(k) if method == CLOSED_FORM else None
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

    Entry j - 1 of each array describes the leading block sigma[:j, :j].
    ``usable_k_max`` is the one usable order, which ``eigen_floor_diagnostics``
    decides; ``cut`` names the cancelled order that ended it, if one did.
    """

    lambda_mins: np.ndarray
    condition_numbers: np.ndarray
    usable_k_max: int
    cut: str = ""


def eigen_floor_diagnostics(coeffs: NullCoefficients) -> EigenDiagnostics:
    """One symmetric eigenvalue solve per leading block of ``coeffs.sigma``,
    and one Cholesky factor, of the longest run of blocks above the floor.

    It gives each order's smallest eigenvalue and condition number, and the
    usable order: the run stops before a block with an eigenvalue at or
    below ``lambda_max / CONDITION_CAP``, and before an order j whose pivot
    ``L_jj**2`` is at most 1 / CONDITION_CAP of its second moment
    ``sigma_jj + alpha_j**2``, where sigma_jj is only what cancellation left
    of the moment.  Raises ``LinAlgError`` if sigma has an eigenvalue below
    ``-PSD_SLACK``, and then if order 1 is not usable, naming the
    cancellation or the floor.

    A block of order up to ``orthopoly.HARD_DEGREE_CAP`` above the floor
    has a Cholesky factor: scaled to a unit diagonal, its smallest
    eigenvalue still exceeds 1 / CONDITION_CAP, ten times the 1.0e-13 that
    Demmel's sufficient condition asks for at order 30 (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 10).
    """
    sigma = 0.5 * (coeffs.sigma + coeffs.sigma.T)
    lam_min, lam_max = np.array([np.linalg.eigvalsh(sigma[:j, :j])[[0, -1]]
                                 for j in range(1, coeffs.k + 1)]).T
    if lam_min[-1] < -PSD_SLACK:
        raise np.linalg.LinAlgError(
            f"sigma has eigenvalue {lam_min[-1]:.3e} below the "
            f"-{PSD_SLACK:.0e} positive-semidefiniteness slack")
    full_rank = lam_min > np.maximum(lam_max / CONDITION_CAP, 0.0)
    floor = int(np.argmin(np.append(full_rank, False)))  # first False
    pivots = np.linalg.cholesky(coeffs.sigma[:floor, :floor]).diagonal() ** 2
    moments = coeffs.sigma.diagonal()[:floor] + coeffs.alphas[:floor] ** 2
    usable = int(np.argmin(np.append(pivots * CONDITION_CAP > moments, False)))
    cut = "" if usable == floor else (
        f"order {usable + 1} is cancellation: its Cholesky pivot "
        f"{pivots[usable]:.3e} is at most its second moment "
        f"{moments[usable]:.3e} / {CONDITION_CAP:.0e}")
    if usable == 0:
        raise np.linalg.LinAlgError(
            cut or "all eigenvalues fall below the condition floor")
    cond = np.divide(lam_max, np.maximum(lam_min, 1e-300),
                     out=np.full(coeffs.k, inf), where=lam_min > 0)
    return EigenDiagnostics(lambda_mins=lam_min, condition_numbers=cond,
                            usable_k_max=usable, cut=cut)
