"""Distribution zoo, reference measures, and reproducible RNG streams.

Sampling algorithms are fixed and documented so that a (master seed, stream
index) pair reproduces draws bit-exactly:

* streams are counter-based Philox generators keyed by the uint64 pair
  ``(master_seed, stream_index)``, all 64 bits of each (``RngStream.key``);
  distinct keys give independent streams,
* a Philox key names a stream and its counter is the position within it,
  so one stream serves a block of Monte Carlo calibration rows, or of
  study replications, drawn in one call,
* exponential draws use inverse-CDF on one uniform,
* chi-squared with 1 degree of freedom is the square of a standard normal,
* Poisson draws up to a mean of 1e8 use inverse-CDF, a search of a CDF
  table that spans all but 1e-16 of the mass on either side (about
  17 sqrt(mean) entries); above that mean they are ``Generator.poisson``
  draws, so the table stays below about 1.4 MB,
* geometric draws use inverse-CDF in closed form,
* other gammas use the generator's gamma method,
* mixtures draw a component indicator, then both component vectors, and
  select elementwise,
* the value counts of a block of count-reference rows, where the
  calibration or a study cell counts, are one ``Generator.multinomial``
  draw over the values the block reaches and a tail cell, and one that
  splits the tail counts (``teststat.sample_counts``).

Every law and reference measure is a frozen dataclass with a class-level
``kind``; its configuration document is ``{"kind": kind}`` plus its fields
by name, numbers as floats, and ``LAWS`` and ``REFERENCES`` map each kind
back to its class.  A law's ``support`` is [0, inf) unless it states its
own (the uniform law, point masses and mixtures).  A reference's support
is [0, ``upper``], its integers where ``discrete``, and its ``in_support``
test derives from that.
Coefficients need no densities: each law's ``rule`` is an exact Gauss rule
from ``orthopoly`` for ``E[f(X) exp(-rate X)]`` (Golub & Welsch 1969).  A
tilt of a gamma-type, Poisson or geometric law is a law of the same kind
times a constant, and its rule that law's Gauss-Laguerre, -Charlier or
-Meixner rule (Koekoek & Swarttouw, sections 1.9 and 1.12); on the unit
interval, where the tilt is no polynomial, Gauss-Legendre takes extra
nodes (``_taylor_nodes``).  Each reference owns its basis ``family`` and
its ``basis``; the Meixner basis of the geometric reference is certified
with the same Gauss-Meixner rule.  Count laws
(Poisson, geometric, integer point masses and their mixtures) carry a
probability mass function, ``mass``, from which count-reference
calibrations and study cells draw value counts.  Poisson masses and
sampling tables come from one table of ``log p(x) - log p(m)``, sums of
``log(mean / j)`` outward from the mode m: a mass adds ``log p(m)`` (one
``math.lgamma`` call), and a sampling table is the running sum of the
ratios ``p(x) / p(m)``, divided by its last entry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from math import ceil, exp, expm1, floor, inf, lgamma, log, sqrt

import numpy as np

from .orthopoly import (
    LAGUERRE, MEIXNER, SHIFTED_LEGENDRE, BasisTable, PolynomialFamilySpec,
    _charlier_rule, _gamma_weight_rule, _meixner_rule, _uniform01_rule,
    certified_basis,
)

__all__ = [
    "Exponential", "Gamma", "ChiSquared", "Poisson", "Geometric",
    "Uniform01", "Mixture", "PointMass",
    "Exponential1Ref", "Uniform01Ref", "GeometricRef", "RngStream",
    "LAWS", "REFERENCES",
]

# Poisson sampling tables leave out at most this much mass on either side,
# and serve means up to _TABLE_MEAN_MAX
_TABLE_TAIL = 1e-16
_TABLE_MEAN_MAX = 1e8


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; folds tags into fresh 64-bit stream indices."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def key(self) -> np.ndarray:
        """The two-word Philox key ``[seed, index]``, each word mod 2**64.

        The words go in as a uint64 array, so every bit of both counts:
        indices that differ anywhere name different streams.
        """
        return np.array([self.master_seed & 0xFFFFFFFFFFFFFFFF,
                         self.stream_index & 0xFFFFFFFFFFFFFFFF],
                        dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key()))

    def child(self, *tags: int) -> "RngStream":
        """Derive an independent stream by mixing tags into the index."""
        idx = self.stream_index & 0xFFFFFFFFFFFFFFFF
        for t in tags:
            idx = _mix64(idx ^ _mix64(t & 0xFFFFFFFFFFFFFFFF))
        return RngStream(self.master_seed, idx)


def _document(obj) -> dict:
    """``{"kind": obj.kind}`` plus every dataclass field, laws as documents.

    Numbers are written as floats, as the configuration reader reads them,
    so ``ChiSquared(1)`` and ``ChiSquared(1.0)`` give one document (and one
    ``config_hash``).
    """
    doc = {"kind": obj.kind}
    for f in fields(obj):
        value = getattr(obj, f.name)
        doc[f.name] = (value.config() if isinstance(value, Distribution)
                       else float(value))
    return doc


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

class Distribution:
    """Common surface: sampling, support, Gauss rule, document form."""

    kind = ""
    discrete = False

    def draw(self, gen: np.random.Generator, size) -> np.ndarray:
        raise NotImplementedError

    def mass(self, x: np.ndarray) -> np.ndarray:
        """P(X = x) at the integers x >= 0; count laws only."""
        raise TypeError(f"{self.kind} is not a count law")

    def rule(self, nodes: int, rate: float = 0.0):
        """Nodes x and weights w with ``sum(w * f(x)) = E[f(X) exp(-rate X)]``.

        Weights absorb the density or mass and the exponential tilt, so
        callers evaluate bare integrands; the sum is exact for polynomials f
        of degree up to ``2 * nodes - 1``.
        """
        raise TypeError(f"no expectation rule for {type(self).__name__}")

    def support(self) -> tuple[float, float]:
        return (0.0, inf)

    def config(self) -> dict:
        return _document(self)


def draw_sum(y: Distribution, z: Distribution, gen, size) -> np.ndarray:
    """Draws of Y + Z, Y's first.  A scale near the float range draws inf,
    which the support checks refuse, so overflow raises no warning."""
    with np.errstate(over="ignore"):
        return (np.asarray(y.draw(gen, size), dtype=float)
                + np.asarray(z.draw(gen, size), dtype=float))


def _gamma_rule(shape: float, scale: float, nodes: int, rate: float):
    """``rule`` of Gamma(shape, scale): the generalized Gauss-Laguerre rule
    of the tilted law ``Gamma(shape, scale / (1 + rate * scale))``."""
    t, w = _gamma_weight_rule(shape, nodes)
    return (t * (scale / (1.0 + rate * scale)),
            w * (1.0 + rate * scale) ** -shape)


def _taylor_nodes(rate: float) -> int:
    """Extra Gauss-Legendre nodes that make ``exp(-rate x)`` exact on [0, 1].

    With ``n + e`` nodes the rule integrates ``f(x) T(x)`` exactly for the
    degree-2e Taylor polynomial T of ``exp(-rate x)`` about 1/2.  The rest
    is at most ``(rate/2)**(2e+1) / (2e+1)!`` on [0, 1], against a factor
    of at least ``exp(-rate)``; counting the integral and the rule, the
    relative error is at most twice their ratio.
    """
    e, remainder = 0, rate * exp(rate)
    while remainder > 2.0 ** -53:
        e += 1
        remainder *= (rate / 2.0) ** 2 / ((2 * e) * (2 * e + 1))
    return e


@dataclass(frozen=True)
class Exponential(Distribution):
    kind = "exponential"
    mean: float = 1.0

    def __post_init__(self):
        if not 0 < self.mean < inf:
            raise ValueError("exponential mean must be positive and finite")

    def draw(self, gen, size):
        return -self.mean * np.log1p(-gen.random(size))

    def rule(self, nodes, rate=0.0):
        return _gamma_rule(1.0, self.mean, nodes, rate)


@dataclass(frozen=True)
class Gamma(Distribution):
    kind = "gamma"
    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.shape < inf and 0 < self.scale < inf):
            raise ValueError("gamma shape and scale must be positive and "
                             "finite")

    def draw(self, gen, size):
        return gen.gamma(self.shape, self.scale, size)

    def rule(self, nodes, rate=0.0):
        return _gamma_rule(self.shape, self.scale, nodes, rate)


@dataclass(frozen=True)
class ChiSquared(Distribution):
    """Chi-squared law; identical to Gamma(df / 2, 2) with pinned sampling."""

    kind = "chi_squared"
    df: float

    def __post_init__(self):
        if not 0 < self.df < inf:
            raise ValueError("degrees of freedom must be positive and finite")

    def draw(self, gen, size):
        if self.df == 1:
            return gen.standard_normal(size) ** 2
        return gen.gamma(self.df / 2.0, 2.0, size)

    def rule(self, nodes, rate=0.0):
        return _gamma_rule(self.df / 2.0, 2.0, nodes, rate)


@dataclass(frozen=True)
class Poisson(Distribution):
    kind = "poisson"
    discrete = True
    mean: float = 1.0

    def __post_init__(self):
        if not 0 < self.mean < inf:
            raise ValueError("Poisson mean must be positive and finite")

    def _log_ratios(self, lo: int, hi: int) -> tuple[int, np.ndarray]:
        """The mode m of lo..hi, floor(mean) clamped, and ``log p(x) - log
        p(m)`` at x = lo..hi: sums of ``log(mean / j)`` outward from m.

        Every sum is at most 0, so none overflows; a ``mean / j`` that
        underflows above m gives -inf, a mass of 0.
        """
        m = min(max(floor(self.mean), lo), hi)
        with np.errstate(divide="ignore"):
            step = np.log(self.mean / np.arange(lo + 1, hi + 1, dtype=float))
        down = np.cumsum(step[:m - lo][::-1])
        return m, np.concatenate((-down[::-1], [0.0],
                                  np.cumsum(step[m - lo:])))

    @cached_property
    def _cdf_table(self) -> tuple[int, np.ndarray]:
        """First count and the CDF from there, both tails below _TABLE_TAIL.

        The Chernoff bound gives ``P(|X - mean| >= t)`` at most
        ``exp(-t**2 / (2 (mean + t / 3)))`` on either side.
        """
        log_tail = -log(_TABLE_TAIL)
        t = log_tail / 3.0 + sqrt(log_tail ** 2 / 9.0 + 2.0 * log_tail * self.mean)
        lo = max(0, floor(self.mean - t))
        _, ratios = self._log_ratios(lo, ceil(self.mean + t) + 1)
        table = np.cumsum(np.exp(ratios))
        table /= table[-1]
        return lo, table

    def draw(self, gen, size):
        if self.mean > _TABLE_MEAN_MAX:
            return gen.poisson(self.mean, size).astype(float)
        lo, table = self._cdf_table
        return (lo + np.searchsorted(table, gen.random(size),
                                     side="left")).astype(float)

    def mass(self, x):
        x = np.asarray(x, dtype=float)
        hi = int(x.max(initial=0))
        lo = int(x.min(initial=hi))
        m, ratios = self._log_ratios(lo, hi)
        log_mode = m * log(self.mean) - self.mean - lgamma(m + 1)
        return np.exp(log_mode + ratios)[(x - lo).astype(np.intp)]

    def rule(self, nodes, rate=0.0):
        x, w = _charlier_rule(self.mean * exp(-rate), nodes)
        return x, w * exp(self.mean * expm1(-rate))


@dataclass(frozen=True)
class Geometric(Distribution):
    """Geometric on {0, 1, ...} parameterized by its mean.

    With mean m the success structure is q = m / (1 + m) and
    P(x) = (1 - q) * q**x.
    """

    kind = "geometric"
    discrete = True
    mean: float = 1.0

    def __post_init__(self):
        if not (self.mean > 0 and self.q < 1):  # q is NaN at an infinite mean
            raise ValueError("geometric mean must be positive, with q = "
                             f"mean / (1 + mean) below 1; got {self.mean!r}")

    @property
    def q(self) -> float:
        return self.mean / (1.0 + self.mean)

    def draw(self, gen, size):
        return np.floor(np.log1p(-gen.random(size)) / log(self.q))

    def mass(self, x):
        return (1.0 - self.q) * self.q ** x

    def rule(self, nodes, rate=0.0):
        c = self.q * exp(-rate)
        x, w = _meixner_rule(c, nodes)
        return x, w * ((1 - self.q) / (1 - c))


@dataclass(frozen=True)
class Uniform01(Distribution):
    kind = "uniform01"

    def draw(self, gen, size):
        return gen.random(size)

    def rule(self, nodes, rate=0.0):
        x, w = _uniform01_rule(nodes + _taylor_nodes(rate))
        return x, w * np.exp(-rate * x)

    def support(self):
        return (0.0, 1.0)


@dataclass(frozen=True)
class PointMass(Distribution):
    kind = "point_mass"
    value: float = 0.0

    def __post_init__(self):
        if not -inf < self.value < inf:
            raise ValueError("point mass value must be finite")

    @property
    def discrete(self):  # type: ignore[override]
        return float(self.value).is_integer() and self.value >= 0

    def draw(self, gen, size):
        return np.full(size, float(self.value))

    def mass(self, x):
        return np.where(x == self.value, 1.0, 0.0)

    def rule(self, nodes, rate=0.0):
        return (np.array([float(self.value)]),
                np.array([exp(-rate * float(self.value))]))

    def support(self):
        return (float(self.value), float(self.value))


@dataclass(frozen=True)
class Mixture(Distribution):
    """Two-component mixture; components must agree on discreteness."""

    kind = "mixture"
    weight: float
    a: Distribution
    b: Distribution

    def __post_init__(self):
        if not 0 <= self.weight <= 1:
            raise ValueError("mixture weight must lie in [0, 1]")
        if self.a.discrete != self.b.discrete:
            raise ValueError("mixture components must both be discrete or "
                             "both be continuous")

    @property
    def discrete(self):  # type: ignore[override]
        return self.a.discrete

    def draw(self, gen, size):
        pick = gen.random(size) < self.weight
        xa = self.a.draw(gen, size)
        xb = self.b.draw(gen, size)
        return np.where(pick, xa, xb)

    def mass(self, x):
        return (self.weight * self.a.mass(x)
                + (1.0 - self.weight) * self.b.mass(x))

    def rule(self, nodes, rate=0.0):
        # recurse so atoms and disjoint supports inside mixtures stay exact
        xa, wa = self.a.rule(nodes, rate)
        xb, wb = self.b.rule(nodes, rate)
        return (np.concatenate([xa, xb]),
                np.concatenate([self.weight * wa, (1 - self.weight) * wb]))

    def support(self):
        lo_a, hi_a = self.a.support()
        lo_b, hi_b = self.b.support()
        return (min(lo_a, lo_b), max(hi_a, hi_b))


LAWS = {cls.kind: cls for cls in (Exponential, Gamma, ChiSquared, Poisson,
                                  Geometric, Uniform01, PointMass, Mixture)}


# ---------------------------------------------------------------------------
# Reference measures
# ---------------------------------------------------------------------------

class ReferenceMeasure:
    """Probability measure whose density m() weights the polynomial basis.

    Its support is ``[0, upper]``, its integers where ``discrete``.  On the
    support every reference density is ``m(0) * exp(-rate * x)``; the
    coefficient engines fold that exponential into their rules.
    ``family`` is its basis family and ``basis`` its shared certified table.
    """

    kind = ""
    family: PolynomialFamilySpec
    discrete = False
    rate = 0.0
    upper = inf

    def density(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_support(self, x: np.ndarray) -> np.ndarray:
        """Finite, in ``[0, upper]`` and, where discrete, integer."""
        x = np.asarray(x, dtype=float)
        ok = np.isfinite(x) & (x >= 0)
        if self.upper < inf:
            ok &= x <= self.upper
        if self.discrete:
            ok &= x == np.floor(x)
        return ok

    def support(self) -> tuple[float, float]:
        return (0.0, self.upper)

    @property
    def basis(self) -> BasisTable:
        return certified_basis(self.family)

    def basis_terms(self, x: np.ndarray, k: int) -> np.ndarray:
        """Q_1..Q_k(x) m(x), shape (k,) + x.shape; 0 where m(x) underflows.

        Where m(x) is 0 the basis is evaluated at 0 instead of at an x where
        it may overflow, so a far value gives 0, not inf * 0.
        """
        m = self.density(x)
        if not m.all():
            x = np.where(m > 0, x, 0.0)
        v = self.basis.eval_normalized(x, k)[1:]
        v *= m
        return v

    def config(self) -> dict:
        return _document(self)


@dataclass(frozen=True)
class Exponential1Ref(ReferenceMeasure):
    kind = "exponential1"
    family = PolynomialFamilySpec(LAGUERRE, 1.0)
    rate = 1.0

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, np.exp(-np.clip(x, 0, None)), 0.0)


@dataclass(frozen=True)
class Uniform01Ref(ReferenceMeasure):
    kind = "uniform01"
    family = PolynomialFamilySpec(SHIFTED_LEGENDRE)
    upper = 1.0

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0) & (x <= 1), 1.0, 0.0)


@dataclass(frozen=True)
class GeometricRef(ReferenceMeasure):
    kind = "geometric"
    discrete = True
    p: float = 0.5

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError("geometric reference parameter must lie in (0, 1)")

    @property
    def family(self) -> PolynomialFamilySpec:  # type: ignore[override]
        return PolynomialFamilySpec(MEIXNER, self.p)

    @property
    def rate(self) -> float:  # type: ignore[override]
        return -log(self.p)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        ok = (x >= 0) & (x == np.floor(x))
        out = np.zeros_like(x)
        out[ok] = self.p ** x[ok] * (1.0 - self.p)
        return out


REFERENCES = {cls.kind: cls for cls in (Exponential1Ref, Uniform01Ref,
                                        GeometricRef)}
