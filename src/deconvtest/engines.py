"""Expectation rules and joint samplers for the coefficient engines.

``expectation_rule`` integrates against supports truncated at 1e-12
probability mass per axis: composite Gauss-Legendre panels whose count
doubles per refinement level, in the variable ``x = t**2`` for gamma-type
axes with shape below 1 (which removes the density's singularity at the
origin), and exact truncated sums, extended per level, on integer supports.
``independent_sampler`` is the joint sampler of an independent pair.
"""

from __future__ import annotations

import numpy as np

from .measures import ChiSquared, Distribution, Gamma, Mixture, PointMass

TAIL_MASS = 1e-12
_BASE_PANELS = 8
_PANEL_ORDER = 20


class QuadratureError(RuntimeError):
    """Deterministic integration failed to converge within its budget."""

    def __init__(self, estimate: float, error_estimate: float, detail: str = ""):
        self.estimate = estimate
        self.error_estimate = error_estimate
        msg = (f"quadrature did not reach tolerance; last estimate "
               f"{estimate:.12g} with error estimate {error_estimate:.3e}")
        super().__init__(msg + (f" ({detail})" if detail else ""))


def _needs_sqrt_substitution(dist: Distribution) -> bool:
    if isinstance(dist, Gamma):
        return dist.shape < 1
    if isinstance(dist, ChiSquared):
        return dist.df < 2
    return False


def _panel_nodes(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * xs[None, :]).ravel(),
            (half[:, None] * ws[None, :]).ravel())


def expectation_rule(dist: Distribution, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with ``sum(w * f(x)) ~ E[f(X)]``.

    Weights absorb the density/mass, so callers evaluate bare integrands.
    ``level`` refines the rule: panel counts double (continuous) or the
    summation range grows (discrete).
    """
    if isinstance(dist, PointMass):
        return np.array([float(dist.value)]), np.array([1.0])
    if isinstance(dist, Mixture):
        # recurse so atoms and disjoint supports inside mixtures stay exact
        xa, wa = expectation_rule(dist.a, level)
        xb, wb = expectation_rule(dist.b, level)
        return (np.concatenate([xa, xb]),
                np.concatenate([dist.weight * wa, (1 - dist.weight) * wb]))
    if dist.discrete:
        hi = int(dist.upper_quantile(TAIL_MASS))
        hi = hi + 8 + (hi // 2 + 8) * level
        x = np.arange(hi + 1, dtype=float)
        return x, dist.pdf(x)
    lo, _ = dist.support()
    hi = dist.upper_quantile(TAIL_MASS)
    panels = _BASE_PANELS * 2 ** level
    if _needs_sqrt_substitution(dist):
        t, wt = _panel_nodes(np.sqrt(max(lo, 0.0)), np.sqrt(hi), panels)
        return t ** 2, wt * dist.pdf(t ** 2) * 2.0 * t
    x, wx = _panel_nodes(lo, hi, panels)
    return x, wx * dist.pdf(x)


def independent_sampler(dist_y: Distribution, dist_z: Distribution):
    """Joint sampler drawing Y then Z independently from one generator."""

    def _draw(gen: np.random.Generator, n: int):
        return dist_y.draw(gen, n), dist_z.draw(gen, n)

    return _draw
