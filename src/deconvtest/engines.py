"""Expectation rules and joint samplers for the coefficient engines.

``expectation_rule`` gives nodes and weights for ``E[f(X) exp(-rate X)]``,
one Gauss rule per axis kind (Golub & Welsch 1969), doubling its node count
per refinement level: the generalized Gauss-Laguerre rule of the tilted law
``Gamma(a, scale / (1 + rate * scale))`` on gamma-type axes, so that the
gamma density and the reference's exponential weight are both carried by
the rule; Gauss-Legendre on the unit interval; and exact sums truncated at
1e-12 probability mass, extended per level, on integer supports.  The same
Laguerre and Legendre rules certify the bases in ``orthopoly``.
``independent_sampler`` is the joint sampler of an independent pair.
"""

from __future__ import annotations

import numpy as np

from .measures import (
    ChiSquared, Distribution, Exponential, Gamma, Mixture, PointMass, Uniform01,
)
from .orthopoly import _gamma_weight_rule, _uniform01_rule

_BASE_NODES = 40


class QuadratureError(RuntimeError):
    """Deterministic integration failed to converge within its budget."""

    def __init__(self, estimate: float, error_estimate: float, detail: str = ""):
        self.estimate = estimate
        self.error_estimate = error_estimate
        msg = (f"quadrature did not reach tolerance; last estimate "
               f"{estimate:.12g} with error estimate {error_estimate:.3e}")
        super().__init__(msg + (f" ({detail})" if detail else ""))


def _gamma_parameters(dist: Distribution) -> tuple[float, float] | None:
    """(shape, scale) of a gamma-type law, or None."""
    if isinstance(dist, Gamma):
        return dist.shape, dist.scale
    if isinstance(dist, Exponential):
        return 1.0, dist.mean
    if isinstance(dist, ChiSquared):
        return dist.df / 2.0, 2.0
    return None


def expectation_rule(dist: Distribution, level: int,
                     rate: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with ``sum(w * f(x)) ~ E[f(X) exp(-rate X)]``.

    Weights absorb the density/mass and the exponential tilt, so callers
    evaluate bare integrands.  ``level`` refines the rule: continuous axes
    use ``40 * 2**level`` nodes, discrete axes a longer summation range.
    """
    if isinstance(dist, PointMass):
        return (np.array([float(dist.value)]),
                np.array([np.exp(-rate * float(dist.value))]))
    if isinstance(dist, Mixture):
        # recurse so atoms and disjoint supports inside mixtures stay exact
        xa, wa = expectation_rule(dist.a, level, rate)
        xb, wb = expectation_rule(dist.b, level, rate)
        return (np.concatenate([xa, xb]),
                np.concatenate([dist.weight * wa, (1 - dist.weight) * wb]))
    if dist.discrete:
        hi = int(dist.upper_quantile())
        hi = hi + 8 + (hi // 2 + 8) * level
        x = np.arange(hi + 1, dtype=float)
        w = dist.pdf(x)
        return x, (w * np.exp(-rate * x) if rate else w)
    n_nodes = _BASE_NODES * 2 ** level
    gamma = _gamma_parameters(dist)
    if gamma is not None:
        shape, scale = gamma
        t, w = _gamma_weight_rule(shape, n_nodes)
        return (t * (scale / (1.0 + rate * scale)),
                w * (1.0 + rate * scale) ** -shape)
    if isinstance(dist, Uniform01):
        x, w = _uniform01_rule(n_nodes)
        return x, w * np.exp(-rate * x)
    raise TypeError(f"no expectation rule for {type(dist).__name__}")


def independent_sampler(dist_y: Distribution, dist_z: Distribution):
    """Joint sampler drawing Y then Z independently from one generator."""

    def _draw(gen: np.random.Generator, n: int):
        return dist_y.draw(gen, n), dist_z.draw(gen, n)

    return _draw
