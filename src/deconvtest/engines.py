"""Expectation rules for the coefficient engines.

``expectation_rule`` gives nodes and weights for ``E[f(X) exp(-rate X)]``:
it maps a law and its tilt to one of the Gauss rules that ``orthopoly``
defines, one per axis kind (Golub & Welsch 1969).  Every tilt of a law
in the zoo is again a law of the same kind times a constant, so with
``nodes`` nodes the rule is exact for polynomials f of degree up to
``2 * nodes - 1``: generalized Gauss-Laguerre for the tilted law
``Gamma(a, scale / (1 + rate * scale))`` on gamma-type axes,
Gauss-Charlier for the tilted Poisson mean ``mean * exp(-rate)``, and
Gauss-Meixner (beta = 1) for the tilted geometric ratio ``q * exp(-rate)``
(Koekoek & Swarttouw, sections 1.9 and 1.12).  The one exception is the
unit interval, where ``exp(-rate x)`` is not a polynomial: its
Gauss-Legendre rule takes as many extra nodes as the Taylor remainder of
that factor needs to fall below rounding.  The Laguerre, Legendre and
Meixner rules also certify the bases in ``orthopoly``.
"""

from __future__ import annotations

from math import exp, expm1

import numpy as np

from .measures import (
    ChiSquared, Distribution, Exponential, Gamma, Geometric, Mixture,
    PointMass, Poisson, Uniform01,
)
from .orthopoly import (
    _charlier_rule, _gamma_weight_rule, _meixner_rule, _uniform01_rule,
)


def _gamma_parameters(dist: Distribution) -> tuple[float, float] | None:
    """(shape, scale) of a gamma-type law, or None."""
    if isinstance(dist, Gamma):
        return dist.shape, dist.scale
    if isinstance(dist, Exponential):
        return 1.0, dist.mean
    if isinstance(dist, ChiSquared):
        return dist.df / 2.0, 2.0
    return None


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


def expectation_rule(dist: Distribution, nodes: int,
                     rate: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with ``sum(w * f(x)) = E[f(X) exp(-rate X)]``.

    Weights absorb the density or mass and the exponential tilt, so callers
    evaluate bare integrands; the sum is exact for polynomials f of degree
    up to ``2 * nodes - 1``.
    """
    if isinstance(dist, PointMass):
        return (np.array([float(dist.value)]),
                np.array([exp(-rate * float(dist.value))]))
    if isinstance(dist, Mixture):
        # recurse so atoms and disjoint supports inside mixtures stay exact
        xa, wa = expectation_rule(dist.a, nodes, rate)
        xb, wb = expectation_rule(dist.b, nodes, rate)
        return (np.concatenate([xa, xb]),
                np.concatenate([dist.weight * wa, (1 - dist.weight) * wb]))
    if isinstance(dist, Poisson):
        x, w = _charlier_rule(dist.mean * exp(-rate), nodes)
        return x, w * exp(dist.mean * expm1(-rate))
    if isinstance(dist, Geometric):
        c = dist.q * exp(-rate)
        x, w = _meixner_rule(c, nodes)
        return x, w * ((1 - dist.q) / (1 - c))
    gamma = _gamma_parameters(dist)
    if gamma is not None:
        shape, scale = gamma
        t, w = _gamma_weight_rule(shape, nodes)
        return (t * (scale / (1.0 + rate * scale)),
                w * (1.0 + rate * scale) ** -shape)
    if isinstance(dist, Uniform01):
        x, w = _uniform01_rule(nodes + _taylor_nodes(rate))
        return x, w * np.exp(-rate * x)
    raise TypeError(f"no expectation rule for {type(dist).__name__}")

