"""Deterministic and Monte Carlo expectation engines.

``expect_1d`` and ``expect_conv`` double the node count of the package's
``expectation_rule`` until two estimates agree to a tolerance, and
``mc_expect`` averages a joint sampler; the tests below drive that
machinery through them.
"""

import numpy as np
import pytest

from deconvtest.engines import expectation_rule
from deconvtest.measures import (
    ChiSquared, Exponential, Geometric, Mixture, PointMass, Poisson,
    RngStream, Uniform01,
)

DEFAULT_TOL = 1e-10


def pair_sampler(dist_y, dist_z):
    """Joint sampler of an independent pair: Y, then Z, from one generator."""
    return lambda gen, n: (dist_y.draw(gen, n), dist_z.draw(gen, n))


class BudgetExhausted(RuntimeError):
    """Two successive estimates never agreed within the node budget."""

    def __init__(self, estimate: float, delta: float):
        self.estimate = estimate
        self.delta = delta
        super().__init__(f"last estimate {estimate!r}, last change {delta:.3e}")


def _refine(estimate, tol, max_doublings):
    """Estimates at 40, 80, ... nodes until two agree within ``tol``; 320
    nodes stay below the count where SciPy's Gauss-Laguerre rule fails."""
    prev, delta = None, np.inf
    for nodes in 40 * 2 ** np.arange(max_doublings + 1):
        est = estimate(int(nodes))
        if prev is not None:
            delta = abs(est - prev)
            if delta <= tol:
                return est
        prev = est
    raise BudgetExhausted(prev, delta)


def expect_1d(dist, integrand, tol=DEFAULT_TOL, max_doublings=3):
    """Deterministic E[integrand(X)] to absolute tolerance ``tol``."""

    def estimate(nodes):
        x, w = expectation_rule(dist, nodes)
        return float(np.dot(w, np.asarray(integrand(x), dtype=float)))

    return _refine(estimate, tol, max_doublings)


def expect_conv(dist_y, dist_z, integrand, tol=DEFAULT_TOL, max_doublings=3):
    """Deterministic E[integrand(Y, Z)] for independent Y, Z.

    Tensor rule over both axes, refined jointly until two successive
    estimates agree within ``tol`` absolutely.
    """

    def estimate(nodes):
        y, wy = expectation_rule(dist_y, nodes)
        z, wz = expectation_rule(dist_z, nodes)
        vals = np.broadcast_to(
            np.asarray(integrand(y[:, None], z[None, :]), dtype=float),
            (y.size, z.size))
        return float(wy @ vals @ wz)

    return _refine(estimate, tol, max_doublings)


def mc_expect(joint_sampler, integrand, n, rng):
    """Monte Carlo E[integrand(Y, Z)] over a joint sampler.

    Returns (sample mean, standard error).
    """
    if n < 2:
        raise ValueError("Monte Carlo expectation needs n >= 2")
    y, z = joint_sampler(rng.generator(), n)
    vals = np.asarray(integrand(np.asarray(y, dtype=float),
                                np.asarray(z, dtype=float)), dtype=float)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


class TestExpect1d:
    def test_exponential_mean(self):
        assert expect_1d(Exponential(1.0), lambda x: x) == pytest.approx(1.0)

    def test_chi_squared_second_moment(self):
        # var 2 + mean^2 1; the generalized Gauss-Laguerre rule of the
        # shape-1/2 axis carries the x**-0.5 density factor, so it
        # integrates this polynomial exactly up to rounding
        assert expect_1d(ChiSquared(1), lambda x: x * x) == pytest.approx(3.0, abs=1e-8)

    def test_point_mass(self):
        assert expect_1d(PointMass(2.5), lambda x: x ** 3) == pytest.approx(2.5 ** 3)

    def test_poisson_mean(self):
        assert expect_1d(Poisson(2.0), lambda x: x) == pytest.approx(2.0, abs=1e-10)

    def test_mixture_of_atoms(self):
        mix = Mixture(0.25, PointMass(0.2), PointMass(0.6))
        assert expect_1d(mix, lambda x: x) == pytest.approx(0.25 * 0.2 + 0.75 * 0.6)


class TestExpectConv:
    def test_total_mass_continuous(self):
        val = expect_conv(Exponential(1.0), ChiSquared(1),
                          lambda y, z: np.ones(np.broadcast(y, z).shape))
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_total_mass_discrete(self):
        val = expect_conv(Poisson(1.0), Geometric(1.0),
                          lambda y, z: np.ones(np.broadcast(y, z).shape))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_sum_of_means_continuous(self):
        val = expect_conv(Exponential(1.0), ChiSquared(1), lambda y, z: y + z)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_sum_of_means_discrete(self):
        val = expect_conv(Poisson(1.0), Geometric(1.0), lambda y, z: y + z)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_budget_exhaustion_raises_with_estimate(self):
        with pytest.raises(BudgetExhausted) as err:
            expect_conv(Exponential(1.0), Uniform01(),
                        lambda y, z: np.cos(80.0 * y * z), tol=1e-14,
                        max_doublings=0)
        assert np.isfinite(err.value.estimate)


class TestMcExpect:
    def test_constant_integrand(self):
        sampler = pair_sampler(Exponential(1.0), ChiSquared(1))
        mean, err = mc_expect(sampler, lambda y, z: np.full_like(y, 3.25),
                              1000, RngStream(11, 0))
        assert mean == pytest.approx(3.25)
        assert err == 0.0

    # ten integrands per model pair, mixing growth, decay, and oscillation
    INTEGRANDS = [
        lambda y, z: y,
        lambda y, z: z,
        lambda y, z: y * z,
        lambda y, z: (y + z) ** 2,
        lambda y, z: (y - z) ** 3,
        lambda y, z: np.exp(-y - z),
        lambda y, z: np.exp(-2.0 * (y + z)) * (y + z),
        lambda y, z: np.cos(y + z),
        lambda y, z: 1.0 / (1.0 + y + z),
        lambda y, z: np.tanh(y - z),
    ]

    @pytest.mark.parametrize("pair", [
        (Exponential(1.0), ChiSquared(1)),
        (Poisson(1.0), Geometric(1.0)),
    ], ids=["continuous", "discrete"])
    def test_agrees_with_deterministic_engine(self, pair):
        dist_y, dist_z = pair
        for i, f in enumerate(self.INTEGRANDS):
            det = expect_conv(dist_y, dist_z, f)
            mc, se = mc_expect(pair_sampler(dist_y, dist_z),
                               f, 200_000, RngStream(2200, i))
            assert abs(mc - det) < 4 * max(se, 1e-12), \
                f"integrand {i}: {mc} vs {det}"

    def test_perfect_dependence_second_moment(self):
        def sampler(gen, n):
            z = Exponential(1.0).draw(gen, n)
            return z, z

        mean, se = mc_expect(sampler, lambda y, z: y * z, 400_000,
                             RngStream(17, 3))
        assert abs(mean - 2.0) < 4 * se

    def test_needs_two_draws(self):
        with pytest.raises(ValueError):
            mc_expect(pair_sampler(Exponential(1.0), Exponential(1.0)),
                      lambda y, z: y, 1, RngStream(1))
