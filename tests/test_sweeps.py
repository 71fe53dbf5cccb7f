"""Sweeps over extreme nulls: every run ends in a typed outcome.

A seeded slice of the null-space probe: continuous laws at extreme scales
on exponential1, and count laws on geometric(0.3) and geometric(0.95),
with point masses, mixtures and far tails, at n = 50 and 500 under both
coefficient paths.  Each run either gives a finite decision or raises a
typed error; where both paths run they select the same order, decide
alike and whiten the same orders; and the diagnostics refuse a null
exactly when the engine does, which otherwise whitens
``min(default_kmax(n), usable_k_max)`` orders.
"""

import numpy as np
import pytest

from deconvtest.measures import (
    ChiSquared, Exponential, Exponential1Ref, Gamma, Geometric, GeometricRef,
    Mixture, PointMass, Poisson, RngStream, Uniform01, draw_sum,
)
from deconvtest.nullmodel import (
    NullSpec, compute_coefficients, eigen_floor_diagnostics,
)
from deconvtest.orthopoly import BasisInconsistencyError
from deconvtest.teststat import TestConfig, TestEngine, default_kmax

CONTINUOUS = {
    "exp(1e-6)+chi1": (Exponential(1e-6), ChiSquared(1)),
    "exp(1e-12)+0": (Exponential(1e-12), PointMass(0.0)),
    "exp(1e3)+chi1": (Exponential(1e3), ChiSquared(1)),
    "exp(1e8)+0": (Exponential(1e8), PointMass(0.0)),
    "gamma(0.5,1e-8)+0": (Gamma(0.5, 1e-8), PointMass(0.0)),
    "gamma(0.5,1e3)+chi1": (Gamma(0.5, 1e3), ChiSquared(1)),
    "gamma(50,0.02)+exp": (Gamma(50.0, 0.02), Exponential(1.0)),
    "chi(1e-3)+chi(200)": (ChiSquared(1e-3), ChiSquared(200)),
    "point(1e-9)+exp": (PointMass(1e-9), Exponential(1.0)),
    "point(40)+point(0)": (PointMass(40.0), PointMass(0.0)),
    "point(1)+point(2)": (PointMass(1.0), PointMass(2.0)),
    "uniform+point(30)": (Uniform01(), PointMass(30.0)),
    "far-mixture+chi1": (Mixture(0.999, Exponential(1.0), Exponential(1e4)),
                         ChiSquared(1)),
    "gamma-mixture+point": (Mixture(0.5, Gamma(0.5, 1e-4), Gamma(4.0, 10.0)),
                            PointMass(0.5)),
}
COUNTS = {
    "pois(1e-3)+0": (Poisson(1e-3), PointMass(0.0)),
    "pois(1e3)+0": (Poisson(1e3), PointMass(0.0)),
    "pois(30)+geom(30)": (Poisson(30.0), Geometric(30.0)),
    "geom(1e-4)+0": (Geometric(1e-4), PointMass(0.0)),
    "geom(1e6)+geom(1e-6)": (Geometric(1e6), Geometric(1e-6)),
    "geom(100)+pois(0.5)": (Geometric(100.0), Poisson(0.5)),
    "point(5)+point(0)": (PointMass(5.0), PointMass(0.0)),
    "atoms(0|1)+0": (Mixture(0.5, PointMass(0.0), PointMass(1.0)),
                     PointMass(0.0)),
    "zero|pois(50)+geom(1)": (Mixture(0.99, PointMass(0.0), Poisson(50.0)),
                              Geometric(1.0)),
    "far-mixture+0": (Mixture(0.999, Poisson(1.0), Geometric(1e3)),
                      PointMass(0.0)),
}
NULLS = {name: (y, z, Exponential1Ref()) for name, (y, z) in CONTINUOUS.items()}
NULLS.update({f"{name}@{p}": (y, z, GeometricRef(p)) for p in (0.3, 0.95)
              for name, (y, z) in COUNTS.items()})
TYPED = (np.linalg.LinAlgError, BasisInconsistencyError)
ASYMPTOTIC = TestConfig(calibration="asymptotic")


def _outcome(null, n, method, x):
    """The diagnostics' and the engine's outcomes on ``method``'s
    coefficients: a result, or the typed error that each raised."""
    coeffs = compute_coefficients(null, default_kmax(n), method)
    outcomes = []
    for build in (eigen_floor_diagnostics,
                  lambda c: TestEngine(null, n, ASYMPTOTIC, c).run(x)):
        try:
            outcomes.append(build(coeffs))
        except TYPED as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", NULLS)
def test_extreme_nulls_end_in_typed_outcomes(name):
    null = NullSpec(*NULLS[name])
    for n in (50, 500):
        x = draw_sum(null.y, null.z, RngStream(23, n).generator(), n)
        results = {}
        for method in ("closed_form", "quadrature"):
            diag, result = _outcome(null, n, method, x)
            # the diagnostics refuse exactly what the engine refuses
            assert isinstance(diag, Exception) == isinstance(result, Exception)
            if isinstance(result, Exception):
                assert str(result) == str(diag)
                continue
            assert np.isfinite(result.t_sequence).all()
            assert np.isfinite([result.t_stat, result.p_value]).all()
            assert result.used_k_max == min(default_kmax(n), diag.usable_k_max)
            results[method] = (result.s_n, result.reject, result.used_k_max)
        if len(results) == 2:
            assert results["closed_form"] == results["quadrature"], n
