"""Goodness-of-fit testing for the signal in an additive convolution.

Observations X = Y + Z mix an unobserved signal Y with independent noise Z
of known law.  This package tests a hypothesized law for Y by expanding the
density of X in an orthonormal polynomial basis, comparing empirical
expansion coefficients with their null values, and selecting the number of
compared coefficients from the data by a Schwarz-type penalty.
"""

from .measures import (
    ChiSquared, Exponential, Exponential1Ref, Gamma, Geometric, GeometricRef,
    Mixture, PointMass, Poisson, RngStream, Uniform01, Uniform01Ref,
)
from .nullmodel import (
    NullCoefficients, NullSpec, compute_coefficients, eigen_floor_diagnostics,
)
from .orthopoly import BasisTable, PolynomialFamilySpec, certify_orthonormality
from .simlab import (
    ScenarioSpec, SimReport, build_scenario, level_power_table,
    run_replications, wilson_interval,
)
from .teststat import (
    TestConfig, TestEngine, TestResult, chi2_quantile, compute_bhat,
    default_kmax, run_test, select_order, t_sequence,
)

__version__ = "0.1.0"
