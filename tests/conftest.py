"""Shared fixtures: certified bases, the two standard nulls, reporting."""

import pytest

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from deconvtest import (
    ChiSquared, Exponential, Exponential1Ref, Geometric, GeometricRef,
    NullSpec, PolynomialFamilySpec, Poisson, certify_orthonormality,
    compute_coefficients,
)
from deconvtest import orthopoly, teststat

# every memo the process keeps
PROCESS_MEMOS = (
    teststat.prepared_engine, teststat._zero_from, orthopoly.certified_basis,
    orthopoly._gamma_weight_rule, orthopoly._uniform01_rule,
    orthopoly.PolynomialFamilySpec.addition_split,
)


@pytest.fixture(autouse=True)
def cold_memos():
    """Every test starts with every process memo empty, so one that patches
    an engine, a sampler or a rule never meets what another test kept; a
    test that needs them cold again calls the function this returns."""
    def clear():
        for memo in PROCESS_MEMOS:
            memo.cache_clear()
    clear()
    return clear


@pytest.fixture(scope="session")
def laguerre_table():
    return certify_orthonormality(
        PolynomialFamilySpec("laguerre", 1.0, max_degree=10))


@pytest.fixture(scope="session")
def legendre_table():
    return certify_orthonormality(
        PolynomialFamilySpec("shifted_legendre", max_degree=10))


@pytest.fixture(scope="session")
def meixner_table():
    return certify_orthonormality(
        PolynomialFamilySpec("meixner", 0.5, max_degree=8))


@pytest.fixture(scope="session")
def mod1_null():
    return NullSpec(y=Exponential(1.0), z=ChiSquared(1), ref=Exponential1Ref())


@pytest.fixture(scope="session")
def mod2_null():
    return NullSpec(y=Poisson(1.0), z=Geometric(1.0), ref=GeometricRef(0.5))


@pytest.fixture(scope="session")
def mod1_coeffs8(mod1_null):
    return compute_coefficients(mod1_null, 8, method="closed_form")


@pytest.fixture(scope="session")
def mod2_coeffs8(mod2_null):
    return compute_coefficients(mod2_null, 8, method="closed_form")
