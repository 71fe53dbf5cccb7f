"""Statistic assembly, order selection, calibration, and the full test."""

import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc, gammainc, gammaincc, gammaincinv

import deconvtest
from deconvtest import nullmodel, orthopoly, teststat
from deconvtest.measures import (
    ChiSquared, Exponential, Exponential1Ref, Geometric, GeometricRef,
    Mixture, PointMass, Poisson, RngStream, draw_sum,
)
from deconvtest.nullmodel import (
    NullCoefficients, NullSpec, compute_coefficients, eigen_floor_diagnostics,
    value_masses,
)
from deconvtest.orthopoly import DegreeOverflowError
from deconvtest.simlab import build_scenario, run_replications, wilson_interval
from deconvtest.teststat import (
    _BLOCK_DRAWS, _BLOCK_VALUES, _CALIBRATION_TAG, DataDomainError,
    TestConfig, TestEngine, _reach, _zero_from, chi2_quantile, compute_bhat,
    count_masses, default_kmax, run_test, sample_counts, select_order,
    t_sequence,
)

from .conftest import PROCESS_MEMOS
from .oracles import (
    chi2_cdf_by_quadrature, count_bhat, exact_t_sequence, geometric_masses,
    poisson_masses,
)


def _coeffs(alphas, sigma):
    alphas = np.asarray(alphas, dtype=float)
    return NullCoefficients(k=alphas.size, alphas=alphas,
                            sigma=np.asarray(sigma, dtype=float),
                            method="closed_form")


class TestComputeBhat:
    def test_exactly_centered_point_data(self, mod1_null):
        x_star = 1.3
        k = 4
        q = mod1_null.ref.basis.eval_normalized(np.array([x_star]), k)[1:, 0]
        alphas = q * float(mod1_null.ref.density(np.array([x_star]))[0])
        coeffs = _coeffs(alphas, np.eye(k))
        data = np.full(50, x_star)
        np.testing.assert_allclose(compute_bhat(data, mod1_null, coeffs, k),
                                   0.0, atol=1e-12)

    def test_single_observation_formula(self, mod1_null, mod1_coeffs8):
        x = 2.2
        got = compute_bhat(np.array([x]), mod1_null, mod1_coeffs8, 1)
        q1 = mod1_null.ref.basis.eval_normalized(np.array([x]), 1)[1, 0]
        m = float(mod1_null.ref.density(np.array([x]))[0])
        assert got[0] == pytest.approx(q1 * m - mod1_coeffs8.alphas[0])

    def test_centering_under_null(self, mod1_null, mod1_coeffs8):
        # mean of bhat_1 over replications should sit at 0 within 4 stderr
        engine = TestEngine(mod1_null, 500, TestConfig(calibration="asymptotic"),
                            coeffs=mod1_coeffs8)
        reps = 2000
        base = RngStream(314159, 0)
        vals = np.empty(reps)
        for r in range(reps):
            data = draw_sum(mod1_null.y, mod1_null.z,
                            base.child(7, r).generator(), 500)
            vals[r] = compute_bhat(data, mod1_null, mod1_coeffs8, 1)[0]
        stderr = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean()) < 4 * stderr

    def test_domain_violation_lists_indices(self, mod1_null, mod1_coeffs8,
                                            mod2_null, mod2_coeffs8):
        data = np.array([0.5, -1.0, 2.0, -3.0])
        with pytest.raises(DataDomainError) as err:
            compute_bhat(data, mod1_null, mod1_coeffs8, 2)
        assert err.value.indices == [1, 3]
        # non-finite observations are outside every reference support
        for null, coeffs in ((mod1_null, mod1_coeffs8),
                             (mod2_null, mod2_coeffs8)):
            data = np.array([0.0, 1.0, 2.0, np.inf])
            with pytest.raises(DataDomainError) as err:
                compute_bhat(data, null, coeffs, 2)
            assert err.value.indices == [3]
        with pytest.raises(DataDomainError) as err:
            run_test(np.array([0.5, 1.0, 2.0, np.inf]), mod1_null,
                     TestConfig(calibration="asymptotic"))
        assert err.value.indices == [3]
        # a batch spanning several row blocks still reports flat indices,
        # here one violation in the first block and one in the last
        reps, n, k = 13, 4000, 8
        assert _BLOCK_VALUES // (n * (k + 1)) < reps
        data = np.ones((reps, n))
        data[0, 5] = -1.0
        data[reps - 1, 17] = -2.0
        with pytest.raises(DataDomainError) as err:
            compute_bhat(data, mod1_null, mod1_coeffs8, k)
        assert err.value.indices == [5, (reps - 1) * n + 17]


    @pytest.mark.parametrize("model, far", [("Mod1", 800.0), ("Mod2", 1e6)])
    def test_far_observation_gives_finite_sequence(self, model, far):
        # m(x) underflows to 0 at `far` already; beyond it the basis
        # overflowed and 0 * inf turned T_k into nan, which selected order 1
        null = build_scenario(model).null
        engine = TestEngine(null, 100, TestConfig(calibration="asymptotic",
                                                  k_max=10))
        data = draw_sum(null.y, null.z, RngStream(5, 1).generator(), 100)
        data[3] = far
        want = engine.run(data).t_sequence
        assert np.all(np.isfinite(want))
        for big in (1e40, 1e300):
            data[3] = big
            np.testing.assert_array_equal(engine.run(data).t_sequence, want)


@st.composite
def _whitening_cases(draw):
    """A (k, reps) bhat with exact zeros of both signs, and sigma = b b' +
    I / 2 as in criterion 04."""
    k, reps = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.standard_normal((k, k))
    bhat = rng.standard_normal((k, reps))
    zeros = draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                          min_size=bhat.size, max_size=bhat.size))
    for i, zero in enumerate(zeros):
        if zero is not None:
            bhat.flat[i] = zero
    return bhat, b @ b.T + 0.5 * np.eye(k)


class TestTSequence:
    def test_zero_vector(self):
        np.testing.assert_allclose(t_sequence(np.zeros(3), np.eye(3)), 0.0)

    def test_identity_sigma(self):
        np.testing.assert_allclose(t_sequence(np.array([3.0, 4.0]), np.eye(2)),
                                   [9.0, 25.0])

    def test_monotone_and_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = rng.integers(2, 9)
            b = rng.standard_normal((d, d))
            sigma = b @ b.T + 0.5 * np.eye(d)
            bhat = rng.standard_normal(d)
            seq = t_sequence(bhat, sigma)
            brute = [bhat[:k] @ np.linalg.inv(sigma[:k, :k]) @ bhat[:k]
                     for k in range(1, d + 1)]
            np.testing.assert_allclose(seq, brute, rtol=1e-8, atol=1e-8)
            assert np.all(np.diff(seq) >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            t_sequence(np.zeros(2), np.eye(3))

    @settings(max_examples=60, deadline=None)
    @given(case=_whitening_cases())
    def test_batch_columns_have_their_own_bits(self, case):
        bhat, sigma = case
        whole = t_sequence(bhat, sigma)
        for c in range(bhat.shape[1]):
            alone = t_sequence(bhat[:, c], sigma)
            assert alone.tobytes() == whole[:, c].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=_whitening_cases())
    def test_within_criterion_04_of_the_exact_whitening(self, case):
        # criterion 04's oracle gap on b b' + I / 2
        bhat, sigma = case
        whole = t_sequence(bhat, sigma)
        for c in range(bhat.shape[1]):
            exact = exact_t_sequence(bhat[:, c], sigma)
            assert np.max(np.abs(whole[:, c] - exact)) < 1e-7


class TestSelectOrder:
    def test_flat_zero_sequence(self):
        assert select_order(np.zeros(3), 100) == 1

    def test_exact_tie_resolves_to_smallest(self):
        c = math.log(100.0)
        assert select_order(np.array([1.0, 1.0 + c]), 100) == 1

    def test_penalty_overcome(self):
        c = math.log(100.0)
        assert select_order(np.array([1.0, 2.0 + 2.0 * c]), 100) == 2

    def test_empty_sequence(self):
        with pytest.raises(ValueError):
            select_order(np.array([]), 100)

    def test_small_n(self):
        with pytest.raises(ValueError):
            select_order(np.array([1.0]), 1)

    def test_non_finite_sequence_raises(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(FloatingPointError):
                select_order(np.array([1.0, bad, 3.0]), 100)
            with pytest.raises(FloatingPointError):
                select_order(np.array([[1.0, 2.0], [bad, 3.0]]), 100)


class TestDefaultKmax:
    def test_n50(self):
        assert default_kmax(50) == 8

    def test_n500(self):
        assert default_kmax(500) == 13

    def test_small_n_clamped(self):
        assert default_kmax(2) == 3

    def test_large_n_clamped(self):
        assert default_kmax(10 ** 6) == 15


def _asymptotic_engine(null, coeffs, alpha=0.05):
    return TestEngine(null, 100, TestConfig(alpha=alpha,
                                            calibration="asymptotic"),
                      coeffs=coeffs)


def _model_engine(model, n):
    return TestEngine(build_scenario(model).null, n,
                      TestConfig(calibration="asymptotic"))


# the df of criterion 05 and three larger ones; levels from 0 to 1 - 1e-12,
# dense in the middle and geometric towards both ends; T from 1e-8 to 1500,
# 2.5 apart above 1400, where the upper tail leaves the normal doubles
_ORACLE_DFS = list(range(1, 11)) + [20, 30, 50]
_ORACLE_LEVELS = np.concatenate([
    [0.0, 1e-300, 1e-100, 1e-20], np.logspace(-12, -2, 11),
    np.linspace(0.02, 0.98, 49), 0.5 + np.array([-1e-9, 1e-9]),
    1.0 - np.logspace(-2, -12, 11)])
_ORACLE_T = np.concatenate([np.logspace(-8, math.log10(1400.0), 400),
                            np.linspace(1400.0, 1500.0, 41)])


class TestChi2:
    def test_zero(self):
        assert chi2_quantile(0.0, 1) == 0.0

    def test_nominal_level_point(self, mod1_null, mod1_coeffs8):
        engine = _asymptotic_engine(mod1_null, mod1_coeffs8)
        assert engine.p_value(3.841459) == pytest.approx(0.05, abs=1e-6)

    @pytest.mark.parametrize("df", [1, 2, 3, 5, 10])
    def test_against_quadrature_oracle(self, df, mod1_null, mod1_coeffs8):
        # the quantile of the oracle's level is the oracle's quantile, and
        # at df = 1 the asymptotic p-value is the oracle's upper tail
        engine = _asymptotic_engine(mod1_null, mod1_coeffs8)
        for x in np.linspace(0.3, 4.0 * df, 12):
            level = chi2_cdf_by_quadrature(float(x), df)
            assert chi2_cdf_by_quadrature(chi2_quantile(level, df), df) == \
                pytest.approx(level, abs=1e-6)
            if df == 1:
                assert engine.p_value(float(x)) == pytest.approx(
                    1.0 - level, abs=1e-6)

    def test_median_rule_of_thumb(self):
        for df in (20, 30, 50):
            assert chi2_quantile(0.5, df) == pytest.approx(df - 2.0 / 3.0,
                                                           abs=0.05)

    def test_quantiles(self):
        assert chi2_quantile(0.95, 1) == pytest.approx(3.8415, abs=1e-4)
        assert chi2_quantile(0.5, 1) == pytest.approx(0.4549, abs=1e-3)

    def test_asymptotic_p_value_far_tail(self, mod1_null, mod1_coeffs8):
        # 1 - cdf rounds to exactly 0 from T of about 75 on
        engine = _asymptotic_engine(mod1_null, mod1_coeffs8)
        p = engine.p_value(80.0)
        assert p > 0.0
        assert p == pytest.approx(math.erfc(math.sqrt(40.0)), rel=1e-12)

    # scipy.special stays in the test extra as an independent oracle.  The
    # closed form rounds each of its terms through exp(c log t - t -
    # lgamma(c + 1)), whose argument stays below 1000 here, so both sides
    # of the law are good to about 1e-13 relative; the quantile, below
    # x = 200 for these df, to about 2e-14, as its inversion stops within
    # a few ulps of that law's root

    def test_quantile_against_scipy(self):
        for df in _ORACLE_DFS:
            for p in _ORACLE_LEVELS:
                want = 2.0 * gammaincinv(df / 2.0, p)
                assert chi2_quantile(float(p), df) == pytest.approx(
                    want, rel=1e-13, abs=0.0), (df, p)

    def test_tails_against_scipy(self):
        # T from 1e-8 to 1500; on the upper side far out both fall below the
        # normal doubles, where scipy may flush a value that the closed
        # form keeps as a subnormal: there both lie below ``tiny``
        tiny = np.finfo(float).tiny
        for df in _ORACLE_DFS:
            for x in _ORACLE_T:
                *got, _ = teststat._chi2_law(float(x), df)
                want = (gammainc(df / 2.0, x / 2.0),
                        gammaincc(df / 2.0, x / 2.0))
                for side, ref in zip(got, want):
                    if ref < tiny:
                        assert 0.0 <= side < tiny, (df, x)
                    else:
                        assert side == pytest.approx(ref, rel=1e-12), (df, x)

    def test_asymptotic_p_value_against_scipy(self, mod1_null, mod1_coeffs8):
        # erfc(sqrt(T / 2)) is the chi-squared(1) tail.  Both leave the
        # normal doubles at T = 1409.5; SciPy's gammaincc (1.17) returns 0
        # from T = 1425 on, where erfc gives subnormals up to T = 1482.5
        engine = _asymptotic_engine(mod1_null, mod1_coeffs8)
        tiny = np.finfo(float).tiny
        subnormal = 0
        for t in np.append(0.0, _ORACLE_T):
            got, want = engine.p_value(float(t)), gammaincc(0.5, t / 2.0)
            if want < tiny:
                assert 0.0 <= got < tiny, t
                subnormal += got > 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), t
        assert subnormal > 0 and engine.p_value(1500.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(df=st.sampled_from(_ORACLE_DFS),
           levels=st.lists(st.floats(0.0, 1.0, exclude_max=True),
                           min_size=2, max_size=2))
    def test_quantile_monotone_in_level(self, df, levels):
        # monotone up to the quantile's accuracy (1e-13 relative)
        low, high = sorted(levels)
        assert chi2_quantile(low, df) <= chi2_quantile(high, df) * (1 + 1e-13)


class TestCriticalValue:
    def test_asymptotic_level(self, mod1_null, mod1_coeffs8):
        engine = _asymptotic_engine(mod1_null, mod1_coeffs8)
        assert engine.critical_value == pytest.approx(3.841458820694124,
                                                      abs=1e-9)
        assert engine.calibration is None

    def test_alpha_monotonicity(self, mod1_null, mod1_coeffs8):
        lo = _asymptotic_engine(mod1_null, mod1_coeffs8, 0.5).critical_value
        hi = _asymptotic_engine(mod1_null, mod1_coeffs8, 0.05).critical_value
        assert lo < hi

    def test_mc_threshold_is_calibration_quantile(self, mod1_null, mod1_coeffs8):
        cfg = TestConfig(mc_reps=400, mc_seed=11)
        engine = TestEngine(mod1_null, 100, cfg, coeffs=mod1_coeffs8)
        cal, crit = engine.calibration, engine.critical_value
        # the exceedance count at the threshold matches the exact rule
        assert np.sum(cal > crit) <= math.floor(401 * 0.05 - 1.0 + 1e-9)

    def test_mc_engine_is_built_ready(self, monkeypatch, mod1_null,
                                      mod1_coeffs8):
        # the calibration and the critical value exist before any run, and
        # a run draws nothing more
        engine = TestEngine(mod1_null, 100, TestConfig(mc_reps=400, mc_seed=11),
                            coeffs=mod1_coeffs8)
        cal = engine.calibration
        assert cal.shape == (400,) and not cal.flags.writeable
        assert engine.critical_value == teststat._mc_threshold(cal, 0.05)

        def refuse(*args):
            raise AssertionError("a run drew calibration values")
        monkeypatch.setattr(TestEngine, "calibration_values", refuse)
        result = engine.run(np.full(100, 2.0))
        assert result.critical_value == engine.critical_value
        assert result.p_value == (1.0 + np.sum(cal >= result.t_stat)) / 401.0


class TestConfigFields:
    @pytest.mark.parametrize("field, value", [
        ("k_max", True), ("k_max", 2.5), ("mc_reps", 2000.5),
        ("mc_reps", True), ("mc_seed", 1.5), ("mc_seed", False),
    ])
    def test_invalid_field_raises_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            TestConfig(**{field: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, 0.5])
    def test_coeff_tol_is_not_a_field(self, value):
        # the coefficient rules are exact in one pass: no tolerance to set;
        # the convolution split is fixed at 1/2, the condition cap at 1e12,
        # and the coefficient method is the null's default
        for key in ("coeff_tol", "u_split", "eigen_condition_cap",
                    "coeff_method"):
            with pytest.raises(TypeError, match=key):
                TestConfig(**{key: value})

    def test_numpy_integers_are_integers(self):
        cfg = TestConfig(k_max=np.int64(4), mc_reps=np.int64(300),
                         mc_seed=np.uint64(7))
        assert (cfg.k_max, cfg.mc_reps, cfg.mc_seed) == (4, 300, 7)

    @pytest.mark.parametrize("alpha", [1e-4, 0.003, 1 / 3000, 0.0049])
    def test_calibration_that_cannot_reject_is_refused(self, alpha):
        # Monte Carlo p-values are at least 1 / (mc_reps + 1), so a level
        # below that rejects nothing; the message gives the smallest reps
        need = math.ceil(1.0 / alpha - 1e-6) - 1
        with pytest.raises(ValueError, match=rf"alpha {alpha} with mc_reps "
                           rf"{need - 1} .* mc_reps >= {need}$"):
            TestConfig(alpha=alpha, mc_reps=need - 1)
        assert TestConfig(alpha=alpha, mc_reps=need).mc_reps == need
        TestConfig(alpha=alpha, mc_reps=need - 1, calibration="asymptotic")


@pytest.mark.parametrize("call, error, named", [
    (lambda null, c: TestConfig(alpha=0.0), ValueError, "alpha"),
    (lambda null, c: TestConfig(alpha=1.0), ValueError, "alpha"),
    (lambda null, c: TestConfig(calibration="bootstrap"), ValueError,
     "calibration"),
    (lambda null, c: TestConfig(mc_reps=99), ValueError, "100 reps"),
    (lambda null, c: TestConfig(alpha=1e-17, calibration="asymptotic"),
     ValueError, "alpha 1e-17 is below the asymptotic calibration"),
    (lambda null, c: chi2_quantile(1.0, 1), ValueError, "quantile level"),
    (lambda null, c: chi2_quantile(-0.1, 1), ValueError, "quantile level"),
    (lambda null, c: chi2_quantile(math.nan, 1), ValueError, "quantile level"),
    (lambda null, c: chi2_quantile(0.5, 0), ValueError,
     "degrees of freedom must be an integer >= 1, got 0"),
    (lambda null, c: chi2_quantile(0.5, 2.5), ValueError,
     "degrees of freedom must be an integer >= 1, got 2.5"),
    (lambda null, c: chi2_quantile(0.5, 1.0), ValueError,
     "degrees of freedom must be an integer >= 1, got 1.0"),
    (lambda null, c: chi2_quantile(0.5, True), ValueError,
     "degrees of freedom must be an integer >= 1, got True"),
    (lambda null, c: compute_bhat(np.array([]), null, c, 3), ValueError,
     "data must be nonempty"),
    (lambda null, c: compute_bhat(np.ones(5), null, c, 9), ValueError,
     r"order 9 exceeds coefficients \(8\)"),
    (lambda null, c: _asymptotic_engine(null, c).run(np.ones(50)),
     ValueError, "prepared for n=100, got 50"),
    (lambda null, c: _model_engine("Mod1", 500).statistic_batch(
        np.ones((2, 100))), ValueError, "prepared for n=500, got 100"),
    # the engine fixes the null and n of a study cell
    (lambda null, c: run_replications(_model_engine("Mod2", 50),
                                      build_scenario("Alt1"), 200, 7),
     ValueError, "scenario Alt1 is tested against another null"),
    (lambda null, c: run_replications(_model_engine("Mod2", 500),
                                      build_scenario("Mod2"), 400, 7, n=50),
     TypeError, "unexpected keyword argument 'n'"),
    (lambda null, c: NullCoefficients(k=0, alphas=np.zeros(0),
                                      sigma=np.zeros((0, 0)),
                                      method="closed_form"),
     ValueError, "k must be an integer >= 1, got 0"),
    (lambda null, c: wilson_interval(5, 3), ValueError,
     r"successes 5 must lie in \[0, trials\] with trials 3"),
    (lambda null, c: null.ref.basis.eval_normalized(
        np.ones(3), null.ref.family.max_degree + 1),
     DegreeOverflowError, "exceeds table max"),
    (lambda null, c: TestEngine(null, 1, TestConfig(), coeffs=c), ValueError,
     "sample size must be at least 2"),
    (lambda null, c: default_kmax(1), ValueError,
     "sample size must be at least 2"),
    (lambda null, c: _asymptotic_engine(null, c).run(np.array([])),
     ValueError, "data must be a nonempty vector"),
    (lambda null, c: _asymptotic_engine(null, c).run(np.ones((2, 100))),
     ValueError, "data must be a nonempty vector"),
    (lambda null, c: run_test(np.array([1.0]), null), ValueError,
     "sample size must be at least 2"),
], ids=["alpha-0", "alpha-1", "unknown-calibration", "mc-reps-99",
        "asymptotic-alpha-1e-17",
        "quantile-level-1", "negative-quantile-level", "quantile-level-nan",
        "df-0", "df-fraction", "df-float", "df-bool", "empty-bhat-data",
        "bhat-order-past-coeffs", "run-wrong-n", "batch-wrong-width",
        "study-foreign-null", "study-n-from-engine", "coeffs-order-0",
        "wilson-successes-past-trials", "eval-past-table", "engine-n-1",
        "kmax-n-1", "run-empty", "run-2d", "run-test-one-observation"])
def test_library_refusals_name_the_cause(mod1_null, mod1_coeffs8, call,
                                         error, named):
    with pytest.raises(error, match=named):
        call(mod1_null, mod1_coeffs8)


class TestRunTest:
    def test_null_data_accepts(self, mod1_null):
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(20260809, 4).generator(), 500)
        res = run_test(data, mod1_null, TestConfig(mc_reps=500))
        assert not res.reject
        assert res.t_stat == pytest.approx(res.t_sequence[res.s_n - 1])
        assert 1 <= res.s_n <= res.used_k_max

    def test_far_tail_point_mass_rejects(self, mod1_null):
        data = np.full(200, 30.0)
        res = run_test(data, mod1_null, TestConfig(calibration="asymptotic"))
        assert res.reject
        assert res.p_value < 1e-6

    def test_empty_data(self, mod1_null):
        with pytest.raises(ValueError, match="nonempty"):
            run_test(np.array([]), mod1_null, TestConfig())

    @pytest.mark.parametrize("calibration", ["mc", "asymptotic"])
    @pytest.mark.parametrize("scenario", ["Mod1", "Mod2"])
    def test_supplied_coefficients_give_the_fresh_result(self, scenario,
                                                         calibration):
        # the coefficients that a caller computes once and hands in
        null, n = build_scenario(scenario).null, 100
        x = draw_sum(null.y, null.z, RngStream(11, n).generator(), n)
        cfg = TestConfig(calibration=calibration, mc_reps=300)
        coeffs = compute_coefficients(null, default_kmax(n))
        assert (run_test(x, null, cfg, coeffs=coeffs).to_dict()
                == run_test(x, null, cfg).to_dict())

    def test_deterministic(self, mod1_null, mod1_coeffs8):
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(5150, 1).generator(), 120)
        cfg = TestConfig(mc_reps=300)
        a = run_test(data, mod1_null, cfg, coeffs=mod1_coeffs8).to_dict()
        b = run_test(data, mod1_null, cfg, coeffs=mod1_coeffs8).to_dict()
        assert a == b

    def test_auto_order_respects_eigen_cap(self, mod1_null):
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(42, 2).generator(), 500)
        res = run_test(data, mod1_null, TestConfig(calibration="asymptotic"))
        # the order-13 budget at n=500 is cut to 10 by the condition cap
        assert res.used_k_max == 10
        assert res.lambda_mins.size == 10

    def test_fixed_order(self, mod1_null, mod1_coeffs8):
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(42, 3).generator(), 100)
        res = run_test(data, mod1_null,
                       TestConfig(k_max=4, calibration="asymptotic"),
                       coeffs=mod1_coeffs8)
        assert res.used_k_max == 4
        assert res.t_sequence.size == 4

    def test_fixed_order_capped_at_usable_order(self, mod1_null):
        # Mod1's roots of orders 11..15 drop directions (ranks 10, 11, 11,
        # 12, 12), so a fixed order 15 runs at the usable order 10
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(42, 4).generator(), 500)
        res = run_test(data, mod1_null,
                       TestConfig(k_max=15, calibration="asymptotic"))
        assert res.used_k_max == 10
        assert res.t_sequence.size == 10
        assert ("order-cut: fixed k_max 15 requested, 10 used "
                "(usable order 10)") in res.notes

    def test_mc_p_value_never_zero(self, mod1_null, mod1_coeffs8):
        data = np.full(100, 25.0)
        res = run_test(data, mod1_null, TestConfig(mc_reps=200),
                       coeffs=mod1_coeffs8)
        assert res.reject
        assert res.p_value == pytest.approx(1.0 / 201.0)

    def test_mc_level_smoke(self, mod2_null):
        cfg = TestConfig(mc_reps=400, mc_seed=77)
        engine = TestEngine(mod2_null, 100, cfg)
        base = RngStream(2718, 0)
        samples = np.stack([draw_sum(mod2_null.y, mod2_null.z,
                                     base.child(5, r).generator(), 100)
                            for r in range(400)])
        t_stat = engine.statistic_batch(samples)[2]
        rate = float(np.mean(t_stat > engine.critical_value))
        assert 0.01 <= rate <= 0.12


# X = 40 + 0 is a constant, so sigma is all cancellation: the closed form
# leaves sigma_11 = 1.1e-47 of a second moment of 2.7e-32
POINT_MASS_NULL = NullSpec(PointMass(40.0), PointMass(0.0), Exponential1Ref())
# nulls whose whitened orders the cancellation cut must leave alone
KEPT_NULLS = [build_scenario("Mod1").null, build_scenario("Mod2").null] + [
    NullSpec(y, z, GeometricRef(p)) for p in (0.3, 0.5, 0.7)
    for y, z in ((Geometric(1.0), PointMass(2.0)),
                 (Poisson(0.6), Poisson(1.4)))]


class TestWhitening:
    """An engine factors the used block of sigma once, when it is built."""

    def test_engine_factors_once(self, monkeypatch, mod1_null):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(np.shape(a))
            return cholesky(a)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        engine = TestEngine(mod1_null, 100, TestConfig(mc_reps=200))
        x = draw_sum(mod1_null.y, mod1_null.z, RngStream(48, 1).generator(),
                     300).reshape(3, 100)
        results = [engine.run(row) for row in x]
        t_seq, _, _ = engine.statistic_batch(x)
        k = engine.used_k_max
        assert calls == [(k, k)]
        assert not engine._factor.flags.writeable
        monkeypatch.undo()
        # the factor of exactly the used block, and t_sequence's bits
        sigma = engine.coeffs.sigma[:k, :k]
        np.testing.assert_array_equal(engine._factor, np.linalg.cholesky(sigma))
        bhat = compute_bhat(x, mod1_null, engine.coeffs, k)
        np.testing.assert_array_equal(t_seq, t_sequence(bhat, sigma).T)
        for result, row in zip(results, t_seq):
            np.testing.assert_array_equal(result.t_sequence, row)

    @pytest.mark.parametrize("calibration", ["mc", "asymptotic"])
    @pytest.mark.parametrize("method, named", [
        ("closed_form", "order 1 is cancellation"),
        # its sigma_11 is exactly 0, so the diagnostics' floor refuses first
        ("quadrature", "condition floor")], ids=["closed_form", "quadrature"])
    def test_point_mass_null_refused(self, calibration, method, named):
        null, config = POINT_MASS_NULL, TestConfig(calibration=calibration)
        coeffs = compute_coefficients(null, default_kmax(50), method)
        with pytest.raises(np.linalg.LinAlgError, match=named):
            TestEngine(null, 50, config, coeffs)
        if method == "closed_form":  # the default path
            with pytest.raises(np.linalg.LinAlgError, match=named):
                run_test(np.full(50, 40.0 + 1e-9), null, config)

    def test_cancelled_order_is_cut_with_a_note(self, mod1_null):
        # order 2's pivot 1 is 1e-14 of its second moment 1 + 1e14
        coeffs = _coeffs([0.0, 1e7, 0.0], np.eye(3))
        cut = ("order-cut: order 2 is cancellation: its Cholesky pivot "
               "1.000e+00 is at most its second moment 1.000e+14 / 1e+12")
        auto = TestEngine(mod1_null, 100, TestConfig(calibration="asymptotic"),
                          coeffs)
        assert (auto.diagnostics.usable_k_max, auto.used_k_max) == (3, 1)
        assert auto.notes == (cut,)
        assert auto._factor.shape == (1, 1)
        fixed = TestEngine(mod1_null, 100, TestConfig(
            k_max=3, calibration="asymptotic"), coeffs)
        assert fixed.notes == ("order-cut: fixed k_max 3 requested, 1 used "
                               "(usable order 3)", cut)
        assert fixed.run(np.linspace(0.1, 3.0, 100)).t_sequence.size == 1

    @pytest.mark.parametrize("null", KEPT_NULLS,
                             ids=["Mod1", "Mod2"] + [
                                 f"{name}@{p}" for p in (0.3, 0.5, 0.7)
                                 for name in ("geom+point", "pois+pois")])
    def test_cut_keeps_usable_orders(self, null):
        config = TestConfig(calibration="asymptotic")
        for n in (50, 100, 500, 2000):
            for method in ("closed_form", "quadrature"):
                coeffs = compute_coefficients(null, default_kmax(n), method)
                engine = TestEngine(null, n, config, coeffs)
                usable = eigen_floor_diagnostics(coeffs).usable_k_max
                assert engine.used_k_max == min(default_kmax(n), usable)
                assert engine.notes == ()


def _bits(result):
    # repr gives each float's shortest round trip, so equal reprs are
    # equal bits
    return repr(result.to_dict())


class TestPreparedEngines:
    """``run_test`` shares one engine per (null, n, config) in a process."""

    def test_shared_engine_gives_the_fresh_bits(self):
        nulls = {"Mod1": [NullSpec(Exponential(m), ChiSquared(d),
                                   Exponential1Ref())
                          for m, d in ((1, 1), (1.0, 1.0))],
                 "Mod2": [NullSpec(Poisson(m), Geometric(m), GeometricRef(0.5))
                          for m in (1, 1.0)]}
        calls = [(null, calibration, n) for spelled in nulls.values()
                 for null in spelled for calibration in ("mc", "asymptotic")
                 for n in (50, 500)]
        random.Random(39).shuffle(calls)
        for null, calibration, n in calls:
            config = TestConfig(calibration=calibration)
            x = draw_sum(null.y, null.z, RngStream(39, n).generator(), n)
            fresh = TestEngine(null, n, config).run(x)
            assert _bits(run_test(x, null, config)) == _bits(fresh)
        # the int and float spellings of a law are one key
        info = teststat.prepared_engine.cache_info()
        assert (info.misses, info.hits) == (8, 8)

    def test_memo_stays_within_its_bound(self, mod2_null):
        bound = teststat._PREPARED_ENGINES
        x = np.arange(20.0) % 3
        for seed in range(bound + 5):
            run_test(x, mod2_null, TestConfig(calibration="asymptotic",
                                              mc_seed=seed))
            assert teststat.prepared_engine.cache_info().currsize <= bound
        assert teststat.prepared_engine.cache_info().currsize == bound

    def test_supplied_coefficients_bypass_the_memo(self, mod1_null,
                                                   mod1_coeffs8):
        x = draw_sum(mod1_null.y, mod1_null.z, RngStream(3, 0).generator(),
                     100)
        for calibration in ("mc", "asymptotic"):
            run_test(x, mod1_null, TestConfig(calibration=calibration,
                                              mc_reps=200),
                     coeffs=mod1_coeffs8)
        info = teststat.prepared_engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)

    def test_shared_calibration_is_read_only(self, mod2_null):
        engine = teststat.prepared_engine(mod2_null, 100,
                                          TestConfig(mc_reps=200))
        values = engine.calibration
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
        assert teststat.prepared_engine(mod2_null, 100,
                                        TestConfig(mc_reps=200)) is engine
        assert engine.calibration is values

    def test_failed_calibration_fails_again(self, monkeypatch):
        # a tenth of Y has mean 1e308, so some null draws overflow to inf
        null = NullSpec(Mixture(0.9, Exponential(1.0), Exponential(1e308)),
                        ChiSquared(1), Exponential1Ref())
        config = TestConfig(k_max=3, mc_reps=200)
        x = np.array([0.5, 1.0, 2.0, 3.0])
        for _ in range(2):
            with pytest.raises(DataDomainError, match="calibration row"):
                run_test(x, null, config)
        # mc_reps = 10**9: the T values are refused before any block
        full = np.full

        def refuse_reps(shape, *args, **kwargs):
            if isinstance(shape, int) and shape >= 10 ** 9:
                raise MemoryError(f"Unable to allocate a ({shape},) array")
            return full(shape, *args, **kwargs)
        monkeypatch.setattr(np, "full", refuse_reps)
        huge = TestConfig(mc_reps=10 ** 9)
        for _ in range(2):
            with pytest.raises(MemoryError):
                run_test(x, null, huge)
        # an engine that fails to calibrate is never built, so the memo
        # keeps none, and each call tries again
        info = teststat.prepared_engine.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 4, 0)

    def test_zero_from_keeps_fresh_bits_per_reference(self):
        refs = [GeometricRef(p) for p in (0.05, 0.3, 0.5, 0.7, 0.97)]
        random.Random(43).shuffle(refs)
        for _ in range(2):
            for ref in refs:
                assert _zero_from(ref) == _zero_from.__wrapped__(ref)
        info = _zero_from.cache_info()
        assert (info.misses, info.hits) == (len(refs), len(refs))

    def test_zero_from_stays_within_its_bound(self):
        bound = teststat._ZERO_FROM_REFS
        for i in range(bound + 5):
            _zero_from(GeometricRef(0.1 + 0.8 * i / (bound + 5)))
            assert _zero_from.cache_info().currsize <= bound
        assert _zero_from.cache_info().currsize == bound

    def test_memo_hit_certifies_nothing(self, monkeypatch):
        # the reference owns the basis, certified once per family per
        # process: fresh equal nulls, and a null with other laws on an equal
        # reference, certify it once in all
        certify, families = orthopoly.certify_orthonormality, []

        def counted(family):
            families.append(family)
            return certify(family)
        monkeypatch.setattr(orthopoly, "certify_orthonormality", counted)
        orthopoly.certified_basis.cache_clear()
        config, x = TestConfig(mc_reps=200), np.arange(20.0) % 3
        for y in (Poisson(1.0), Poisson(1.0), Poisson(1.0), Geometric(2.0)):
            run_test(x, NullSpec(y, Geometric(1.0), GeometricRef(0.5)), config)
            assert families == [GeometricRef(0.5).family]
        assert teststat.prepared_engine.cache_info().hits == 2

    def test_cold_fixture_knows_every_memo(self):
        # a process memo that the autouse fixture does not clear would
        # carry one test's engines, samplers or rules into the next
        found = set()
        for info in pkgutil.iter_modules(deconvtest.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"deconvtest.{info.name}")
            spaces = [vars(module)] + [
                vars(obj) for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__]
            found |= {id(obj) for space in spaces for obj in space.values()
                      if hasattr(obj, "cache_clear")}
        assert found == {id(memo) for memo in PROCESS_MEMOS}
        assert len(PROCESS_MEMOS) == 6

    def test_mod1_mc_test_loads_no_scipy(self):
        # the asymptotic p-value is erfc and its critical value inverts the
        # closed-form law, so no Mod1 run reads scipy
        src = Path(teststat.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = ("import json, sys, deconvtest as dt; "
               "dt.run_test([0.5, 1.0, 2.5, 4.0] * 25, "
               "dt.build_scenario('Mod1').null, "
               "dt.TestConfig(calibration={!r})); "
               "print(json.dumps(sorted(sys.modules)))")
        for mode in ("mc", "asymptotic"):
            out = subprocess.run(
                [sys.executable, "-c", run.format(mode)],
                check=True, capture_output=True, text=True, env=env)
            modules = json.loads(out.stdout)
            assert "deconvtest.teststat" in modules
            assert _scipy_modules(modules) == [], mode
        # the CLI in its own process; -X importtime names every import
        fixture = Path(__file__).parent / "data" / "mod1_h0_n500.txt"
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "deconvtest", "test",
             str(fixture), "--calibration", "asymptotic"],
            check=True, capture_output=True, text=True, env=env)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in out.stderr.splitlines()}
        assert '"calibration": "asymptotic"' in out.stdout
        assert "deconvtest.teststat" in imported
        assert _scipy_modules(imported) == []


def _scipy_modules(modules) -> list:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


class TestNumpyOnlyRuntime:
    """The package runs on numpy and the standard library alone."""

    def test_runs_load_no_scipy(self):
        # Poisson masses and sampling tables come from a numpy ratio
        # table: Mod2's Monte Carlo test reads the masses, and its study
        # cells draw from the tables.  Mod1 runs and the bare import are
        # checked in TestPreparedEngines and test_measures.
        src = Path(teststat.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = (
            "import json, sys\n"
            "import deconvtest as dt\n"
            "seen = {}\n"
            "for mode in ('mc', 'asymptotic'):\n"
            "    dt.run_test([0, 1, 2, 5] * 25,\n"
            "                dt.build_scenario('Mod2').null,\n"
            "                dt.TestConfig(calibration=mode))\n"
            "    seen['Mod2 ' + mode] = sorted(sys.modules)\n"
            "dt.level_power_table(('Mod2', 'Alt4', 'Alt5', 'Alt6'), (50,),\n"
            "                     100, dt.TestConfig(mc_reps=200), 7)\n"
            "seen['Mod2 study'] = sorted(sys.modules)\n"
            "print(json.dumps(seen))\n")
        out = subprocess.run([sys.executable, "-c", run], check=True,
                             capture_output=True, text=True, env=env)
        seen = json.loads(out.stdout)
        assert len(seen) == 3
        for step, modules in seen.items():
            assert "deconvtest.teststat" in modules
            assert _scipy_modules(modules) == [], step
        # the CLI on count data in its own process; -X importtime names
        # every import
        data = Path(__file__).parent / "data"
        fixture = data / "mod2_h0_n500.txt"
        cfg = data / "mod2_h0_n500.json"
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "deconvtest", "test",
             str(fixture), "--config", str(cfg)],
            check=True, capture_output=True, text=True, env=env)
        imported = {line.rsplit("|", 1)[-1].strip()
                    for line in out.stderr.splitlines()}
        assert json.loads(out.stdout)["config"]["null"]["y"]["kind"] \
            == "poisson"
        assert "deconvtest.teststat" in imported
        assert _scipy_modules(imported) == []

    def test_runtime_dependencies_are_numpy_alone(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        assert [dep.split(">")[0] for dep in project["dependencies"]] \
            == ["numpy"]


class TestScaleInvariance:
    def test_t_sequence_invariant_to_diagonal_rescale(self):
        rng = np.random.default_rng(303)
        for _ in range(20):
            d = rng.integers(2, 9)
            b = rng.standard_normal((d, d))
            sigma = b @ b.T + 0.5 * np.eye(d)
            bhat = rng.standard_normal(d)
            scale = rng.uniform(0.5, 2.0, d)
            seq = t_sequence(bhat, sigma)
            seq_scaled = t_sequence(scale * bhat,
                                    sigma * np.outer(scale, scale))
            np.testing.assert_allclose(seq_scaled, seq, atol=1e-8)


@pytest.fixture(scope="module")
def batch_engines():
    cfg = TestConfig(calibration="asymptotic")
    return {(model, n): TestEngine(build_scenario(model).null, n, cfg)
            for model in ("Mod1", "Mod2") for n in (20, 60)}


_MOD1_FAMILY = ("Mod1", "Alt1", "Alt3")
# rows drawn from a null or an alternative of Mod1 or Mod2
_ROWS = {"scenario": st.sampled_from(["Mod1", "Alt1", "Alt3",
                                      "Mod2", "Alt4", "Alt6"]),
         "n": st.sampled_from([20, 60]), "reps": st.integers(2, 20),
         "seed": st.integers(0, 2 ** 63 - 1)}
_EPS = np.finfo(float).eps


def _draw_rows(scenario, n, reps, seed):
    """The engine key of the scenario's null and a (reps, n) batch of rows."""
    spec = build_scenario(scenario)
    samples = np.stack([spec.sample(RngStream(seed, r).generator(), n)
                        for r in range(reps)])
    return ("Mod1" if scenario in _MOD1_FAMILY else "Mod2", n), samples


class TestBatchMatchesFreePipeline:
    @settings(max_examples=40, deadline=None)
    @given(**_ROWS)
    def test_rows_match(self, batch_engines, scenario, n, reps, seed):
        key, samples = _draw_rows(scenario, n, reps, seed)
        engine = batch_engines[key]
        t_seq, s_n, t_stat = engine.statistic_batch(samples)
        k = engine.used_k_max
        # the forward substitution sums each row's terms in a fixed order,
        # so a row gives the same bits alone as inside the batch
        for r, row in enumerate(samples):
            bhat = compute_bhat(row, engine.null, engine.coeffs, k)
            seq = t_sequence(bhat, engine.coeffs.sigma[:k, :k])
            order = select_order(seq, n)
            assert np.array_equal(t_seq[r], seq)
            assert s_n[r] == order
            assert t_stat[r] == seq[order - 1]


@pytest.fixture(scope="module")
def mc_engines(batch_engines):
    cfg = TestConfig(mc_reps=100, mc_seed=17)
    return {key: TestEngine(e.null, e.n, cfg, coeffs=e.coeffs)
            for key, e in batch_engines.items()}


class TestStatisticProperties:
    @settings(max_examples=40, deadline=None)
    @given(**_ROWS)
    def test_sequence_nondecreasing(self, batch_engines, scenario, n, reps,
                                    seed):
        # T_j is a running sum of squared innovations, so it never
        # decreases, not even by rounding
        key, samples = _draw_rows(scenario, n, reps, seed)
        engine = batch_engines[key]
        t_seq = engine.statistic_batch(samples)[0]
        assert engine.used_k_max <= engine.diagnostics.usable_k_max
        assert np.all(np.diff(t_seq, axis=1) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(**_ROWS)
    def test_permutation_moves_t_within_rounding(self, batch_engines, scenario,
                                                 n, reps, seed):
        key, samples = _draw_rows(scenario, n, reps, seed)
        engine = batch_engines[key]
        shuffled = np.random.default_rng(seed).permuted(samples, axis=1)
        k = engine.used_k_max
        t_a = engine.statistic_batch(samples)[0]
        t_b = engine.statistic_batch(shuffled)[0]
        null, orders = engine.null, np.arange(1, k + 1)
        lam_min = engine.diagnostics.lambda_mins[:k]
        frob = np.sqrt(np.cumsum(np.diag(engine.coeffs.sigma)[:k]))
        for r, row in enumerate(samples):
            v = (null.ref.basis.eval_normalized(row, k)[1:]
                 * null.ref.density(row))
            b = compute_bhat(row, null, engine.coeffs, k)
            # A mean of n terms, summed in any order, is within
            # (n + 1) * eps * mean|v_j| of the exact one, and bhat_j adds
            # two roundings of its own; so the two orders' bhat differ by
            # at most db_j.  Both sides share the factor Sigma_j = L L', and
            # |L^-1| = lam_min_j**-0.5.  Each side's forward substitution
            # solves (L + dL) e = b with |dL| <= j * eps * |L| entrywise,
            # |L|_F = sqrt(trace Sigma_j), which moves e by at most
            # j * eps * |L|_F * |e| / sqrt(lam_min_j); so sqrt(T_j) moves by
            # at most d_j, and |dT_j| <= d_j * (2 * sqrt(max T_j) + d_j),
            # plus each side's rounding of the running sum, j * eps * T_j.
            db = (2.0 * (n + 1) * _EPS * np.sqrt(n) * np.abs(v).mean(axis=1)
                  + 4.0 * _EPS * np.abs(b))
            db_norm = np.sqrt(np.cumsum(db ** 2))
            top = np.maximum(t_a[r], t_b[r])
            d = (db_norm + 2.0 * orders * _EPS * frob * np.sqrt(top)) / np.sqrt(lam_min)
            bound = d * (2.0 * np.sqrt(top) + d) + 2.0 * orders * _EPS * top
            assert np.all(np.abs(t_a[r] - t_b[r]) <= bound)

    @settings(max_examples=40, deadline=None)
    @given(**_ROWS, far=st.one_of(st.sampled_from([1e40, 1e300]),
                                  st.floats(0.0, 1e300)))
    def test_finite_in_support_sample_gives_finite_t(self, batch_engines,
                                                     scenario, n, reps, seed,
                                                     far):
        key, samples = _draw_rows(scenario, n, reps, seed)
        engine = batch_engines[key]
        # the geometric reference is supported on the integers
        samples[:, 3] = far if scenario in _MOD1_FAMILY else math.floor(far)
        t_seq, _, t_stat = engine.statistic_batch(samples)
        assert np.all(np.isfinite(t_seq)) and np.all(np.isfinite(t_stat))

    @settings(max_examples=40, deadline=None)
    @given(**_ROWS)
    def test_p_values(self, batch_engines, mc_engines, scenario, n, reps,
                      seed):
        key, samples = _draw_rows(scenario, n, reps, seed)
        engine = batch_engines[key]
        for t in engine.statistic_batch(samples)[2]:
            assert 0.0 < mc_engines[key].p_value(t) <= 1.0
            # the chi-squared(1) tail against SciPy's gammaincc, which
            # leaves the normal doubles at T = 1409.5 and returns 0 from
            # T = 1425 on
            assert engine.p_value(t) == pytest.approx(
                gammaincc(0.5, t / 2.0), rel=1e-12, abs=np.finfo(float).tiny)


@pytest.fixture(scope="module")
def large_n_engines():
    cfg = TestConfig(calibration="asymptotic")
    return {model: TestEngine(build_scenario(model).null, 4000, cfg)
            for model in ("Mod1", "Mod2")}


class TestRowBlocks:
    @pytest.mark.parametrize("model", ["Mod1", "Mod2"])
    def test_rows_match_across_block_boundaries(self, large_n_engines, model):
        engine = large_n_engines[model]
        n, k, reps = engine.n, engine.used_k_max, 13
        step = _BLOCK_VALUES // (n * (k + 1))
        # several full blocks and a partial last one
        assert 1 < step < reps and reps % step != 0
        spec = build_scenario(model)
        batch = np.stack([spec.sample(RngStream(4242, r).generator(), n)
                          for r in range(reps)])
        got = compute_bhat(batch, engine.null, engine.coeffs, k)
        assert got.shape == (k, reps)
        for r in range(reps):
            assert np.array_equal(
                got[:, r], compute_bhat(batch[r], engine.null, engine.coeffs, k))

    def test_memory_bounded_by_block(self):
        spec = build_scenario("Mod1")
        engine = TestEngine(spec.null, 2000, TestConfig(calibration="asymptotic"))
        data = np.stack([spec.sample(RngStream(77, r).generator(), 2000)
                         for r in range(400)])
        tracemalloc.start()
        try:
            compute_bhat(data, engine.null, engine.coeffs, engine.used_k_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * data.nbytes

    def test_calibration_memory_bounded_by_block(self, mod1_null):
        # each block's statistic is taken before the next block is drawn,
        # so four times the reps leave the peak where it was; a (reps, n)
        # sample matrix would make it four times as large.  An engine
        # calibrates as it is built, so the build is what is measured
        peaks = []
        for reps in (2000, 8000):
            tracemalloc.start()
            try:
                TestEngine(mod1_null, 2000, TestConfig(mc_reps=reps))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]
        # a block is 131 rows of 2000 draws, 2 MiB of values
        assert peaks[0] < 8 * _BLOCK_DRAWS * 8


def _count_null(p):
    return NullSpec(y=Poisson(1.0), z=Geometric(1.0), ref=GeometricRef(p))


@pytest.fixture(scope="module")
def count_nulls():
    return {p: _count_null(p) for p in (0.3, 0.5, 0.7, 0.99)}


# rows of counts, mostly small, some past the point where m(x) underflows
_COUNT_ROWS = st.tuples(st.integers(1, 4), st.integers(1, 30)).flatmap(
    lambda shape: st.lists(
        st.lists(st.one_of(st.integers(0, 40),
                           st.sampled_from([1e3, 1e6, 1e300])),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


class TestCountKernel:
    """On a count reference ``compute_bhat`` contracts value counts."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from([0.3, 0.5, 0.7, 0.99]), rows=_COUNT_ROWS,
           k=st.integers(1, 8))
    def test_matches_pointwise_sum(self, count_nulls, p, rows, k):
        null = count_nulls[p]
        alphas = np.linspace(-0.1, 0.2, 8)
        coeffs = _coeffs(alphas, np.eye(8))
        data = np.array(rows, dtype=float)
        got = compute_bhat(data, null, coeffs, k)
        # the per-observation means agree to 1e-12
        n = data.shape[1]
        np.testing.assert_allclose(got, count_bhat(data, p, alphas[:k]),
                                   rtol=0, atol=1e-12 * math.sqrt(n))
        for r, row in enumerate(data):
            assert np.array_equal(got[:, r], compute_bhat(row, null, coeffs, k))

    def test_memory_bounded_for_wide_values(self):
        # m(x) of GeometricRef(0.999) underflows only past 737,857, so
        # 1e5 and 1e6 stay distinct values: dense counts one row at a time,
        # then np.unique; neither may grow with the value
        p, k = 0.999, 8
        null = _count_null(p)
        coeffs = _coeffs(np.zeros(k), np.eye(k))
        data = np.stack([draw_sum(null.y, null.z,
                                  RngStream(77, r).generator(), 2000)
                         for r in range(50)])
        for far in (1e5, 1e6):
            data[7, 11] = far
            tracemalloc.start()
            try:
                got = compute_bhat(data, null, coeffs, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * data.nbytes
            np.testing.assert_allclose(got, count_bhat(data, p, np.zeros(k)),
                                       rtol=0, atol=1e-12 * math.sqrt(2000))


def _law_masses(law, top):
    """Mod2's X = Poisson(1) + geometric(1), or Alt4's mixture of Poisson(2)
    and geometric(2), by the oracles on 0 .. top - 1, then the rest."""
    x = np.arange(top, dtype=float)
    if law == "Mod2":
        masses = np.convolve(poisson_masses(1.0, x),
                             geometric_masses(1.0, x))[:top]
    else:
        masses = 0.5 * poisson_masses(2.0, x) + 0.5 * geometric_masses(2.0, x)
    return np.append(masses, max(0.0, 1.0 - masses.sum()))


def _null_masses(null):
    """``value_masses`` of the null's laws on 0 .. top - 1, top being
    ``_zero_from(null.ref)``: the masses that count blocks draw from."""
    x = np.arange(_zero_from(null.ref))
    return value_masses(null.y.mass(x), null.z.mass(x))


def _pearson_homogeneity(a, b):
    """Pearson's statistic and degrees of freedom for two samples' value
    frequencies; the tail from the last value with at least 20 pooled
    draws at or beyond it forms one cell."""
    table = np.zeros((2, max(a.size, b.size)))
    table[0, :a.size], table[1, :b.size] = a, b
    tail = np.cumsum(table.sum(axis=0)[::-1])[::-1]
    cut = int(np.flatnonzero(tail >= 20)[-1])
    table = np.concatenate(
        [table[:, :cut], table[:, cut:].sum(axis=1, keepdims=True)], axis=1)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return float(((table - expected) ** 2 / expected).sum()), table.shape[1] - 1


def _pearson_fit(observed, masses):
    """Pearson's statistic and degrees of freedom of value frequencies
    against masses; the tail from the last value expected at least 20 times
    on or beyond it forms one cell."""
    expected = masses / masses.sum() * observed.sum()
    tail = np.cumsum(expected[::-1])[::-1]
    cut = int(np.flatnonzero(tail >= 20)[-1])
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], tail[cut])
    return float(((obs - exp) ** 2 / exp).sum()), obs.size - 1


def _ks_distance(a, b):
    """Largest gap between the empirical distribution functions of a and b."""
    at = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), at, side="right") / a.size
    fb = np.searchsorted(np.sort(b), at, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


class TestCountRoute:
    """An independent count null calibrates from multinomial value counts."""

    @settings(max_examples=60, deadline=None)
    @given(law=st.sampled_from(["Mod2", "Alt4"]), n=st.sampled_from([20, 60]),
           reps=st.integers(1, 20), seed=st.integers(0, 2 ** 63 - 1),
           far=st.integers(0, 3), trim=st.booleans())
    def test_count_rows_match_their_values(self, batch_engines, law, n, reps,
                                           seed, far, trim):
        engine = batch_engines[("Mod2", n)]
        values = _null_masses(engine.null)[0]
        p = _law_masses(law, int(values[-1]))
        rng = np.random.default_rng(seed)
        counts = rng.multinomial(n, p, size=reps)
        # up to `far` values of row 0 move to the last value, from where
        # m is 0
        far = min(far, int(counts[0].max()))
        counts[0, np.argmax(counts[0])] -= far
        counts[0, -1] += far
        if trim:
            counts = counts[:, :np.flatnonzero(counts.any(axis=0))[-1] + 1]
        values = values[:counts.shape[1]]
        rows = rng.permuted(np.stack([
            np.repeat(values.astype(float), c) for c in counts]), axis=1)
        for got, want in zip(engine._counted(values, counts),
                             engine.statistic_batch(rows)):
            assert np.array_equal(got, want)

    def test_rows_are_fresh_multinomial_draws(self, batch_engines):
        # a block is one multinomial over the cells its draws are expected
        # to reach and one tail cell, then one multinomial that splits the
        # tail counts of the rows that have them
        values, p = _null_masses(batch_engines[("Mod2", 20)].null)
        rows, stream = 300, RngStream(99, 0)
        got, counts = sample_counts(values, p, rows, 20, stream.generator())
        w = np.count_nonzero(np.cumsum(p[::-1])[::-1] * rows * 20 >= 1)
        gen = stream.generator()
        head = gen.multinomial(20, np.append(p[:w], p[w:].sum()), size=rows)
        over = np.flatnonzero(head[:, w])
        # some row of this seed reaches past w
        assert over.size
        want = np.zeros((rows, p.size), dtype=np.int64)
        want[:, :w] = head[:, :w]
        want[over, w:] = gen.multinomial(head[over, w], p[w:] / p[w:].sum())
        # counts keep the reached values only, in the narrowest type
        width = counts.shape[1]
        assert width > w and counts[:, -1].any()
        assert counts.dtype == np.uint8
        assert np.array_equal(got, values[:width])
        assert np.array_equal(counts, want[:, :width])
        assert not want[:, width:].any()

    def test_tail_split_is_exact_in_law(self, batch_engines):
        # blocks of one row of 20 draws: about one draw in twenty lies past
        # the w cells such a block is expected to reach, so 3000 blocks
        # split hundreds of tail counts; given X >= w, their values must
        # follow the oracle's masses
        values, p = _null_masses(batch_engines[("Mod2", 20)].null)
        w = _reach(p, 20)
        tails = np.zeros(values.size)
        for b in range(3000):
            got, counts = sample_counts(values, p, 1, 20,
                                        RngStream(64, b).generator())
            tails[w:got.size] += counts[0, w:]
        assert tails.sum() > 500
        oracle = _law_masses("Mod2", int(values[-1]))
        stat, df = _pearson_fit(tails[w:], oracle[w:])
        assert df >= 3 and chdtrc(df, stat) > 0.01
        # the same check tells them from the tail of Alt4, also of mean 2
        stat, df = _pearson_fit(tails[w:],
                                _law_masses("Alt4", int(values[-1]))[w:])
        assert chdtrc(df, stat) < 1e-6

    def test_counts_agree_in_law_with_point_draws(self, mod2_null):
        engine = TestEngine(mod2_null, 100, TestConfig(calibration="asymptotic"))
        values, counts = sample_counts(
            *count_masses(mod2_null.y, mod2_null.z, mod2_null.ref, 2000, 100),
            2000, 100, RngStream(61, 0).generator())
        counted = np.bincount(values, weights=counts.sum(axis=0))
        points = engine.sample_null_batch(2000, RngStream(62, 0))
        pointwise = np.bincount(points.astype(np.intp).ravel())
        stat, df = _pearson_homogeneity(counted, pointwise)
        assert chdtrc(df, stat) > 0.01
        # the same check tells Alt6 (geometric + geometric, also mean 2)
        # from the null
        alt6 = build_scenario("Alt6")
        other = np.concatenate([alt6.sample(RngStream(63, r).generator(), 100)
                                for r in range(2000)])
        stat, df = _pearson_homogeneity(counted,
                                        np.bincount(other.astype(np.intp)))
        assert chdtrc(df, stat) < 1e-12

    def test_mass_beyond_top_counts_at_top(self):
        # half of Y lies near 10**6, far past top = 73,683 where m is 0,
        # while the masses on 0 .. top - 1 end before 360: that half of
        # every row belongs at top and adds 0, as clipped values do
        null = NullSpec(y=Mixture(0.5, Poisson(1.0), Poisson(1e6)),
                        z=Poisson(1.0), ref=GeometricRef(0.99))
        engine = TestEngine(null, 50, TestConfig(calibration="asymptotic"))
        values, p = _null_masses(null)
        assert values[-1] == _zero_from(null.ref) and values.size < 360
        assert np.array_equal(values[:-1], np.arange(values.size - 1))
        assert p[-1] == pytest.approx(0.5, abs=1e-12)
        counted = engine._counted(
            *sample_counts(values, p, 300, 50, RngStream(3, 0).generator()))[2]
        drawn = engine.statistic_batch(
            engine.sample_null_batch(300, RngStream(4, 0)))[2]
        # two-sample Kolmogorov-Smirnov bound at level 0.001
        assert _ks_distance(counted, drawn) < 1.95 * math.sqrt(2 / 300)


def _counts(null, n):
    """Whether 2000 rows of n null draws count: ``count_masses`` builds
    their masses."""
    return count_masses(null.y, null.z, null.ref, 2000, n) is not None


def _calibration_blocks(engine, seed):
    """T_{S_n} of the calibration, block by block, through the route
    ``count_masses`` chooses: block b of ``_BLOCK_DRAWS // n`` rows from
    child stream b."""
    n, reps, null = engine.n, engine.config.mc_reps, engine.null
    base = RngStream(seed, 0).child(_CALIBRATION_TAG, n)
    masses = count_masses(null.y, null.z, null.ref, reps, n)
    step = _BLOCK_DRAWS // n
    out = []
    for b, lo in enumerate(range(0, reps, step)):
        rows, stream = min(step, reps - lo), base.child(b)
        if masses is not None:
            stats = engine._counted(
                *sample_counts(*masses, rows, n, stream.generator()))
        else:
            stats = engine.statistic_batch(
                engine.sample_null_batch(rows, stream))
        out.append(stats[2])
    return np.concatenate(out)


class TestRouteChoice:
    """``count_masses`` weighs the binomial draws and the masses against the
    values, for the 2000 rows of a default calibration."""

    @pytest.mark.parametrize("n, counts", [(100, True), (500, True),
                                           (2000, True)])
    def test_mod2_counts_from_n_100(self, mod2_null, n, counts):
        assert _counts(mod2_null, n) is counts

    @pytest.mark.parametrize("n, counts", [(20, False), (50, True)])
    def test_mod2_route_at_small_n(self, mod2_null, n, counts):
        # a row of 20 reaches about 6 values, of 50 about 8, and a binomial
        # draw costs about four drawn values
        assert _counts(mod2_null, n) is counts

    def test_heavy_laws_draw_values(self):
        # p spreads over all 1,076 cells and a row's values over hundreds
        heavy = NullSpec(y=Geometric(100.0), z=Geometric(100.0),
                         ref=GeometricRef(0.5))
        assert not _counts(heavy, 500)
        assert _counts(heavy, 5000)

    def test_flat_reference_builds_no_masses(self, monkeypatch):
        # top = 73,683, and both masses run that far: convolving them would
        # cost more than drawing 2000 x 500 values, so they are never built
        flat = NullSpec(y=Geometric(100.0), z=Geometric(100.0),
                        ref=GeometricRef(0.99))
        def refuse(*masses):
            raise AssertionError("the refusal built the convolution")
        monkeypatch.setattr(teststat, "value_masses", refuse)
        assert not _counts(flat, 500)

    def test_refusal_builds_no_convolution(self, monkeypatch):
        # geometric(30) twice on geometric(0.9): both masses run to top =
        # 7,050, and rows of 500 or 1000 draws reach too far to count; the
        # masses below the widest reach that pays tell so, without the
        # 50-million-product convolution
        null = NullSpec(y=Geometric(30.0), z=Geometric(30.0),
                        ref=GeometricRef(0.9))
        def refuse(*masses):
            raise AssertionError("the refusal built the convolution")
        with monkeypatch.context() as patch:
            patch.setattr(teststat, "value_masses", refuse)
            for n in (500, 1000):
                assert not _counts(null, n)
        assert _counts(null, 1500)

    def test_light_law_on_flat_reference_counts(self):
        # the same top, but the masses end after 178 and 1,074 values, so
        # their convolution is cheap and the rows count from n = 500
        light = NullSpec(y=Poisson(1.0), z=Geometric(1.0),
                         ref=GeometricRef(0.99))
        assert _counts(light, 500)
        assert not _counts(light, 50)

    @pytest.mark.parametrize("n", [50, 100])
    def test_calibration_takes_the_chosen_route(self, mod2_null, mod2_coeffs8,
                                                n):
        engine = TestEngine(mod2_null, n, TestConfig(mc_seed=5),
                            coeffs=mod2_coeffs8)
        assert np.array_equal(engine.calibration_values(),
                              _calibration_blocks(engine, 5))

    def test_calibration_blocks_take_child_streams(self, mod1_null,
                                                   mod1_coeffs8):
        # 2000 rows of 500 draws are blocks of 524, 524, 524 and 428 rows
        engine = TestEngine(mod1_null, 500, TestConfig(mc_seed=5),
                            coeffs=mod1_coeffs8)
        assert np.array_equal(engine.calibration_values(),
                              _calibration_blocks(engine, 5))


class TestValueRoute:
    # the first calibration values of 100 rows at n = 50 with mc_seed 5
    PIN = ["1.5057159615991869", "0.0018284588872687847", "4.42517464647786"]

    def test_continuous_null_draws_values(self, monkeypatch, mod1_null,
                                          mod1_coeffs8):
        def refuse(*args):
            raise AssertionError("a value null took the count route")
        monkeypatch.setattr(teststat, "sample_counts", refuse)
        engine = TestEngine(mod1_null, 50, TestConfig(mc_reps=100, mc_seed=5),
                            coeffs=mod1_coeffs8)
        got = engine.calibration_values()
        assert np.array_equal(got, _calibration_blocks(engine, 5))
        assert [repr(float(v)) for v in got[:3]] == self.PIN
