"""Null coefficient computation and covariance diagnostics."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deconvtest.cli import EXIT_USAGE, main
from deconvtest.measures import (
    ChiSquared, Exponential, Exponential1Ref, Gamma, Geometric, GeometricRef,
    Mixture, PointMass, Poisson, RngStream, Uniform01, Uniform01Ref,
)
from deconvtest.nullmodel import (
    CONDITION_CAP, EigenDiagnostics, NullCoefficients, NullSpec,
    NullSpecError, compute_coefficients, eigen_floor_diagnostics, value_masses,
)
from deconvtest.orthopoly import HARD_DEGREE_CAP
from deconvtest.teststat import (
    TestConfig, default_kmax, run_test, t_sequence,
)

from .oracles import (
    _count_masses, count_null_coefficients, gamma_tilted_coefficients,
)


class TestDegenerateNull:
    def test_point_mass_alpha(self):
        null = NullSpec(y=PointMass(0.0), z=PointMass(0.0), ref=Exponential1Ref())
        alphas = compute_coefficients(null, 1, method="closed_form").alphas
        # Q1(0) * m(0): the degree-1 orthonormal polynomial is 1 - x
        assert alphas[0] == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_sigma_vanishes(self):
        null = NullSpec(y=PointMass(0.0), z=PointMass(0.0), ref=Exponential1Ref())
        sigma = compute_coefficients(null, 3, method="closed_form").sigma
        np.testing.assert_allclose(sigma, 0.0, atol=1e-12)


class TestEngineAgreement:
    def test_mod1_closed_vs_quadrature(self, mod1_null, mod1_coeffs8):
        quad = compute_coefficients(mod1_null, 8, method="quadrature")
        np.testing.assert_allclose(mod1_coeffs8.alphas, quad.alphas, atol=1e-8)
        np.testing.assert_allclose(mod1_coeffs8.sigma, quad.sigma, atol=1e-8)

    def test_mod2_closed_vs_quadrature(self, mod2_null, mod2_coeffs8):
        quad = compute_coefficients(mod2_null, 8, method="quadrature")
        np.testing.assert_allclose(mod2_coeffs8.alphas, quad.alphas, atol=1e-8)
        np.testing.assert_allclose(mod2_coeffs8.sigma, quad.sigma, atol=1e-8)

    @pytest.mark.parametrize("model", ["mod1", "mod2"])
    def test_closed_form_vs_monte_carlo(self, model, request):
        null = request.getfixturevalue(f"{model}_null")
        closed = request.getfixturevalue(f"{model}_coeffs8")
        draws = 200_000
        gen = RngStream(881, 3).generator()
        x = null.sample_x(gen, draws)
        v = null.basis.eval_normalized(x, 8)[1:] * null.ref.density(x)
        stderr = v.std(axis=1, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(v.mean(axis=1) - closed.alphas) < 4 * stderr)


class TestLegendreNull:
    def test_uniform_signal_gives_identity(self):
        # X ~ uniform: the empirical coefficients are exactly the basis
        # coordinates, so alphas vanish and sigma is the identity
        null = NullSpec(y=Uniform01(), z=PointMass(0.0), ref=Uniform01Ref())
        coeffs = compute_coefficients(null, 6, method="closed_form")
        np.testing.assert_allclose(coeffs.alphas, 0.0, atol=1e-10)
        np.testing.assert_allclose(coeffs.sigma, np.eye(6), atol=1e-8)

    def test_atomic_mixture_closed_vs_quadrature(self):
        null = NullSpec(y=Mixture(0.5, PointMass(0.2), PointMass(0.6)),
                        z=Mixture(0.3, PointMass(0.1), PointMass(0.3)),
                        ref=Uniform01Ref())
        # finite-sum oracle over the four atoms of X, with the orthonormal
        # shifted Legendre values sqrt(2n + 1) P_n(2x - 1) and m = 1
        x = np.add.outer([0.2, 0.6], [0.1, 0.3]).ravel()
        prob = np.outer([0.5, 0.5], [0.3, 0.7]).ravel()
        q = (np.polynomial.legendre.legvander(2.0 * x - 1.0, 6)
             * np.sqrt(2.0 * np.arange(7) + 1.0)).T[1:]
        alphas = q @ prob
        sigma = (q * prob) @ q.T - np.outer(alphas, alphas)
        for method in ("closed_form", "quadrature"):
            coeffs = compute_coefficients(null, 6, method=method)
            assert coeffs.method == "quadrature"
            np.testing.assert_allclose(coeffs.alphas, alphas, atol=1e-12)
            np.testing.assert_allclose(coeffs.sigma, sigma, atol=1e-12)


# Laws as (oracle data, distribution) pairs: gamma-type axes with shapes
# below 1 and non-integer, the unit interval (the one axis whose rule under
# the exponential weight is not exact by degree alone), point masses, and
# two-component mixtures (whose atoms are off the integers, as a mixture
# may not mix in a discrete law).
_SCALES = st.floats(0.2, 8.0)
_GAMMA_TYPE = st.one_of(
    st.builds(lambda a, t: (("gamma", a, t), Gamma(a, t)),
              st.floats(0.15, 4.0), _SCALES),
    st.builds(lambda m: (("gamma", 1.0, m), Exponential(m)), _SCALES),
    st.builds(lambda d: (("gamma", d / 2.0, 2.0), ChiSquared(d)),
              st.integers(1, 6).map(float)),
)
_UNIFORM = st.just((("unif",), Uniform01()))
_POINTS = st.floats(0.0, 3.0).map(lambda v: (("point", v), PointMass(v)))
_GAMMA_LEAVES = st.one_of(
    _GAMMA_TYPE, _UNIFORM, _POINTS.filter(lambda law: not law[1].discrete))
_GAMMA_LAWS = st.one_of(_GAMMA_TYPE, _UNIFORM, _POINTS, st.builds(
    lambda w, a, b: (("mix", w, a[0], b[0]), Mixture(w, a[1], b[1])),
    st.floats(0.1, 0.9), _GAMMA_LEAVES, _GAMMA_LEAVES))
_COUNT_LEAVES = st.one_of(
    st.floats(0.2, 4.0).map(lambda m: (("poisson", m), Poisson(m))),
    st.floats(0.2, 3.0).map(lambda m: (("geometric", m), Geometric(m))),
    st.integers(0, 3).map(float).map(lambda v: (("point", v), PointMass(v))))
_COUNT_LAWS = st.one_of(_COUNT_LEAVES, st.builds(
    lambda w, a, b: (("mix", w, a[0], b[0]), Mixture(w, a[1], b[1])),
    st.floats(0.1, 0.9), _COUNT_LEAVES, _COUNT_LEAVES))
_P = st.sampled_from([0.3, 0.5, 0.7])
_NULLS = st.one_of(
    st.builds(lambda y, z: NullSpec(y[1], z[1], Exponential1Ref()),
              _GAMMA_LAWS, _GAMMA_LAWS),
    st.builds(lambda y, z, p: NullSpec(y[1], z[1], GeometricRef(p)),
              _COUNT_LAWS, _COUNT_LAWS, _P))

# The null families that failed before the rules carried the reference
# weight, with the sample size that sets their order (default_kmax).
KNOWN_DEFECTS = [
    (Uniform01(), PointMass(0.0), Uniform01Ref(), 300),
    (Uniform01(), PointMass(0.0), Uniform01Ref(), 1000),
    (Mixture(0.3, Exponential(0.5), Exponential(2.0)), ChiSquared(3.0),
     Exponential1Ref(), 100),
    (Gamma(0.7, 0.8), PointMass(0.5), Exponential1Ref(), 100),
]


class TestGaussRules:
    @settings(deadline=None, max_examples=40)
    @given(y=_GAMMA_LAWS, z=_GAMMA_LAWS, k=st.integers(1, 6))
    @example(y=(("unif",), Uniform01()), z=(("point", 0.0), PointMass(0.0)),
             k=4)
    def test_matches_tilted_moment_oracle(self, y, z, k):
        alphas, sigma = gamma_tilted_coefficients(y[0], z[0], k)
        null = NullSpec(y=y[1], z=z[1], ref=Exponential1Ref())
        for method in ("closed_form", "quadrature"):
            coeffs = compute_coefficients(null, k, method=method)
            np.testing.assert_allclose(coeffs.alphas, alphas, rtol=0, atol=1e-12)
            np.testing.assert_allclose(coeffs.sigma, sigma, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(y=_COUNT_LAWS, z=_COUNT_LAWS, p=_P, k=st.integers(1, 15))
    def test_matches_count_law_oracle(self, y, z, p, k):
        # the closed form and the tensor rule share the Charlier and
        # Meixner rules, so each is checked against direct summation
        alphas, sigma = count_null_coefficients(y[0], z[0], p, k)
        null = NullSpec(y=y[1], z=z[1], ref=GeometricRef(p))
        for method in ("closed_form", "quadrature"):
            coeffs = compute_coefficients(null, k, method=method)
            np.testing.assert_allclose(coeffs.alphas, alphas, rtol=0, atol=1e-12)
            np.testing.assert_allclose(coeffs.sigma, sigma, rtol=0, atol=1e-12)

    @settings(deadline=None, max_examples=40)
    @given(null=_NULLS, k=st.integers(1, 15))
    def test_closed_form_agrees_with_quadrature(self, null, k):
        closed = compute_coefficients(null, k, method="closed_form")
        quad = compute_coefficients(null, k, method="quadrature")
        np.testing.assert_allclose(closed.alphas, quad.alphas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(closed.sigma, quad.sigma, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("y, z, ref, n", KNOWN_DEFECTS,
                             ids=["unif-k12", "unif-k14", "expmix+chi3", "gamma0.7+point"])
    def test_known_defect_nulls_pass(self, y, z, ref, n):
        null = NullSpec(y=y, z=z, ref=ref)
        k = default_kmax(n)
        coeffs = compute_coefficients(null, k)
        if isinstance(ref, Uniform01Ref):
            # X is uniform itself: alpha = 0 and sigma = I
            np.testing.assert_allclose(coeffs.alphas, 0.0, atol=1e-12)
            np.testing.assert_allclose(coeffs.sigma, np.eye(k), atol=1e-12)
        x = null.sample_x(RngStream(7, n).generator(), n)
        res = run_test(x, null, TestConfig(calibration="asymptotic"), coeffs)
        assert 0.0 < res.p_value <= 1.0

    def test_quadrature_memory_bounded(self):
        y, z, ref, _ = KNOWN_DEFECTS[2]
        tracemalloc.start()
        try:
            compute_coefficients(NullSpec(y=y, z=z, ref=ref), 10,
                                 method="quadrature")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6


class TestStructure:
    def test_orders_built_separately_agree(self, mod1_null, mod1_coeffs8):
        small = compute_coefficients(mod1_null, 5, method="closed_form")
        np.testing.assert_allclose(small.alphas, mod1_coeffs8.alphas[:5],
                                   atol=1e-10)
        np.testing.assert_allclose(small.sigma, mod1_coeffs8.sigma[:5, :5],
                                   atol=1e-10)

    def test_trace_bounded_and_increasing(self, mod1_null):
        coeffs = compute_coefficients(mod1_null, 10, method="closed_form")
        traces = [np.trace(coeffs.sigma[:k, :k]) for k in range(1, 11)]
        assert all(b > a for a, b in zip(traces, traces[1:]))
        assert traces[-1] < 2.0

    def test_sigma_symmetry_validated(self):
        with pytest.raises(ValueError, match="symmetric"):
            NullCoefficients(k=2, alphas=np.zeros(2),
                             sigma=np.array([[1.0, 0.2], [0.1, 1.0]]),
                             method="closed_form")

    def test_psd_violation_rejected(self):
        bad = np.diag([1.0, -1e-6])
        with pytest.raises(np.linalg.LinAlgError, match="semidefiniteness"):
            NullCoefficients(k=2, alphas=np.zeros(2), sigma=bad,
                             method="closed_form")

    def test_tiny_negative_eigenvalue_noted(self):
        coeffs = NullCoefficients(k=2, alphas=np.zeros(2),
                                  sigma=np.diag([1.0, -5e-11]),
                                  method="closed_form")
        assert any("psd-clip" in note for note in coeffs.notes)


class TestEigenDiagnostics:
    def _coeffs_with_sigma(self, sigma):
        k = sigma.shape[0]
        return NullCoefficients(k=k, alphas=np.zeros(k), sigma=sigma,
                                method="closed_form")

    def test_identity(self):
        diag = eigen_floor_diagnostics(self._coeffs_with_sigma(np.eye(4)))
        assert diag.usable_k_max == 4
        np.testing.assert_allclose(diag.lambda_mins, 1.0)

    def test_mod1_lambda_decreasing(self, mod1_null):
        coeffs = compute_coefficients(mod1_null, 10, method="closed_form")
        diag = eigen_floor_diagnostics(coeffs)
        assert np.all(np.diff(diag.lambda_mins) < 0)
        assert np.all(np.diff(diag.condition_numbers) > 0)
        assert diag.usable_k_max == 10

    def test_near_singular_block_capped(self):
        sigma = np.diag([1.0, 1.0, 1e-15])
        diag = eigen_floor_diagnostics(self._coeffs_with_sigma(sigma))
        assert diag.usable_k_max == 2

    def test_mod1_thirteen_components_capped(self, mod1_null):
        coeffs = compute_coefficients(mod1_null, 13, method="closed_form")
        diag = eigen_floor_diagnostics(coeffs)
        assert diag.usable_k_max == 10

    def test_block_at_the_cap_is_not_usable(self):
        # its eigenvalue 1 / CONDITION_CAP sits on the floor lambda_max / cap
        diag = eigen_floor_diagnostics(
            self._coeffs_with_sigma(np.diag([1.0, 1.0 / CONDITION_CAP])))
        assert diag.usable_k_max == 1

    @pytest.mark.parametrize("model", ["mod1", "mod2"])
    def test_usable_blocks_factor_above_the_floor(self, model, request):
        coeffs = compute_coefficients(request.getfixturevalue(f"{model}_null"), 15)
        diag = eigen_floor_diagnostics(coeffs)
        usable = diag.usable_k_max
        assert usable < 15
        for j in range(1, usable + 1):
            block = coeffs.sigma[:j, :j]
            np.linalg.cholesky(block)
            w = np.linalg.eigvalsh(block)
            assert np.all(w > w[-1] / CONDITION_CAP)
        # the next block fails the eigenvalue rule
        w = np.linalg.eigvalsh(coeffs.sigma[:usable + 1, :usable + 1])
        assert w[0] <= w[-1] / CONDITION_CAP

    @settings(deadline=None, max_examples=60)
    @given(d=st.integers(2, HARD_DEGREE_CAP), log_cond=st.floats(0.0, 12.2),
           seed=st.integers(0, 2**32 - 1))
    def test_usable_blocks_factor(self, d, log_cond, seed):
        # a random SPD matrix of condition 10**log_cond with rows and
        # columns scaled by up to e**5 either way: every block that passes
        # the floor has a Cholesky factor and a finite, nondecreasing T
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = 10.0 ** -np.append([0.0, log_cond],
                                 rng.uniform(0.0, log_cond, d - 2))
        scale = np.exp(rng.uniform(-5.0, 5.0, d))
        sigma = scale[:, None] * (basis * lam) @ basis.T * scale
        sigma = 0.5 * (sigma + sigma.T)
        diag = eigen_floor_diagnostics(self._coeffs_with_sigma(sigma))
        usable = diag.usable_k_max
        for j in range(1, usable + 1):
            np.linalg.cholesky(sigma[:j, :j])
        t = t_sequence(rng.standard_normal((usable, 8)),
                       sigma[:usable, :usable])
        assert np.all(np.isfinite(t))
        assert np.all(np.diff(t, axis=0) >= 0)

    def test_no_usable_order_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="floor"):
            eigen_floor_diagnostics(self._coeffs_with_sigma(np.zeros((2, 2))))


class TestValidation:
    def test_reference_fixes_the_basis(self, mod1_null):
        # a null takes no basis, so it compares and hashes by its laws and
        # reference
        with pytest.raises(TypeError, match="basis"):
            NullSpec(y=Exponential(1.0), z=ChiSquared(1), ref=Exponential1Ref(),
                     basis=mod1_null.basis)
        twin = NullSpec(y=Exponential(1.0), z=ChiSquared(1.0),
                        ref=Exponential1Ref())
        assert twin == mod1_null and hash(twin) == hash(mod1_null)
        assert twin != NullSpec(y=Exponential(2.0), z=ChiSquared(1),
                                ref=Exponential1Ref())
        assert {twin: 1}[mod1_null] == 1
        assert NullSpec(Poisson(1.0), Geometric(1.0), GeometricRef(0.3)) \
            != NullSpec(Poisson(1.0), Geometric(1.0), GeometricRef(0.5))

    def test_support_containment(self):
        with pytest.raises(NullSpecError, match="support"):
            NullSpec(y=Uniform01(), z=Uniform01(), ref=Uniform01Ref())

    def test_discrete_reference_needs_integer_components(self):
        with pytest.raises(NullSpecError, match="integer"):
            NullSpec(y=Exponential(1.0), z=Geometric(1.0), ref=GeometricRef(0.5))

    def test_dependent_null_is_refused(self, mod1_null, tmp_path, capsys):
        # Z is independent of Y: a null takes no joint sampler, the
        # coefficients have no Monte Carlo path, and a configuration file
        # may not ask for another dependence
        with pytest.raises(TypeError, match="joint_sampler"):
            NullSpec(y=Exponential(1.0), z=ChiSquared(1), ref=Exponential1Ref(),
                     joint_sampler=lambda gen, n: (None, None))
        with pytest.raises(ValueError, match="'monte_carlo'"):
            compute_coefficients(mod1_null, 4, "monte_carlo")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"null": {"dependence": "joint_sampler"}}))
        code = main(["coeffs", "--kmax", "4", "--config", str(cfg)])
        assert code == EXIT_USAGE
        assert "null.dependence" in capsys.readouterr().err

    def test_order_bounds(self, mod1_null):
        with pytest.raises(ValueError):
            compute_coefficients(mod1_null, 0)
        with pytest.raises(ValueError):
            compute_coefficients(mod1_null, 40)


class TestFarDraws:
    @pytest.mark.parametrize("k", [14, 16])
    def test_far_draws_add_zero(self, k):
        # m(x) is 0 from x = 800 on; draws of 1e25 overflow the basis, and
        # would give inf * 0 = NaN, were the basis not evaluated at 0 there
        law = Exponential(1.0)
        null = NullSpec(y=law, z=law, ref=Exponential1Ref())
        gen = RngStream(861221509, 0).generator()
        x = law.draw(gen, 10_000) + law.draw(gen, 10_000)
        moments = []
        for far in (1e25, 800.0):
            x[:3] = far
            v = null.basis_terms(x, k)
            moments.append((v.mean(axis=1), np.cov(v, ddof=1)))
        (far_a, far_s), (near_a, near_s) = moments
        assert np.all(np.isfinite(far_a)) and np.all(np.isfinite(far_s))
        np.testing.assert_array_equal(far_a, near_a)
        np.testing.assert_array_equal(far_s, near_s)


def _masses(y, z, top):
    """``value_masses`` of independent count laws y and z on 0 .. top - 1."""
    x = np.arange(top, dtype=float)
    return value_masses(y.mass(x), z.mass(x))


class TestValueMasses:
    @pytest.mark.parametrize("y, z, p", [
        (("poisson", 1.0), ("geometric", 1.0), 0.5),
        (("point", 2.0), ("geometric", 1.5), 0.3),
        (("mix", 0.5, ("poisson", 2.0), ("geometric", 2.0)), ("point", 0.0),
         0.5),
        (("poisson", 40.0), ("mix", 0.2, ("point", 3.0), ("poisson", 1.0)),
         0.7),
    ])
    def test_matches_oracle_convolution(self, y, z, p):
        laws = {"poisson": Poisson, "geometric": Geometric, "point": PointMass}

        def build(law):
            if law[0] == "mix":
                return Mixture(law[1], build(law[2]), build(law[3]))
            return laws[law[0]](law[1])

        top = 300
        x = np.arange(top, dtype=float)
        want = np.convolve(_count_masses(y, x), _count_masses(z, x))[:top]
        null = NullSpec(y=build(y), z=build(z), ref=GeometricRef(p))
        values, got = _masses(null.y, null.z, top)
        assert np.array_equal(values, np.arange(top + 1))
        np.testing.assert_allclose(got[:top], want, rtol=1e-12, atol=1e-300)
        # every law here leaves less than 1e-100 from 300 on
        assert 0.0 <= got[top] < 1e-14

    def test_wide_reference_stops_at_the_laws_reach(self):
        # m of GeometricRef(0.999) underflows only from 737,858 on, while
        # the masses of Poisson(1) and geometric(1) end before 180 and 1075
        values, got = _masses(Poisson(1.0), Geometric(1.0), 737_858)
        w = got.size - 1
        assert w < 1300
        # the last value is top, which takes the rest of the mass
        assert np.array_equal(values, np.append(np.arange(w), 737_858))
        x = np.arange(w, dtype=float)
        want = np.convolve(_count_masses(("poisson", 1.0), x),
                           _count_masses(("geometric", 1.0), x))[:w]
        np.testing.assert_allclose(got[:w], want, rtol=1e-12, atol=1e-300)
        assert 0.0 <= got[w] < 1e-14

    def test_tail_bucket_takes_the_rest(self):
        x = np.arange(4.0)
        want = np.convolve(_count_masses(("poisson", 1.0), x),
                           _count_masses(("geometric", 1.0), x))[:4]
        values, got = _masses(Poisson(1.0), Geometric(1.0), 4)
        assert values.tolist() == [0, 1, 2, 3, 4]
        assert got[4] == pytest.approx(1.0 - want.sum(), rel=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-15)

    def test_mass_beyond_top_lands_at_top(self):
        # the far component's mass, and an integer point mass past top,
        # underflow on 0 .. top - 1; their share is the last value's, top
        values, got = _masses(Mixture(0.5, Poisson(1.0), Poisson(1e6)),
                              Mixture(0.25, Geometric(1.0), PointMass(5000.0)),
                              1075)
        assert values[-1] == 1075 and values.size == 1076
        x = np.arange(1075.0)
        want = np.convolve(0.5 * _count_masses(("poisson", 1.0), x),
                           0.25 * _count_masses(("geometric", 1.0), x))[:1075]
        np.testing.assert_allclose(got[:-1], want, rtol=1e-12, atol=1e-300)
        assert got[-1] == pytest.approx(1.0 - 0.5 * 0.25, rel=1e-12)
