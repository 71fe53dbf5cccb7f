"""Distribution zoo, reference measures, and RNG stream reproducibility."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import pdtr

import deconvtest
from deconvtest.engines import expectation_rule
from deconvtest.measures import (
    LAWS, ChiSquared, Distribution, Exponential, Exponential1Ref, Gamma,
    Geometric, GeometricRef, Mixture, PointMass, Poisson, RngStream, Uniform01,
    Uniform01Ref,
)
from deconvtest.simlab import build_scenario
from deconvtest.teststat import (
    _BLOCK_DRAWS, _CALIBRATION_TAG, DEFAULT_MC_SEED, TestConfig, TestEngine,
    count_masses, sample_counts,
)

from .oracles import _count_masses, _tilted_moments


class TestDensityM:
    def test_exponential_at_zero(self):
        assert Exponential1Ref().density(0.0) == pytest.approx(1.0)

    def test_geometric_mass(self):
        assert GeometricRef(0.5).density(3) == pytest.approx(0.0625)

    def test_uniform(self):
        assert Uniform01Ref().density(0.7) == pytest.approx(1.0)

    def test_out_of_support_is_zero(self):
        assert Exponential1Ref().density(-1.0) == 0.0
        assert Uniform01Ref().density(1.5) == 0.0
        assert GeometricRef(0.5).density(2.5) == 0.0
        assert GeometricRef(0.5).density(-3) == 0.0


# negatives, fractions, signed zeros, far values, infinities and NaN
_SUPPORT_GRID = np.array([
    -np.inf, -1e300, -5.0, -1.0, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.25, 0.5,
    1.0, 1.5, 2.0, 3.0, 7.0, 50.0, 700.0, 745.0, 800.0, 1e6, 2.0 ** 53,
    2.0 ** 53 + 2, 1e300, np.inf, np.nan])
_REFS = [Exponential1Ref(), Uniform01Ref(), GeometricRef(0.5),
         GeometricRef(0.97)]


class TestReferenceSupport:
    @pytest.mark.parametrize("ref", _REFS, ids=str)
    def test_membership_is_the_stated_support(self, ref):
        lo, hi = ref.support()
        expected = [math.isfinite(v) and lo <= v <= hi
                    and (not ref.discrete or float(v).is_integer())
                    for v in _SUPPORT_GRID]
        np.testing.assert_array_equal(ref.in_support(_SUPPORT_GRID), expected)
        np.testing.assert_array_equal(
            ref.in_support(_SUPPORT_GRID.reshape(2, -1)),
            np.reshape(expected, (2, -1)))
        assert [bool(ref.in_support(v)) for v in _SUPPORT_GRID] == expected

    @pytest.mark.parametrize("ref", _REFS, ids=str)
    def test_density_is_zero_off_the_support(self, ref):
        off = ~ref.in_support(_SUPPORT_GRID)
        assert (ref.density(_SUPPORT_GRID)[off] == 0.0).all()

    @pytest.mark.parametrize("ref", _REFS, ids=str)
    def test_density_is_m0_times_the_exponential_tilt(self, ref):
        # the form that the coefficient rules fold in: m(x) = m(0) e^(-rate x)
        x = _SUPPORT_GRID[ref.in_support(_SUPPORT_GRID)]
        m, form = ref.density(x), ref.density(0.0) * np.exp(-ref.rate * x)
        live = m >= np.finfo(float).tiny
        np.testing.assert_allclose(m[live], form[live], rtol=1e-12)
        assert (form[~live] < np.finfo(float).tiny).all()
        assert live.sum() >= 2

    @pytest.mark.parametrize("ref", _REFS, ids=str)
    def test_density_has_mass_one(self, ref):
        # pins m(0), which the form above takes from the density itself
        if ref.discrete:
            total = ref.density(np.arange(4000.0)).sum()
        else:
            total = quad(lambda t: float(ref.density(t)), *ref.support())[0]
        assert total == pytest.approx(1.0, rel=1e-12)


class TestRngStream:
    def test_bit_exact_reproducibility(self):
        a = Exponential(1.0).draw(RngStream(123, 7).generator(), 1000)
        b = Exponential(1.0).draw(RngStream(123, 7).generator(), 1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Exponential(1.0).draw(RngStream(123, 7).generator(), 100)
        b = Exponential(1.0).draw(RngStream(123, 8).generator(), 100)
        c = Exponential(1.0).draw(RngStream(124, 7).generator(), 100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_child_streams_deterministic_and_distinct(self):
        base = RngStream(55, 0)
        assert base.child(3, 9) == base.child(3, 9)
        assert base.child(3, 9) != base.child(9, 3)
        assert base.child(1) != base.child(2)


class TestStreamKeys:
    """``RngStream.key`` is NumPy's uint64 conversion of ``[seed, index]``,
    all 64 bits of each word."""

    INDICES = [0, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1000,
               2 ** 64 - 1025, 2 ** 64 - 1]

    @pytest.mark.parametrize("seed", [0, DEFAULT_MC_SEED, 2 ** 63 + 12345])
    @pytest.mark.parametrize("idx", INDICES)
    def test_key_is_numpys_list_conversion(self, seed, idx):
        want = np.array([seed, idx], dtype=np.uint64)
        got = RngStream(seed, idx).key()
        assert got.dtype == np.uint64
        assert got.tolist() == [seed, idx]
        # and Philox keeps the key as given
        np.testing.assert_array_equal(
            RngStream(seed, idx).generator().bit_generator.state["state"]["key"],
            want)

    def test_high_indices_keep_64_bits(self):
        # below 2**64 no two indices share a key, nor a stream
        a, b = RngStream(1, 2 ** 63), RngStream(1, 2 ** 63 + 1000)
        assert not np.array_equal(a.key(), b.key())
        assert not np.array_equal(a.generator().random(4),
                                  b.generator().random(4))


class TestSampling:
    def test_point_mass(self):
        np.testing.assert_array_equal(
            PointMass(2.0).draw(RngStream(1).generator(), 3), [2.0, 2.0, 2.0])

    def test_exponential_mean(self):
        x = Exponential(1.0).draw(RngStream(2024, 1).generator(), 10 ** 6)
        assert abs(x.mean() - 1.0) < 4e-3

    def test_geometric_mean(self):
        x = Geometric(1.0).draw(RngStream(2024, 2).generator(), 10 ** 6)
        assert abs(x.mean() - 1.0) < 5e-3
        assert np.all(x == np.floor(x)) and np.all(x >= 0)

    def test_chi_squared_one_is_squared_normal(self):
        # same stream drawn manually must reproduce the pinned algorithm
        x = ChiSquared(1).draw(RngStream(9, 9).generator(), 500)
        manual = RngStream(9, 9).generator().standard_normal(500) ** 2
        np.testing.assert_array_equal(x, manual)

    def test_poisson_inversion_matches_cdf(self):
        x = Poisson(1.0).draw(RngStream(77, 1).generator(), 200_000)
        assert abs(x.mean() - 1.0) < 0.01
        assert abs((x == 0).mean() - math.exp(-1)) < 0.005

    def test_mixture_component_selection(self):
        mix = Mixture(1.0, PointMass(1.0), PointMass(2.0))
        np.testing.assert_array_equal(mix.draw(RngStream(3).generator(), 4),
                                      np.ones(4))

    def test_count_zero(self):
        assert Exponential(1.0).draw(RngStream(5).generator(), 0).size == 0

    def test_poisson_cdf_table_built_once(self):
        p = Poisson(2.0)
        assert p._cdf_table is p._cdf_table
        assert p == Poisson(2.0) and hash(p) == hash(Poisson(2.0))


class TestGoldenDraws:
    """First draws of fixed streams, pinned so that sampler changes keep
    the stream contract bit for bit: calibration block b, of
    ``_BLOCK_DRAWS // n`` rows (524 at n = 500), uses child stream b, and
    study block b, of as many replications, uses stream b of the master
    seed."""

    N = 500
    CALIBRATION = {
        ("Mod1", 0): ["0.9710150796124657", "0.46364196757031234",
                      "0.9287798948416768", "2.1324816212226896"],
        ("Mod1", 1): ["0.7032437429920055", "0.3825523045644272",
                      "7.058990614002492", "1.8397033036567898"],
        ("Mod1", 524): ["1.7022963013188461", "0.5536616006875923",
                        "1.2444034286751393", "0.19231758209361527"],
        ("Mod1", 1999): ["1.1712066754137311", "0.5987519537005881",
                         "3.641714158282842", "2.384199718951291"],
        ("Mod2", 0): ["1.0", "0.0", "1.0", "1.0"],
        ("Mod2", 1): ["0.0", "5.0", "1.0", "5.0"],
        ("Mod2", 524): ["5.0", "1.0", "1.0", "0.0"],
        ("Mod2", 1999): ["1.0", "0.0", "3.0", "3.0"],
    }
    # a study cell of 2000 replications at n = 500 with the default master
    # seed: Alt1's first four values in rows 0, 1, 524 and 1999, and how
    # often Alt4's count route gives those rows the values 0..5
    STUDY_SEED = 20260809
    ALT1 = {0: ["2.6735029470912717", "2.376649849182653",
                "1.2381265106786983", "1.82650139181802"],
            1: ["2.2013862545562755", "0.060885525157922275",
                "5.406131024271141", "0.443833380323147"],
            524: ["1.3991290514065209", "2.1644447503473945",
                  "0.7400362488381037", "1.055612589994491"],
            1999: ["0.7425850890551697", "0.5418726336709659",
                   "0.04448239478075266", "0.9178939875576102"]}
    ALT4 = {0: [115, 135, 100, 57, 39, 28], 1: [132, 110, 109, 67, 33, 20],
            524: [111, 112, 108, 86, 44, 17],
            1999: [113, 131, 105, 60, 42, 20]}
    # Mod2's count route at n = 500: how often rows 0, 1, 524 and 1999 hold
    # the values 0..5 (``sample_counts`` of the null's ``count_masses``)
    COUNTS = {0: [104, 138, 114, 57, 43, 22], 1: [85, 134, 116, 74, 44, 25],
              524: [100, 123, 124, 71, 49, 21],
              1999: [100, 114, 128, 80, 44, 17]}

    @classmethod
    def _blocks(cls, rows, stream):
        """(row, stream(b), rows in block b, place in block b) of 2000 rows
        at n = 500, for the blocks b that hold ``rows``."""
        step = _BLOCK_DRAWS // cls.N
        for r in rows:
            b, i = divmod(r, step)
            yield r, stream(b), min(step, 2000 - b * step), i

    @classmethod
    def _calibration_blocks(cls, rows):
        base = RngStream(DEFAULT_MC_SEED, 0).child(_CALIBRATION_TAG, cls.N)
        return cls._blocks(rows, base.child)

    @classmethod
    def _study_blocks(cls, rows):
        return cls._blocks(rows, lambda b: RngStream(cls.STUDY_SEED, b))

    @pytest.mark.parametrize("model", ["Mod1", "Mod2"])
    def test_calibration_rows(self, model):
        engine = TestEngine(build_scenario(model).null, self.N,
                            TestConfig(calibration="asymptotic"))
        rows = [r for name, r in self.CALIBRATION if name == model]
        for r, stream, size, i in self._calibration_blocks(rows):
            samples = engine.sample_null_batch(size, stream)
            assert samples.shape == (size, self.N)
            got = [repr(float(v)) for v in samples[i, :4]]
            assert got == self.CALIBRATION[(model, r)]

    def test_count_rows(self):
        null = build_scenario("Mod2").null
        masses = count_masses(null.y, null.z, null.ref, 2000, self.N)
        for r, stream, size, i in self._calibration_blocks(self.COUNTS):
            values, counts = sample_counts(*masses, size, self.N,
                                           stream.generator())
            assert np.array_equal(values, np.arange(counts.shape[1]))
            assert counts.sum(axis=1).tolist() == [self.N] * size
            assert counts[i, :6].tolist() == self.COUNTS[r]

    def test_pins_cover_high_stream_indices(self):
        # the pins span blocks, and some block's stream index needs all
        # 64 bits of the key
        for rows in ([r for _, r in self.CALIBRATION], self.COUNTS):
            streams = {s.stream_index
                       for _, s, _, _ in self._calibration_blocks(rows)}
            assert len(streams) > 2
            assert any(idx >= 2 ** 63 for idx in streams)

    def test_alt1_replication_rows(self):
        sc = build_scenario("Alt1")
        for r, stream, size, i in self._study_blocks(self.ALT1):
            data = sc.sample(stream.generator(), size * self.N)
            got = data.reshape(size, self.N)[i, :4]
            assert [repr(float(v)) for v in got] == self.ALT1[r]

    def test_alt4_replication_rows(self):
        # Alt4 counts its 2000 rows, drawn from its own mixture's masses
        sc = build_scenario("Alt4")
        masses = count_masses(sc.y, sc.z, sc.null.ref, 2000, self.N)
        assert masses is not None
        for r, stream, size, i in self._study_blocks(self.ALT4):
            values, counts = sample_counts(*masses, size, self.N,
                                           stream.generator())
            assert np.array_equal(values, np.arange(counts.shape[1]))
            assert counts.sum(axis=1).tolist() == [self.N] * size
            assert counts[i, :6].tolist() == self.ALT4[r]


# Laws as (oracle data, distribution) pairs, one per kind of Gauss rule
_RULE_LAWS = [
    (("gamma", 1.0, 1.5), Exponential(1.5)),
    (("gamma", 0.7, 2.0), Gamma(0.7, 2.0)),
    (("gamma", 1.5, 2.0), ChiSquared(3)),
    # shapes past 171, where Gamma(shape) itself overflows a float
    pytest.param((("gamma", 172.0, 2.0), ChiSquared(344)),
                 id="chi_squared_344"),
    pytest.param((("gamma", 1000.0, 0.5), Gamma(1000.0, 0.5)),
                 id="gamma_1000"),
    (("unif",), Uniform01()),
    (("poisson", 2.5), Poisson(2.5)),
    (("geometric", 1.5), Geometric(1.5)),
    (("point", 0.4), PointMass(0.4)),
    (("mix", 0.3, ("gamma", 2.0, 1.0), ("point", 0.5)),
     Mixture(0.3, Gamma(2.0, 1.0), PointMass(0.5))),
    (("mix", 0.5, ("poisson", 2.0), ("geometric", 2.0)),
     Mixture(0.5, Poisson(2.0), Geometric(2.0))),
]


class TestPdfOrPmf:
    def test_poisson_at_zero(self):
        # the sampling table starts at 0, with the mass there
        lo, table = Poisson(1.0)._cdf_table
        assert lo == 0 and table[0] == pytest.approx(math.exp(-1.0))

    def test_off_support_zero(self):
        # the count rules put their nodes between the integers, where the
        # reference mass vanishes; the engines weight by m(0) alone
        assert GeometricRef(0.5).density(2.5) == 0.0

    @pytest.mark.parametrize("dist", [
        Exponential(1.0), Gamma(2.0, 1.5), ChiSquared(1), Uniform01(),
        Mixture(0.5, Exponential(2.0), ChiSquared(2)),
    ])
    def test_continuous_normalization(self, dist):
        x, w = expectation_rule(dist, 2)
        assert w.sum() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("dist", [
        Poisson(1.0), Geometric(1.0),
        Mixture(0.5, Poisson(2.0), Geometric(2.0)),
    ])
    def test_discrete_normalization(self, dist):
        # the Charlier and Meixner rules carry the masses, and the rule
        # recurses into the mixture's components
        x, w = expectation_rule(dist, 3)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("law", [(("poisson", 1e-30), Poisson(1e-30)),
                                     (("geometric", 1e-30), Geometric(1e-30))],
                             ids=lambda law: law[1].kind)
    def test_vanishing_tilt_keeps_finite_weights(self, law):
        # a tilted mean of 1e-30, or one that underflows to 0 at rate 800,
        # leaves weights far below the float range at the upper nodes
        for rate in (0.0, 800.0):
            x, w = expectation_rule(law[1], 31, rate)
            assert np.all(np.isfinite(w))
            assert w.sum() == pytest.approx(
                _tilted_moments(law[0], rate, 0)[0], rel=1e-14)

    @pytest.mark.parametrize("rate", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("nodes", [1, 3, 5])
    @pytest.mark.parametrize("law", _RULE_LAWS, ids=lambda law: law[1].kind)
    def test_rule_exact_to_degree_2n_minus_1(self, law, nodes, rate):
        # sum(w x**j) = E[X**j exp(-rate X)] for j <= 2 nodes - 1, against
        # the closed-form tilted moments of each axis kind
        x, w = expectation_rule(law[1], nodes, rate)
        got = np.array([w @ x ** j for j in range(2 * nodes)])
        np.testing.assert_allclose(
            got, _tilted_moments(law[0], rate, 2 * nodes - 1), rtol=1e-12)

    def test_every_law_owns_its_rule(self):
        # a law left on the base rule would fail only when a null first
        # integrates it
        assert [kind for kind, cls in LAWS.items()
                if cls.rule is Distribution.rule] == []

    def test_law_without_rule_raises(self):
        class Bare(Distribution):
            kind = "bare"

        with pytest.raises(TypeError, match="no expectation rule for Bare"):
            Bare().rule(3)
        with pytest.raises(TypeError, match="no expectation rule for Bare"):
            expectation_rule(Bare(), 3, 1.0)


class TestCountMasses:
    X = np.arange(80.0)

    @pytest.mark.parametrize("law", [
        (("poisson", 1.0), Poisson(1.0)),
        (("poisson", 7.5), Poisson(7.5)),
        (("geometric", 1.0), Geometric(1.0)),
        (("geometric", 4.0), Geometric(4.0)),
        (("point", 3.0), PointMass(3.0)),
        (("mix", 0.5, ("poisson", 2.0), ("geometric", 2.0)),
         Mixture(0.5, Poisson(2.0), Geometric(2.0))),
        (("mix", 0.3, ("point", 0.0), ("poisson", 3.0)),
         Mixture(0.3, PointMass(0.0), Poisson(3.0))),
    ], ids=lambda law: law[1].kind)
    def test_matches_oracle(self, law):
        # the ratio recurrence and direct powers of tests/oracles.py
        np.testing.assert_allclose(law[1].mass(self.X),
                                   _count_masses(law[0], self.X),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("mean", [0.2, 1.0, 2.0, 50.0, 800.0])
    def test_poisson_against_mpmath(self, mean):
        # 40-digit masses exp(x log(mean) - mean - log x!) on 0..1074,
        # where they exceed 1e-300; scipy's own formula reads 7e-14 to
        # 2.1e-12 here
        with mpmath.workdps(40):
            mu = mpmath.mpf(mean)
            want = np.array([float(mpmath.exp(x * mpmath.log(mu) - mu
                                              - mpmath.loggamma(x + 1)))
                             for x in range(1075)])
        keep = want > 1e-300
        got = Poisson(mean).mass(np.arange(1075.0))
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0)
        assert np.all(got[~keep] < 1e-299)

    def test_poisson_subnormal_mean_warns_nothing(self):
        # mean / 2 underflows to 0, a log of 0 and a mass of 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Poisson(5e-324).mass(np.arange(3.0))
        assert got.tolist() == [1.0, 5e-324, 0.0]

    @pytest.mark.parametrize("law", [Exponential(1.0), ChiSquared(1),
                                     Uniform01(),
                                     Mixture(0.5, Exponential(2.0),
                                             ChiSquared(2))],
                             ids=lambda law: law.kind)
    def test_continuous_laws_have_no_mass(self, law):
        with pytest.raises(TypeError, match="not a count law"):
            law.mass(self.X)


def test_import_leaves_scipy_stats_out():
    # Poisson masses and tables come from a numpy ratio table, so importing
    # the package and its CLI loads no scipy module, scipy.stats included
    src = str(Path(deconvtest.__file__).resolve().parents[1])
    code = ("import sys, deconvtest, deconvtest.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0


class TestPoissonTable:
    def test_large_mean_draws(self):
        # exp(-mean) underflows past a mean of about 745, so the table's
        # bounds must not depend on it
        mean, n = 2e5, 20_000
        x = Poisson(mean).draw(RngStream(31, 4).generator(), n)
        assert abs(x.mean() - mean) < 4 * math.sqrt(mean / n)
        assert abs(x.var(ddof=1) - mean) < 4 * mean * math.sqrt(2.0 / n)

    def test_means_past_the_table_draw_in_bounded_memory(self):
        # the table would hold about 17 sqrt(mean) entries, 1.4 GB here
        mean, n = 1e14, 10_000
        tracemalloc.start()
        try:
            x = Poisson(mean).draw(RngStream(31, 5).generator(), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6
        assert abs(x.mean() - mean) < 4 * math.sqrt(mean / n)

    @pytest.mark.parametrize("mean", [0.2, 1.0, 800.0, 2e5])
    def test_table_covers_the_mass(self, mean):
        lo, table = Poisson(mean)._cdf_table
        assert (pdtr(lo - 1, mean) if lo else 0.0) < 1e-15
        assert table[-1] > 1.0 - 1e-15
        assert table.size < 20 * math.sqrt(mean) + 40

    @pytest.mark.parametrize("mean", [0.2, 1.0, 800.0, 2e5])
    def test_table_matches_pdtr(self, mean):
        lo, table = Poisson(mean)._cdf_table
        np.testing.assert_allclose(
            table, pdtr(np.arange(lo, lo + table.size), mean), rtol=0,
            atol=1e-13)

    def test_large_mean_table_against_mpmath(self):
        # far from a mean of 1e7, scipy's pdtr is off by 1.4e-7 at
        # mean + 14,240; P(X <= k) is the regularized upper gamma Q(k + 1)
        mean = 1e7
        lo, table = Poisson(mean)._cdf_table
        for k in (10_000_000, 10_000_000 - 14_240, 10_000_000 + 14_240,
                  10_000_000 + 20_000):
            with mpmath.workdps(30):
                want = float(mpmath.gammainc(k + 1, mean, mpmath.inf,
                                             regularized=True))
            assert abs(table[k - lo] - want) < 1e-13, k


class TestValidation:
    def test_positive_parameters(self):
        # an infinite or NaN parameter, or a geometric mean whose
        # q = mean / (1 + mean) rounds to 1, is refused at construction
        for bad in (lambda: Exponential(0.0), lambda: Gamma(-1.0, 1.0),
                    lambda: Poisson(-2.0), lambda: Geometric(0.0),
                    lambda: ChiSquared(0.0), lambda: Exponential(math.inf),
                    lambda: Gamma(math.inf), lambda: Gamma(1.0, math.inf),
                    lambda: ChiSquared(math.inf), lambda: Poisson(math.inf),
                    lambda: Geometric(1e17), lambda: Geometric(math.inf),
                    lambda: PointMass(math.nan), lambda: PointMass(math.inf)):
            with pytest.raises(ValueError):
                bad()

    def test_mixture_weight_range(self):
        with pytest.raises(ValueError):
            Mixture(1.5, Exponential(1.0), Exponential(2.0))

    def test_mixture_discreteness_must_match(self):
        with pytest.raises(ValueError):
            Mixture(0.5, Poisson(1.0), Exponential(1.0))

    def test_geometric_structure(self):
        g = Geometric(2.0)
        assert g.q == pytest.approx(2.0 / 3.0)
        x, w = expectation_rule(g, 1)
        assert w @ x == pytest.approx(2.0)
