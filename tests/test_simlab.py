"""Scenario construction and the replication harness."""

import math

import numpy as np
import pytest
from scipy.special import chdtrc

from deconvtest import simlab, teststat
from deconvtest.engines import expectation_rule
from deconvtest.measures import (
    ChiSquared, Exponential, PointMass, RngStream, Uniform01, Uniform01Ref,
)
from deconvtest.nullmodel import NullSpec
from deconvtest.simlab import (
    SCENARIO_NAMES, ScenarioSpec, build_scenario, level_power_table,
    run_replications, wilson_interval,
)
from deconvtest.teststat import (
    _BLOCK_DRAWS, TestConfig, TestEngine, count_masses, sample_counts,
)

from .test_teststat import _ks_distance, _pearson_homogeneity


FAST = TestConfig(mc_reps=200, mc_seed=606)


class TestBuildScenario:
    def test_models_are_null(self):
        assert build_scenario("Mod1").truth_is_null
        assert build_scenario("Mod2").truth_is_null
        for alt in ("Alt1", "Alt2", "Alt3", "Alt4", "Alt5", "Alt6"):
            assert not build_scenario(alt).truth_is_null

    def test_alt5_is_poisson_two(self):
        # the sum of two independent Poisson(1) draws: mean 2, variance 2
        sc = build_scenario("Alt5")
        x = sc.sample(RngStream(12, 1).generator(), 40_000)
        assert x.mean() == pytest.approx(2.0, abs=0.05)
        assert x.var() == pytest.approx(2.0, abs=0.1)

    def test_alt1_matches_model_mean(self):
        # the mixture shares the null's first moment, which is what makes
        # it a close alternative
        def mean(dist):
            x, w = expectation_rule(dist, 2)
            return float(w @ x)

        for name in ("Mod1", "Alt1"):
            sc = build_scenario(name)
            assert mean(sc.y) + mean(sc.z) == pytest.approx(2.0)

    def test_custom_truth_is_null_compares_laws(self):
        null = build_scenario("Mod1").null
        same = ScenarioSpec("Custom", null, Exponential(1.0), ChiSquared(1.0))
        assert same.truth_is_null
        swapped = ScenarioSpec("Custom", null, ChiSquared(1), Exponential(1.0))
        assert not swapped.truth_is_null
        moved = ScenarioSpec("Custom", null, Exponential(1.0), ChiSquared(2))
        assert not moved.truth_is_null

    def test_mixtures_draw_their_laws_values(self):
        # Z is a point mass at 0: it draws no randomness and adds 0
        for name in ("Alt1", "Alt4"):
            sc = build_scenario(name)
            assert sc.z == PointMass(0.0)
            got = sc.sample(RngStream(8, 3).generator(), 500)
            want = sc.y.draw(RngStream(8, 3).generator(), 500)
            np.testing.assert_array_equal(got, want)

    def test_alternatives_share_model_null(self):
        mod = build_scenario("Mod1")
        alt = build_scenario("Alt2")
        assert alt.null.config() == mod.null.config()

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("Alt9")


class TestWilson:
    def test_contains_rate(self):
        lo, hi = wilson_interval(13, 200)
        assert lo < 13 / 200 < hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1

    def test_known_value(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40383, abs=1e-4)
        assert hi == pytest.approx(0.59617, abs=1e-4)

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestRunReplications:
    def test_single_replication_rate(self):
        sc = build_scenario("Mod1")
        rep = run_replications(TestEngine(sc.null, 60, FAST), sc, 1, 99)
        assert rep.reject_rate in (0.0, 1.0)
        assert rep.reps == 1

    def test_rate_and_interval_consistent(self):
        sc = build_scenario("Mod1")
        rep = run_replications(TestEngine(sc.null, 60, FAST), sc, 50, 99)
        assert rep.reject_rate == rep.rejections / rep.reps
        assert rep.ci_low <= rep.reject_rate <= rep.ci_high
        assert rep.seconds > 0
        assert rep.errors == 0

    def test_reports_are_reproducible(self):
        sc = build_scenario("Mod2")
        a = run_replications(TestEngine(sc.null, 50, FAST), sc, 40, 123)
        b = run_replications(TestEngine(sc.null, 50, FAST), sc, 40, 123)
        assert a.rejections == b.rejections

    def test_replication_streams_do_not_depend_on_order(self, monkeypatch):
        # block b of every cell draws from stream b of the master seed, so
        # the rows a grid gives a cell, in either cell order, are its
        # blocks rebuilt alone: at n = 5000, 120 replications are blocks
        # of 52, 52 and 16 rows, and at n = 60 one block; Alt4 counts at
        # n = 5000, and draws values at n = 60, as Mod1 does
        reps, seed = 120, 5
        config = TestConfig(calibration="asymptotic")  # no calibration rows
        cell, drawn = [], {}
        run = simlab.run_replications

        def tracked(engine, scenario, *args):
            cell[:] = [(scenario.name, engine.n)]
            return run(engine, scenario, *args)

        def recorded(name):
            method = getattr(TestEngine, name)

            def wrapper(engine, *rows):
                drawn[cell[0]].append(rows)
                return method(engine, *rows)
            return wrapper

        monkeypatch.setattr(simlab, "run_replications", tracked)
        for name in ("statistic_batch", "statistic_counts"):
            monkeypatch.setattr(TestEngine, name, recorded(name))
        grids = []
        for names, sizes in ((["Mod1", "Alt4"], [60, 5000]),
                             (["Alt4", "Mod1"], [5000, 60])):
            drawn = {(s, n): [] for s in names for n in sizes}
            level_power_table(names, sizes, reps, config, seed)
            grids.append(drawn)
        for (name, n), blocks in grids[0].items():
            sc = build_scenario(name)
            step = _BLOCK_DRAWS // n
            masses = count_masses(sc.y, sc.z, sc.null.ref, reps, n) \
                if name == "Alt4" else None
            assert (masses is not None) == ((name, n) == ("Alt4", 5000))
            assert len(blocks) == len(grids[1][(name, n)]) == math.ceil(
                reps / step)
            for b, lo in enumerate(range(0, reps, step)):
                rows, gen = min(step, reps - lo), RngStream(seed, b).generator()
                want = (sample_counts(*masses, rows, n, gen) if masses
                        else (sc.sample(gen, rows * n).reshape(rows, n),))
                for got in (grids[0][(name, n)][b], grids[1][(name, n)][b]):
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w)

    def test_out_of_support_counts_errors_not_rejections(self):
        null = NullSpec(y=Uniform01(), z=PointMass(0.0), ref=Uniform01Ref())
        bad = ScenarioSpec("Custom", null, Exponential(1.0), PointMass(0.0))
        rep = run_replications(TestEngine(null, 40, FAST), bad, 10, 7)
        assert rep.errors == 10
        assert rep.rejections == 0

    def test_bad_reps(self):
        sc = build_scenario("Mod1")
        with pytest.raises(ValueError, match="reps must be at least 1"):
            run_replications(TestEngine(sc.null, 50, FAST), sc, 0, 1)

    def test_continuous_law_on_count_null_draws_values(self, monkeypatch):
        # Exponential(1) is not a count law, so the Mod2 cell draws values,
        # none of them integers: every replication is an error
        def refuse(*args):
            raise AssertionError("a value scenario took the count route")
        monkeypatch.setattr(teststat, "sample_counts", refuse)
        odd = ScenarioSpec("Custom", build_scenario("Mod2").null,
                           Exponential(1.0), PointMass(0.0))
        rep = run_replications(TestEngine(odd.null, 50, FAST), odd, 30, 7)
        assert rep.errors == 30
        assert rep.rejections == 0


class TestCountedRows:
    """A count scenario's counted rows follow its law, as its draws do."""

    @pytest.mark.parametrize("name", ["Alt4", "Alt6"])
    @pytest.mark.parametrize("n, rows", [(50, 2000), (500, 400)])
    def test_counts_agree_in_law_with_point_draws(self, name, n, rows):
        # one-row blocks: each row's draws past the values that one row is
        # expected to reach go through the tail split, hundreds in all
        sc = build_scenario(name)
        masses = count_masses(sc.y, sc.z, sc.null.ref, 2000, n)
        assert masses is not None
        counts = np.zeros((rows, masses[0].size), dtype=np.int64)
        for r in range(rows):
            _, c = sample_counts(*masses, 1, n, RngStream(31, r).generator())
            counts[r, :c.shape[1]] = c[0]
        width = int(np.flatnonzero(counts.any(axis=0))[-1]) + 1
        values, counts = masses[0][:width], counts[:, :width]
        points = sc.sample(RngStream(32, 0).generator(), rows * n)
        stat, df = _pearson_homogeneity(
            counts.sum(axis=0), np.bincount(points.astype(np.intp)))
        assert chdtrc(df, stat) > 0.01
        # and so does T, by the two-sample Kolmogorov-Smirnov bound at
        # level 0.001
        engine = TestEngine(sc.null, n, TestConfig(calibration="asymptotic"))
        counted = engine.statistic_counts(values, counts)[2]
        drawn = engine.statistic_batch(points.reshape(rows, n))[2]
        assert _ks_distance(counted, drawn) < 1.95 * math.sqrt(2 / rows)


class TestLevelPowerTable:
    def test_empty_grid(self):
        assert level_power_table([], [50], 10, FAST, 1) == []
        assert level_power_table(["Mod1"], [], 10, FAST, 1) == []

    def test_one_engine_per_null_and_size(self, monkeypatch):
        # a model and its alternatives share one engine per sample size
        built = []

        def counted(engine, null, n, config, init=TestEngine.__init__):
            built.append((null.ref.kind, n))
            init(engine, null, n, config)
        monkeypatch.setattr(TestEngine, "__init__", counted)
        level_power_table(["Mod1", "Alt2", "Mod2", "Alt5", "Alt1"], [30, 40],
                          5, FAST, 3)
        assert built == [("exponential1", 30), ("exponential1", 40),
                         ("geometric", 30), ("geometric", 40)]
        assert build_scenario("Mod1") == build_scenario("Mod1")

    def test_grid_shape_and_row_order(self):
        rows = level_power_table(["Mod1", "Alt2"], [50, 80], 20, FAST, 11)
        assert [(r.scenario, r.n) for r in rows] == [
            ("Mod1", 50), ("Mod1", 80), ("Alt2", 50), ("Alt2", 80)]
        # a null row's rate is a level, an alternative's a power
        assert [r.truth_is_null for r in rows] == [True, True, False, False]

    def test_scenario_names_complete(self):
        assert set(SCENARIO_NAMES) == {"Mod1", "Mod2", "Alt1", "Alt2", "Alt3",
                                       "Alt4", "Alt5", "Alt6"}
