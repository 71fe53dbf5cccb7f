"""Scenario construction and the replication harness."""

import numpy as np
import pytest

from deconvtest.engines import expectation_rule
from deconvtest.measures import (
    ChiSquared, Exponential, PointMass, RngStream, Uniform01, Uniform01Ref,
)
from deconvtest.nullmodel import NullSpec
from deconvtest.simlab import (
    SCENARIO_NAMES, ScenarioSpec, build_scenario, level_power_table,
    run_replications, wilson_interval,
)
from deconvtest.simlab import _replication_matrix
from deconvtest.teststat import TestConfig


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
        rep = run_replications(build_scenario("Mod1"), 60, 1, FAST, 99)
        assert rep.rejection_rate in (0.0, 1.0)
        assert rep.reps == 1

    def test_rate_and_interval_consistent(self):
        rep = run_replications(build_scenario("Mod1"), 60, 50, FAST, 99)
        assert rep.rejection_rate == rep.rejections / rep.reps
        assert rep.ci_low <= rep.rejection_rate <= rep.ci_high
        assert rep.seconds > 0
        assert rep.errors == 0

    def test_reports_are_reproducible(self):
        a = run_replications(build_scenario("Mod2"), 50, 40, FAST, 123)
        b = run_replications(build_scenario("Mod2"), 50, 40, FAST, 123)
        assert a.rejections == b.rejections

    def test_replication_streams_do_not_depend_on_order(self):
        sc = build_scenario("Mod1")
        full = _replication_matrix(sc, 30, 10, master_seed=5)
        # rebuilding any single replication reproduces its row exactly
        row = sc.sample(RngStream(5, 7).generator(), 30)
        np.testing.assert_array_equal(full[6], row)

    def test_out_of_support_counts_errors_not_rejections(self):
        null = NullSpec(y=Uniform01(), z=PointMass(0.0), ref=Uniform01Ref())
        bad = ScenarioSpec("Custom", null, Exponential(1.0), PointMass(0.0))
        rep = run_replications(bad, 40, 10, FAST, 7)
        assert rep.errors == 10
        assert rep.rejections == 0

    def test_bad_reps(self):
        with pytest.raises(ValueError):
            run_replications(build_scenario("Mod1"), 50, 0, FAST, 1)


class TestLevelPowerTable:
    def test_empty_grid(self):
        assert level_power_table([], [50], 10, FAST, 1) == []
        assert level_power_table(["Mod1"], [], 10, FAST, 1) == []

    def test_grid_shape_and_row_order(self):
        rows = level_power_table(["Mod1", "Alt2"], [50, 80], 20, FAST, 11)
        assert [(r.scenario, r.n) for r in rows] == [
            ("Mod1", 50), ("Mod1", 80), ("Alt2", 50), ("Alt2", 80)]
        # a null row's rate is a level, an alternative's a power
        assert [r.truth_is_null for r in rows] == [True, True, False, False]

    def test_scenario_names_complete(self):
        assert set(SCENARIO_NAMES) == {"Mod1", "Mod2", "Alt1", "Alt2", "Alt3",
                                       "Alt4", "Alt5", "Alt6"}
