"""Acceptance gate: one test per exit criterion, each reporting a line.

Run with ``pytest tests/test_acceptance.py -v``; a summary section lists
one PASS/FAIL line per criterion.  The power study (criteria 6-8) uses
Monte Carlo calibration with 2000 calibration and 2000 evaluation
replications per cell, matching the stated protocol.
"""

import json
import math
import time

import numpy as np
import pytest

from deconvtest.cli import main as cli_main
from deconvtest.measures import RngStream, draw_sum
from deconvtest.nullmodel import compute_coefficients
from deconvtest.orthopoly import (
    PolynomialFamilySpec, certify_orthonormality, laguerre_table,
    meixner_scaled_table,
)
from deconvtest.simlab import build_scenario, run_replications
from deconvtest.teststat import (
    TestConfig, TestEngine, chi2_quantile, t_sequence,
)

from .conftest import ACCEPTANCE_LINES
from .oracles import (
    alt1_first_order_power, alt4_first_order_power, chi2_cdf_by_quadrature,
    exact_t_sequence,
)

STUDY_CONFIG = TestConfig()          # alpha 0.05, MC calibration, 2000 reps
STUDY_REPS = 2000
EVAL_SEED = 727001
LEVEL_BAND = (0.035, 0.065)


def report(criterion: str, passed: bool, detail: str):
    line = f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def engines():
    """One prepared engine (coefficients + calibration) per model x n."""
    out = {}
    for model in ("Mod1", "Mod2"):
        null = build_scenario(model).null
        for n in (50, 100, 500):
            out[(model, n)] = TestEngine(null, n, STUDY_CONFIG)
    return out


def _power(engines, model: str, scenario_name: str, n: int) -> float:
    rep = run_replications(engines[(model, n)], build_scenario(scenario_name),
                           STUDY_REPS, EVAL_SEED)
    assert rep.errors == 0
    return rep.reject_rate


def test_criterion_01_orthonormality_certificates():
    start = time.perf_counter()
    residuals = {}
    for kind, shape in (("laguerre", 1.0), ("shifted_legendre", 1.0),
                        ("meixner", 0.5)):
        table = certify_orthonormality(
            PolynomialFamilySpec(kind, shape, max_degree=10))
        residuals[kind] = table.gram_residual
    elapsed = time.perf_counter() - start
    worst = max(residuals.values())
    ok = worst < 1e-8 and elapsed < 5.0
    report("criterion 01 orthonormality", ok,
           f"max |Gram - I| = {worst:.2e} over 3 families (deg 10), "
           f"{elapsed:.2f}s")
    assert ok


def test_criterion_02_addition_theorems():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst_cont = 0.0
    split, table = PolynomialFamilySpec("laguerre", 1.0, 8).addition_split(8)
    for n in range(9):
        y = rng.uniform(0.0, 10.0, 100)
        z = rng.uniform(0.0, 10.0, 100)
        lhs = laguerre_table(n, 1.0, y + z)[n]
        ty, tz = table(y), table(z)
        rhs = sum(split[n, s, n - s] * ty[s] * tz[n - s]
                  for s in range(n + 1))
        worst_cont = max(worst_cont,
                         float(np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs)))))
    worst_disc = 0.0
    grid = np.arange(21, dtype=float)
    yy, zz = np.meshgrid(grid, grid)
    split, table = PolynomialFamilySpec("meixner", 0.5, 6).addition_split(6)
    ty, tz = table(yy), table(zz)
    for n in range(7):
        lhs = meixner_scaled_table(n, 1.0, 0.5, yy + zz)[n]
        rhs = sum(split[n, s, n - s] * ty[s] * tz[n - s]
                  for s in range(n + 1))
        worst_disc = max(worst_disc,
                         float(np.max(np.abs(lhs - rhs) / (1 + np.abs(lhs)))))
    elapsed = time.perf_counter() - start
    ok = worst_cont < 1e-8 and worst_disc < 1e-8 and elapsed < 5.0
    report("criterion 02 addition theorems", ok,
           f"continuous split rel err {worst_cont:.2e} (n<=8, 100 pts), "
           f"discrete {worst_disc:.2e} (n<=6, pairs<=20), {elapsed:.2f}s")
    assert ok


def test_criterion_03_engine_agreement(mod1_null, mod2_null):
    start = time.perf_counter()
    details = []
    ok = True
    for name, null in (("Mod1", mod1_null), ("Mod2", mod2_null)):
        closed = compute_coefficients(null, 8, method="closed_form")
        quad = compute_coefficients(null, 8, method="quadrature")
        d_alpha = float(np.max(np.abs(closed.alphas - quad.alphas)))
        d_sigma = float(np.max(np.abs(closed.sigma - quad.sigma)))
        ok &= d_alpha < 1e-8 and d_sigma < 1e-8

        draws = 10 ** 6
        x = draw_sum(null.y, null.z, RngStream(424243, 1).generator(), draws)
        v = null.basis.eval_normalized(x, 8)[1:] * null.ref.density(x)
        mean = v.mean(axis=1)
        se = v.std(axis=1, ddof=1) / math.sqrt(draws)
        z_alpha = float(np.max(np.abs(mean - closed.alphas) / se))
        centered = v - mean[:, None]
        prod = centered[:, None, :] * centered[None, :, :]
        cov = prod.mean(axis=2)
        cov_se = prod.std(axis=2, ddof=1) / math.sqrt(draws)
        z_sigma = float(np.max(np.abs(cov - closed.sigma) / cov_se))
        ok &= z_alpha < 4.0 and z_sigma < 4.0
        details.append(f"{name}: |closed-quad| alpha {d_alpha:.1e} sigma "
                       f"{d_sigma:.1e}, MC z-scores {z_alpha:.2f}/{z_sigma:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    report("criterion 03 engine agreement", ok,
           "; ".join(details) + f", {elapsed:.1f}s")
    assert ok


def test_criterion_04_linear_algebra():
    # the whitening the statistic runs, t_sequence, against one exact
    # rational LDL' per matrix, which gives every prefix
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    unshifted = []
    for _ in range(50):
        d = rng.integers(2, 13)
        b = rng.standard_normal((d, d))
        unshifted.append(b @ b.T)
    instances = []
    for _ in range(100):
        d = rng.integers(2, 9)
        b = rng.standard_normal((d, d))
        sigma = b @ b.T + 0.5 * np.eye(d)
        instances.append((rng.standard_normal(d), sigma))
    worst_rel = worst_gap = worst_oracle = max_cond = 0.0
    for sigma in unshifted:
        bhat = rng.standard_normal(sigma.shape[0])
        seq = t_sequence(bhat, sigma)
        exact = exact_t_sequence(bhat, sigma)
        worst_rel = max(worst_rel, float(np.max(np.abs(seq - exact) / exact)))
        worst_gap = max(worst_gap, float(np.max(-np.diff(seq))))
        max_cond = max(max_cond, float(np.linalg.cond(sigma)))
    for bhat, sigma in instances:
        seq = t_sequence(bhat, sigma)
        exact = exact_t_sequence(bhat, sigma)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(seq - exact))))
        worst_gap = max(worst_gap, float(np.max(-np.diff(seq))))
    elapsed = time.perf_counter() - start
    ok = (worst_rel < 1e-8 and worst_gap < 1e-9
          and worst_oracle < 1e-7 and elapsed < 10.0)
    report("criterion 04 linear algebra", ok,
           f"t_sequence vs exact rational LDL' rel err {worst_rel:.1e} "
           f"(50 matrices b b', cond <= {max_cond:.1e}), largest "
           f"monotonicity dip {worst_gap:.1e}, oracle gap "
           f"{worst_oracle:.1e} (100 instances), {elapsed:.2f}s")
    assert ok


def test_criterion_05_chi_squared_cdf(mod1_null, mod1_coeffs8):
    # the quantile behind the asymptotic critical value and the asymptotic
    # p-value, both against the quadrature CDF
    worst = 0.0
    for df in range(1, 11):
        for x in np.linspace(0.25, 4.0 * df, 10):
            level = chi2_cdf_by_quadrature(float(x), df)
            back = chi2_cdf_by_quadrature(chi2_quantile(level, df), df)
            worst = max(worst, abs(back - level))
    engine = TestEngine(mod1_null, 100, TestConfig(calibration="asymptotic"),
                        coeffs=mod1_coeffs8)
    worst_p = max(abs(engine.p_value(float(t))
                      - (1.0 - chi2_cdf_by_quadrature(float(t), 1)))
                  for t in np.linspace(0.25, 40.0, 100))
    q95 = engine.critical_value()
    ok = worst < 1e-6 and worst_p < 1e-6 and abs(q95 - 3.8415) < 1e-3
    report("criterion 05 chi-squared quantile and p-value", ok,
           f"max |cdf(quantile(level)) - level| = {worst:.2e} over 100 points "
           f"(df 1..10), max |p - (1 - cdf)| = {worst_p:.2e} over 100 T in "
           f"[0.25, 40], 0.95 quantile {q95:.5f}")
    assert ok


def test_criterion_06_empirical_level(engines):
    start = time.perf_counter()
    rates = {}
    ok = True
    for model in ("Mod1", "Mod2"):
        for n in (50, 100, 500):
            rate = _power(engines, model, model, n)
            rates[f"{model} n={n}"] = rate
            ok &= LEVEL_BAND[0] <= rate <= LEVEL_BAND[1]
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1200.0
    report("criterion 06 empirical level", ok,
           ", ".join(f"{k}: {v:.4f}" for k, v in rates.items())
           + f" (band {LEVEL_BAND}), {elapsed:.1f}s")
    assert ok


def test_criterion_07_selection_rule(engines):
    engine = engines[("Mod1", 500)]
    base = RngStream(EVAL_SEED, 0).child(0x5E1, 500)
    samples = engine.sample_null_batch(STUDY_REPS, base)
    _, s_n, t_stat = engine.statistic_batch(samples)
    freq_one = float(np.mean(s_n == 1))
    exceed = float(np.mean(t_stat > chi2_quantile(0.95, 1)))
    ok = freq_one >= 0.9 and 0.03 <= exceed <= 0.08
    report("criterion 07 selection rule", ok,
           f"P(S_n = 1) = {freq_one:.4f} (need >= 0.9), chi2(1) 95% "
           f"exceedance {exceed:.4f} (band [0.03, 0.08]), n=500 x 2000 reps")
    assert ok


def test_criterion_08a_alt2_weak_at_small_n(engines):
    power = _power(engines, "Mod1", "Alt2", 50)
    ok = power < 0.5
    report("criterion 08a Alt2 weak at n=50", ok,
           f"power {power:.4f} (need < 0.5)")
    assert ok


def test_criterion_08b_alt4_very_low_power(engines):
    """Alt4 is weak at small n, but only as weak as its first coefficient allows.

    Alt4 and Mod2 share the mean 2, yet the m-weighted first coefficient
    separates them (lambda_1 = 0.80 / 1.61 / 8.04 at n = 50 / 100 / 500).
    T_k is a running sum of squared innovations, so T_{S_n} >= T_1 and the
    power is at least the oracle's P(T_1 > c_n).  Below lambda_1 = 1 the
    power must stay under 0.3.
    """
    ok = True
    parts = []
    for n in (50, 100, 500):
        engine = engines[("Mod2", n)]
        oracle = alt4_first_order_power(n, engine.critical_value())
        ok &= engine.used_k_max <= engine.diagnostics.usable_k_max
        ok &= abs(abs(engine.coeffs.alphas[0])
                  - abs(oracle["alpha_null"])) < 1e-9
        ok &= abs(engine.coeffs.sigma[0, 0] - oracle["sigma_11"]) < 1e-9
        rep = run_replications(engine, build_scenario("Alt4"), STUDY_REPS,
                               EVAL_SEED)
        assert rep.errors == 0
        floor = oracle["power_t1"] - (rep.ci_high - rep.ci_low)
        ok &= rep.reject_rate >= floor
        if n == 50:
            ok &= rep.reject_rate < 0.3
        parts.append(f"n={n}: {rep.reject_rate:.4f} (lambda_1 "
                     f"{oracle['lambda_1']:.2f}, need >= {floor:.4f}"
                     + (" and < 0.3)" if n == 50 else ")"))
    report("criterion 08b Alt4 very low power", ok, ", ".join(parts))
    assert ok


def test_criterion_08c_alt1_power_monotone(engines):
    """Alt1's power grows with n and is at least its first-order power.

    T_k is a running sum of squared innovations, so T_{S_n} >= T_1 and the
    power is at least the oracle's P(T_1 > c_n), less two Wilson
    half-widths.  The oracle's null alpha_1 and sigma_11 must match the
    engine's to 1e-9.
    """
    rows = {}
    ok = True
    parts = []
    for n in (50, 100, 500):
        engine = engines[("Mod1", n)]
        oracle = alt1_first_order_power(n, engine.critical_value())
        ok &= abs(abs(engine.coeffs.alphas[0])
                  - abs(oracle["alpha_null"])) < 1e-9
        ok &= abs(engine.coeffs.sigma[0, 0] - oracle["sigma_11"]) < 1e-9
        rep = run_replications(engine, build_scenario("Alt1"), STUDY_REPS,
                               EVAL_SEED)
        assert rep.errors == 0
        floor = oracle["power_t1"] - (rep.ci_high - rep.ci_low)
        ok &= rep.reject_rate >= floor
        rows[n] = rep
        parts.append(f"n={n}: {rep.reject_rate:.4f} (lambda_1 "
                     f"{oracle['lambda_1']:.2f}, need >= {floor:.4f})")
    for a, b in ((50, 100), (100, 500)):
        half_a = (rows[a].ci_high - rows[a].ci_low) / 2
        half_b = (rows[b].ci_high - rows[b].ci_low) / 2
        slack = 2.0 * max(half_a, half_b)
        ok &= rows[b].reject_rate >= rows[a].reject_rate - slack
    report("criterion 08c Alt1 power monotone", ok,
           ", ".join(parts) + " (nondecreasing within 2 CI half-widths)")
    assert ok


def test_criterion_09_basis_scale_invariance(mod1_null):
    coeffs = compute_coefficients(mod1_null, 6, method="closed_form")
    rng = np.random.default_rng(909)
    worst = 0.0
    for r in range(20):
        data = draw_sum(mod1_null.y, mod1_null.z,
                        RngStream(9090, r).generator(), 200)
        q = mod1_null.basis.eval_normalized(data, 6)[1:]
        v = q * mod1_null.ref.density(data)
        bhat = math.sqrt(200) * (v.mean(axis=1) - coeffs.alphas)
        scale = rng.uniform(0.5, 2.0, 6)
        seq = t_sequence(bhat, coeffs.sigma)
        seq_scaled = t_sequence(scale * bhat,
                                coeffs.sigma * np.outer(scale, scale))
        worst = max(worst, float(np.max(np.abs(seq - seq_scaled))))
    ok = worst < 1e-8
    report("criterion 09 basis-scale invariance", ok,
           f"max |T_k change| = {worst:.2e} over 20 datasets")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "test": {"mc_reps": 300, "mc_seed": 13},
        "sim": {"scenarios": ["Mod1", "Alt2"], "n": [50, 100], "reps": 200,
                "master_seed": 77}}))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report("criterion 10 determinism", identical,
           f"two runs, same seed: CSV bytes "
           f"{'identical' if identical else 'differ'} "
           f"({len(out1.read_bytes())} bytes, 4 rows)")
    assert identical
