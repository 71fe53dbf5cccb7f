"""Command-line interface: formats, exit codes, determinism."""

import argparse
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deconvtest import simlab, teststat
from deconvtest.cli import (
    CSV_HEADER, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, ConfigError,
    DataFileError, build_distribution, build_null, build_parser,
    build_reference, config_hash, load_config, main, read_data_file,
)
from deconvtest.measures import (
    LAWS, REFERENCES, ChiSquared, Exponential, Exponential1Ref, Gamma,
    Geometric, GeometricRef, Mixture, PointMass, Poisson, Uniform01,
    Uniform01Ref,
)
from deconvtest.simlab import build_scenario
from deconvtest.teststat import TestConfig, TestEngine

FIXTURE = Path(__file__).parent / "data" / "mod1_h0_n500.txt"

# keep CLI tests quick: small calibration, asymptotic where possible
FAST_TEST = ["--calibration", "mc", "--reps", "300"]


def run_cli(args):
    return main([str(a) for a in args])


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def _loads(text):
    """``json.loads`` that refuses NaN and Infinity, as strict parsers do."""
    return json.loads(text, parse_constant=_refuse_constant)


# JSON configuration documents: the schema's sections, kinds and keys plus
# noise, valued by scalars, lists and nested objects
_WORDS = sorted(set(LAWS) | set(REFERENCES) | {
    "auto", "mc", "asymptotic", "closed_form", "quadrature", "independent",
    "zzz"})
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(),
    st.sampled_from([0.5, 2.5, 100, 1e300, 2 ** 70]), st.sampled_from(_WORDS))
_JSON = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "mean", "p", "zzz"]), inner, max_size=3),
    max_leaves=6)


def _kind_docs(table, depth=0):
    """Documents of a law or reference kind, each field optional."""
    def of_kind(kind):
        optional = {f.name: (_kind_docs(LAWS, depth + 1)
                             if f.type == "Distribution" and depth < 2
                             else _SCALARS)
                    for f in fields(table[kind])}
        return st.fixed_dictionaries({"kind": st.just(kind)},
                                     optional=optional)
    return st.sampled_from(sorted(table)).flatmap(of_kind) | _JSON


_CONFIG_DOCS = st.fixed_dictionaries({}, optional={
    "null": st.fixed_dictionaries({}, optional={
        "y": _kind_docs(LAWS), "z": _kind_docs(LAWS),
        "reference": _kind_docs(REFERENCES),
        "dependence": st.sampled_from(["independent", "joint_sampler"]),
        "basis": _JSON,
    }) | _JSON,
    "test": st.fixed_dictionaries(
        {}, optional={f.name: _SCALARS for f in fields(TestConfig)}) | _JSON,
    "sim": _JSON,
}) | st.dictionaries(st.sampled_from(["null", "test", "sim", "zzz"]), _JSON,
                     max_size=3)


class TestDataFile:
    def test_fixture_parses(self):
        data = read_data_file(str(FIXTURE))
        assert data.size == 500
        assert np.all(data >= 0)

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# header\n\n1.5\n 2.5 # trailing\n\n")
        np.testing.assert_allclose(read_data_file(str(f)), [1.5, 2.5])

    def test_bad_token_cites_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1.0\n2.0\nabc\n4.0\n")
        with pytest.raises(Exception, match=":3:"):
            read_data_file(str(f))

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_bytes(b"1.0\n\xff\n2.0\n")
        with pytest.raises(DataFileError, match=f"cannot read data file {f}"):
            read_data_file(str(f))
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"test": {}}\xff')
        with pytest.raises(ConfigError, match=f"cannot read config {cfg}"):
            load_config(str(cfg))


class TestCmdTest:
    def test_fixture_does_not_reject(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run_cli(["test", FIXTURE, "--out", out, *FAST_TEST])
        assert code == EXIT_OK
        doc = _loads(out.read_text())
        assert doc["result"]["reject"] is False
        assert doc["config"]["null"]["y"]["kind"] == "exponential"
        # each fact once: the level and calibration mode are the config's
        assert doc["schema"] == "deconvtest-result-v3"
        assert set(doc) == {"schema", "result", "config", "config_hash"}
        assert not {"alpha", "calibration"} & set(doc["result"])

    def test_exit_zero_even_when_rejecting(self, tmp_path):
        f = tmp_path / "far.txt"
        f.write_text("\n".join(["25.0"] * 200) + "\n")
        out = tmp_path / "res.json"
        code = run_cli(["test", f, "--calibration", "asymptotic", "--out", out])
        assert code == EXIT_OK
        assert _loads(out.read_text())["result"]["reject"] is True

    def test_parse_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("1.0\n2.0\nabc\n")
        assert run_cli(["test", f]) == EXIT_DATA
        assert ":3:" in capsys.readouterr().err

    def test_fewer_than_two_observations_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "one.txt"
        for text, found in (("1.0\n", "1 observation"),
                            ("# no data\n\n", "0 observation")):
            f.write_text(text)
            assert run_cli(["test", f, "--calibration", "asymptotic"]) \
                == EXIT_DATA
            err = capsys.readouterr().err
            assert str(f) in err and found in err

    def test_negative_data_is_domain_error(self, tmp_path, capsys):
        f = tmp_path / "neg.txt"
        f.write_text("1.0\n-2.0\n")
        assert run_cli(["test", f, "--calibration", "asymptotic"]) == EXIT_DATA
        capsys.readouterr()
        f.write_text("1.0\n2.0\n0.5\ninf\n")
        assert run_cli(["test", f, "--calibration", "asymptotic"]) == EXIT_DATA
        assert "[3]" in capsys.readouterr().err

    def test_discrete_reference_requires_integers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "poisson", "mean": 1},
                     "z": {"kind": "geometric", "mean": 1},
                     "reference": {"kind": "geometric", "p": 0.5}}}))
        f = tmp_path / "d.txt"
        f.write_text("1\n2\n2.5\n")
        assert run_cli(["test", f, "--config", cfg]) == EXIT_DATA

    def test_null_draws_outside_support_are_data_error(self, tmp_path, capsys):
        # a tenth of Y has mean 1e308, so some null draws overflow to inf;
        # the calibration must refuse them, not leave NaN critical values,
        # and the overflow is no warning on stderr
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "mixture", "weight": 0.9,
                           "a": {"kind": "exponential", "mean": 1},
                           "b": {"kind": "exponential", "mean": 1e308}}},
            "test": {"mc_reps": 200}}))
        f = tmp_path / "d.txt"
        f.write_text("0.5\n1\n2\n3\n")
        out = tmp_path / "res.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["test", f, "--config", cfg, "--kmax", "3",
                            "--out", out])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert err.count("data error:") == len(err.splitlines()) == 1
        assert "outside the reference support" in err
        assert not out.exists()

    def test_alpha_lowers_critical_value(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = ["test", FIXTURE, "--calibration", "asymptotic"]
        assert run_cli([*base, "--alpha", "0.05", "--out", out_a]) == EXIT_OK
        assert run_cli([*base, "--alpha", "0.5", "--out", out_b]) == EXIT_OK
        crit_a = _loads(out_a.read_text())["result"]["critical_value"]
        crit_b = _loads(out_b.read_text())["result"]["critical_value"]
        assert crit_b < crit_a

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"null": {"why": 1}}))
        assert run_cli(["test", FIXTURE, "--config", cfg]) == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        assert run_cli(["test", FIXTURE, "--calibration", "asymptotic",
                        "--out", tmp_path]) == EXIT_USAGE
        assert f"cannot write {tmp_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["test", FIXTURE, "--reps", "100"],
        ["simulate", "--scenarios", "Alt1,Alt3", "--n", "500"],
    ])
    def test_calibration_that_cannot_reject_exits_2(self, capsys, command):
        # p-values of 100 (or 2000) reps are at least 1/101 (1/2001) > alpha
        assert run_cli([*command, "--alpha", "0.0001"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "alpha 0.0001 with mc_reps" in err
        assert "use mc_reps >= 9999" in err

    def test_bad_kmax_value_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli(["test", FIXTURE, "--kmax", "2.5"])
        assert exit_.value.code == EXIT_USAGE
        assert "argument --kmax" in capsys.readouterr().err


class TestCmdCoeffs:
    def test_document_round_trip(self, tmp_path):
        coef = tmp_path / "c.json"
        assert run_cli(["coeffs", "--kmax", "6", "--out", coef]) == EXIT_OK
        doc = _loads(coef.read_text())
        sigma = np.asarray(doc["sigma"])
        assert sigma.shape == (6, 6)
        np.testing.assert_allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma)[0] > -1e-10
        assert doc["config_hash"]
        assert doc["schema"] == "deconvtest-coeffs-v4"
        assert {"k", "alphas", "sigma", "method"} <= doc.keys()
        # the last entry of lambda_trace is the smallest eigenvalue
        assert "min_eigen" not in doc and "notes" not in doc
        assert len(doc["lambda_trace"]) == 6
        assert doc["usable_k_max"] == 6

    @pytest.mark.parametrize("config, usable", [
        (None, 10), (FIXTURE.with_name("mod2_h0_n500.json"), 9)],
        ids=["Mod1", "Mod2"])
    def test_usable_order_is_the_tests(self, tmp_path, config, usable):
        # coeffs reports the order that a test at the same order whitens
        coef = tmp_path / "c.json"
        argv = ["coeffs", "--kmax", "13", "--out", coef]
        assert run_cli(argv + (["--config", config] if config else [])) == 0
        assert _loads(coef.read_text())["usable_k_max"] == usable
        null = build_null(load_config(config).get("null", {}))
        data = read_data_file(config.with_suffix(".txt") if config else FIXTURE)
        result = teststat.run_test(data, null, TestConfig(
            k_max=13, calibration="asymptotic"))
        assert result.used_k_max == usable

    def test_cancelled_covariance_exits_4_like_test(self, tmp_path, capsys):
        # the point-mass null that every test refuses as cancellation:
        # coeffs refuses it with the same message
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "point_mass", "value": 40},
                     "z": {"kind": "point_mass", "value": 0}}}))
        f = tmp_path / "d.txt"
        f.write_text("40.000000001\n" * 50)
        errors = []
        for argv in (["coeffs", "--kmax", "13"],
                     ["test", f, "--calibration", "asymptotic"]):
            assert run_cli(argv + ["--config", cfg]) == EXIT_NUMERIC
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
        assert errors[0] == errors[1]
        assert "order 1 is cancellation" in errors[0]

    def test_order_zero_rejected(self, capsys):
        assert run_cli(["coeffs", "--kmax", "0"]) == EXIT_USAGE

    def test_order_past_the_basis_rejected(self, tmp_path, capsys):
        # the order is checked against the family's degree before the
        # basis is certified, so a family that fails certification (exit 4)
        # still reports the order
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"null": {
            "y": {"kind": "poisson", "mean": 1.0},
            "z": {"kind": "geometric", "mean": 1.0},
            "reference": {"kind": "geometric", "p": 1e-20}}}))
        assert run_cli(["coeffs", "--kmax", "40", "--config", cfg]) \
            == EXIT_USAGE
        assert "order 40 exceeds the basis degree 16" \
            in capsys.readouterr().err

    def test_order_required(self, capsys):
        assert run_cli(["coeffs"]) == EXIT_USAGE

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "c.json"
        assert run_cli(["coeffs", "--kmax", "4", "--out", out]) == EXIT_USAGE
        assert f"cannot write {out}" in capsys.readouterr().err


class TestCmdSimulate:
    def _config(self, tmp_path):
        # not sim.json, the twin of the sim.csv these tests write
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "test": {"mc_reps": 150, "mc_seed": 31},
            "sim": {"scenarios": ["Mod1"], "n": [50], "reps": 40,
                    "master_seed": 8}}))
        return cfg

    def test_csv_header_and_shape(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "sim.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("Mod1,50,40,")

    def test_csv_to_stdout_without_out(self, tmp_path, monkeypatch, capsys):
        cfg = self._config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert run_cli(["simulate", "--config", cfg]) == EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2 and lines[1].startswith("Mod1,50,40,")

    def test_json_twin_matches(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--config", cfg, "--out", out])
        twin = _loads((tmp_path / "sim.json").read_text())
        assert len(twin["rows"]) == 1
        row = twin["rows"][0]
        cells = out.read_text().splitlines()[1].split(",")
        assert row["scenario"] == cells[0]
        assert row["reject_rate"] == float(cells[3])
        # the row carries its cell's measured time; the CSV keeps 0.000
        assert row["seconds"] > 0 and cells[6] == "0.000"
        assert "timing_seconds" not in twin

    def test_json_twin_says_level_or_power(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "test": {"mc_reps": 150, "mc_seed": 31},
            "sim": {"scenarios": ["Mod1", "Alt2"], "n": [50], "reps": 20,
                    "master_seed": 8}}))
        out = tmp_path / "sim.csv"
        run_cli(["simulate", "--config", cfg, "--out", out])
        twin = _loads((tmp_path / "sim.json").read_text())
        assert [(r["scenario"], r["truth_is_null"]) for r in twin["rows"]] == [
            ("Mod1", True), ("Alt2", False)]
        # the CSV keeps its columns
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_byte_identical_for_equal_seeds(self, tmp_path):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_cli(["simulate", "--config", cfg, "--out", out1])
        run_cli(["simulate", "--config", cfg, "--out", out2])
        assert out1.read_bytes() == out2.read_bytes()

    def test_scenario_flag_overrides(self, tmp_path):
        cfg = self._config(tmp_path)
        out = tmp_path / "sim.csv"
        code = run_cli(["simulate", "--config", cfg, "--out", out,
                        "--scenarios", "Mod1", "--n", "50,60"])
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 3

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        assert run_cli(["simulate", "--config", cfg, "--scenarios", "Alt9",
                        "--out", tmp_path / "x.csv"]) == EXIT_USAGE

    @pytest.mark.parametrize("flag, value", [("--reps", "0"), ("--n", "1")])
    def test_out_of_range_flag_rejected(self, tmp_path, capsys, flag, value):
        cfg = self._config(tmp_path)
        assert run_cli(["simulate", "--config", cfg, flag, value,
                        "--out", tmp_path / "x.csv"]) == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()

    def test_empty_scenario_list_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"scenarios": []}}))
        for args in (["--scenarios", ","], ["--config", cfg]):
            assert run_cli(["simulate", *args]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert "sim.scenarios" in captured.err and not captured.out

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "sim.csv"
        assert run_cli(["simulate", "--config", self._config(tmp_path),
                        "--out", out]) == EXIT_USAGE
        assert f"cannot write {out}" in capsys.readouterr().err

    _QUICK = ["simulate", "--scenarios", "Mod2", "--n", "50", "--reps", "5",
              "--calibration", "asymptotic"]

    def test_out_that_is_its_own_twin_exits_2(self, tmp_path, monkeypatch,
                                              capsys):
        # study.json would be overwritten by its twin: refused before the
        # study runs, and nothing is written
        def refuse(*args):
            raise AssertionError("the study ran")
        monkeypatch.setattr("deconvtest.cli.level_power_table", refuse)
        out = tmp_path / "study.json"
        assert run_cli(self._QUICK + ["--out", out]) == EXIT_USAGE
        assert f"--out {out}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_twin_leaves_no_csv(self, tmp_path, capsys):
        (tmp_path / "x.json").mkdir()
        out = tmp_path / "x.csv"
        assert run_cli(self._QUICK + ["--out", out]) == EXIT_USAGE
        assert f"cannot write {tmp_path / 'x.json'}" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_n_value_names_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli(["simulate", "--n", "50,x"])
        assert exit_.value.code == EXIT_USAGE
        assert "argument --n" in capsys.readouterr().err

    def test_single_scenario_keeps_default_sizes(self, tmp_path):
        # no sim.n in the config: the default grid is {50, 100, 500}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test": {"mc_reps": 150, "mc_seed": 2},
                                   "sim": {"reps": 10, "master_seed": 3}}))
        out = tmp_path / "one.csv"
        assert run_cli(["simulate", "--config", cfg, "--scenarios", "Mod1",
                        "--out", out]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert [ln.split(",")[1] for ln in lines[1:]] == ["50", "100", "500"]

    def test_default_grid_is_24_rows(self, tmp_path):
        # all 8 scenarios x 3 sample sizes; tiny replication counts keep
        # the shape check quick
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test": {"mc_reps": 150, "mc_seed": 1},
                                   "sim": {"reps": 10, "master_seed": 4}}))
        out = tmp_path / "grid.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 25


class TestFlags:
    """Every flag of a subcommand acts on what that subcommand emits."""

    # a value per flag, unlike what the base command line gives
    VALUES = {
        "test": {"--alpha": "0.2", "--kmax": "3", "--calibration": "mc",
                 "--reps": "150", "--seed": "5"},
        "coeffs": {"--kmax": "5"},
        "simulate": {"--alpha": "0.2", "--kmax": "3", "--calibration": "mc",
                     "--reps": "30", "--seed": "5", "--scenarios": "Mod2",
                     "--n": "60"},
    }

    @staticmethod
    def _subparsers():
        return next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    @classmethod
    def _flags(cls, command):
        actions = cls._subparsers()[command]._actions
        return [a.option_strings[0] for a in actions
                if a.option_strings and a.option_strings[0] not in (
                    "-h", "--config", "--out")]

    def test_readme_flag_table_matches_parser(self):
        # each row of the README's table lists exactly the subcommand's flags
        readme = Path(__file__).parents[1] / "README.md"
        rows = {}
        for line in readme.read_text().splitlines():
            cells = line.split("|")
            if len(cells) == 4 and cells[1].strip().startswith("`"):
                command = cells[1].strip().strip("`").split()[0]
                rows[command] = set(re.findall(r"`(--[a-z-]+)`", cells[2]))
        subparsers = self._subparsers()
        assert set(rows) == set(subparsers)
        for command, parser in subparsers.items():
            options = {flag for a in parser._actions
                       for flag in a.option_strings
                       if "-h" not in a.option_strings}
            assert rows[command] == options, command

    @staticmethod
    def _emitted(tmp_path, argv):
        out = tmp_path / "out.csv"
        assert run_cli([*argv, "--out", out]) == EXIT_OK
        if argv[0] != "simulate":
            return out.read_text()
        twin = _loads(out.with_suffix(".json").read_text())
        return out.read_text(), twin["rows"], twin["config"]

    @pytest.mark.parametrize("command", ["test", "coeffs", "simulate"])
    def test_no_flag_is_a_no_op(self, tmp_path, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "test": {"calibration": "asymptotic", "k_max": 4, "mc_reps": 100},
            "sim": {"scenarios": ["Mod1"], "n": [50], "reps": 20,
                    "master_seed": 1}}))
        base = {"test": ["test", FIXTURE, "--config", cfg],
                "coeffs": ["coeffs", "--kmax", "4"],
                "simulate": ["simulate", "--config", cfg]}[command]
        before = self._emitted(tmp_path, base)
        flags = self._flags(command)
        assert sorted(flags) == sorted(self.VALUES[command])
        for flag in flags:
            value = self.VALUES[command][flag]
            assert self._emitted(tmp_path, [*base, flag, value]) != before, \
                flag

    @pytest.mark.parametrize("flag, value", [
        ("--seed", "3"), ("--alpha", "0.9"), ("--calibration", "mc"),
        ("--reps", "-7")])
    def test_coeffs_refuses_flags_without_effect(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exit_:
            run_cli(["coeffs", "--kmax", "4", flag, value])
        assert exit_.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestNumericalFailure:
    @staticmethod
    def _run(tmp_path, test_section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "gamma", "shape": 0.18, "scale": 1.0},
                     "z": {"kind": "exponential", "mean": 1.0}},
            "test": test_section}))
        f = tmp_path / "d.txt"
        f.write_text("\n".join(str(v) for v in np.linspace(0.1, 5, 60)))
        return run_cli(["test", f, "--config", cfg])

    def test_small_gamma_shape_converges(self, tmp_path):
        # the Gauss-Laguerre rule of the axis carries x**(shape - 1)
        assert self._run(tmp_path, {"calibration": "asymptotic"}) == EXIT_OK

    def test_unmet_tolerance_key_exits_2(self, tmp_path, capsys):
        # a tolerance below rounding once exhausted the refinement; with one
        # exact pass there is none, and the key itself is refused
        assert self._run(tmp_path, {"calibration": "asymptotic",
                                    "coeff_tol": 1e-30}) == EXIT_USAGE
        assert "unknown key(s) ['coeff_tol'] in test" in capsys.readouterr().err

    def test_large_gamma_shape_runs(self, tmp_path, capsys):
        # Gamma(172) overflows a float, but the Gauss-Laguerre rule of the
        # probability law never forms it; the Mod1 sample, of mean 2, is
        # far from a null of mean 345
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"null": {"y": {"kind": "chi_squared", "df": 344}}}))
        assert run_cli(["test", FIXTURE, "--config", cfg,
                        "--calibration", "asymptotic"]) == EXIT_OK
        result = _loads(capsys.readouterr().out)["result"]
        assert np.isfinite(result["t_stat"]) and result["reject"] is True

    def test_degenerate_covariance_exits_4(self, tmp_path, capsys):
        # X = 1 + 2 is constant under this null, so Sigma = 0 and no
        # order can be whitened
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "point_mass", "value": 1},
                     "z": {"kind": "point_mass", "value": 2}}}))
        f = tmp_path / "d.txt"
        f.write_text("3\n" * 20)
        code = run_cli(["test", f, "--config", cfg, "--calibration",
                        "asymptotic"])
        assert code == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("calibration", ["mc", "asymptotic"])
    def test_cancelled_covariance_exits_4(self, tmp_path, capsys, calibration):
        # X = 40 + 0 is constant, and the closed form's sigma_11 is what
        # cancellation leaves of its second moment, so order 1 is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "null": {"y": {"kind": "point_mass", "value": 40},
                     "z": {"kind": "point_mass", "value": 0}}}))
        f = tmp_path / "d.txt"
        f.write_text("40.000000001\n" * 50)
        code = run_cli(["test", f, "--config", cfg, "--calibration",
                        calibration])
        assert code == EXIT_NUMERIC
        assert "order 1 is cancellation" in capsys.readouterr().err


class TestConfigHelpers:
    def test_distribution_builder_rejects_unknown_keys(self):
        with pytest.raises(Exception, match="unknown key"):
            build_distribution({"kind": "exponential", "rate": 2.0})

    def test_distribution_builder_nested_mixture(self):
        mix = build_distribution({
            "kind": "mixture", "weight": 0.5,
            "a": {"kind": "poisson", "mean": 2},
            "b": {"kind": "geometric", "mean": 2}})
        assert mix == Mixture(0.5, Poisson(2.0), Geometric(2.0))

    def test_documents_round_trip(self):
        laws = [
            Exponential(2.0), Gamma(0.5, 1.5), ChiSquared(3.0), Poisson(1.5),
            Geometric(2.0), Uniform01(), PointMass(1.0),
            Mixture(0.25, Exponential(1.0), Gamma(2.0, 0.5)),
            Mixture(0.5, Mixture(0.3, Poisson(1.0), PointMass(2.0)),
                    Geometric(1.0)),
        ]
        assert {d.kind for d in laws} == set(LAWS)
        for d in laws:
            assert build_distribution(_loads(json.dumps(d.config()))) == d
        refs = [Exponential1Ref(), Uniform01Ref(), GeometricRef(0.3)]
        assert {r.kind for r in refs} == set(REFERENCES)
        for r in refs:
            assert build_reference(_loads(json.dumps(r.config()))) == r

    def test_default_null_hash_is_pinned(self):
        # every document is stamped with this hash; a change in the document
        # form of a law would change it for documents written before it
        assert config_hash(build_null({}).config()) == (
            "e313149d105d5aa8d3c25811f83964023a153ebd7f97b6a082a14f9aa290207a")

    def test_library_null_hashes_like_the_cli_null(self):
        # numbers are written as floats, as the reader reads them
        library = build_scenario("Mod1").null.config()
        assert library["z"] == {"kind": "chi_squared", "df": 1.0}
        assert config_hash(library) == config_hash(build_null({}).config())

    def test_config_hash_is_stable_and_sensitive(self):
        a = {"y": {"kind": "exponential", "mean": 1.0}}
        assert config_hash(a) == config_hash(_loads(json.dumps(a)))
        assert config_hash(a) != config_hash(
            {"y": {"kind": "exponential", "mean": 2.0}})


class TestConfigBoundary:
    @pytest.mark.parametrize("doc, where", [
        ({"null": 3}, "null must be an object"),
        ({"test": 3}, "test must be an object"),
        ({"sim": 3}, "sim must be an object"),
        ({"null": {"reference": 3}}, "null.reference must be an object"),
        ({"null": {"y": {"kind": ["exponential"]}}}, "unknown distribution"),
        ({"test": {"k_max": 2.5}}, "test.k_max must be an integer"),
        ({"test": {"mc_reps": 300.5}}, "test.mc_reps must be an integer"),
        ({"test": {"mc_seed": "7"}}, "test.mc_seed must be an integer"),
        ({"test": {"k_max": True}}, "test.k_max must be an integer"),
        ({"test": {"alpha": True}}, "test.alpha must be a finite number"),
        ({"null": {"y": {"kind": "exponential", "mean": True}}},
         "null.y.mean must be a finite number"),
        ({"null": {"z": {"kind": "poisson", "mean": "1"}}},
         "null.z.mean must be a finite number"),
        ({"null": {"y": {"kind": "gamma", "shape": 10 ** 400}}},
         "null.y.shape must be a finite number"),
    ])
    def test_malformed_sections_exit_2(self, tmp_path, capsys, doc, where):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(["test", FIXTURE, "--config", cfg,
                        "--calibration", "asymptotic"]) == EXIT_USAGE
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [0, -1, 0.5])
    def test_coeff_tol_key_exits_2(self, tmp_path, capsys, tol):
        # the coefficient rules are exact in one pass, so there is no
        # refinement tolerance to set; the convolution split is fixed at
        # 1/2, the condition cap at 1e12, and the coefficient method is
        # the null's default: an old document naming any of them is refused
        cfg = tmp_path / "cfg.json"
        for key in ("coeff_tol", "u_split", "eigen_condition_cap",
                    "coeff_method"):
            cfg.write_text(json.dumps({"test": {key: tol}}))
            assert run_cli(["test", FIXTURE, "--config", cfg,
                            "--calibration", "asymptotic"]) == EXIT_USAGE
            assert (f"unknown key(s) ['{key}'] in test"
                    in capsys.readouterr().err)

    def test_unallocatable_calibration_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        # mc_reps = 10**9 at n = 500: the calibration allocates its 7.5 GiB
        # of T values before it draws the first block, and here that
        # allocation raises without asking the machine for it
        full = np.full

        def refuse_reps(shape, *args, **kwargs):
            if isinstance(shape, int) and shape >= 10 ** 9:
                raise MemoryError(f"Unable to allocate a ({shape},) array")
            return full(shape, *args, **kwargs)

        def no_block(*args):
            raise AssertionError("a block was drawn before the T values "
                                 "were allocated")
        monkeypatch.setattr(np, "full", refuse_reps)
        monkeypatch.setattr(TestEngine, "sample_null_batch", no_block)
        monkeypatch.setattr(teststat, "sample_counts", no_block)
        counts = tmp_path / "counts.txt"
        counts.write_text("\n".join(["0", "1", "3", "2"] * 125))
        geometric = {"y": {"kind": "poisson", "mean": 1},
                     "z": {"kind": "geometric", "mean": 1},
                     "reference": {"kind": "geometric", "p": 0.5}}
        for data, null in ((FIXTURE, {}), (counts, geometric)):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"null": null,
                                       "test": {"mc_reps": 10 ** 9}}))
            assert run_cli(["test", data, "--config", cfg]) == EXIT_USAGE
            assert "out of memory" in capsys.readouterr().err

    def test_unallocatable_study_exits_2(self, capsys, monkeypatch):
        # --reps 10**9: a study cell allocates its T values before it draws
        # the first block, and here that allocation raises without asking
        # the machine for it; the grid's engines calibrate as they are
        # built, before its first cell, so they are built here before the
        # patches
        for name in ("Mod1", "Mod2"):
            teststat.prepared_engine(build_scenario(name).null, 500,
                                     TestConfig())
        full = np.full

        def refuse_reps(shape, *args, **kwargs):
            if isinstance(shape, int) and shape >= 10 ** 9:
                raise MemoryError(f"Unable to allocate a ({shape},) array")
            return full(shape, *args, **kwargs)

        def no_block(*args):
            raise AssertionError("a block was drawn before the T values "
                                 "were allocated")
        monkeypatch.setattr(np, "full", refuse_reps)
        monkeypatch.setattr(simlab.ScenarioSpec, "sample", no_block)
        monkeypatch.setattr(teststat, "sample_counts", no_block)
        for name in ("Mod1", "Mod2"):
            assert run_cli(["simulate", "--scenarios", name, "--n", "500",
                            "--reps", str(10 ** 9)]) == EXIT_USAGE
            assert "out of memory" in capsys.readouterr().err

    def test_test_echo_reads_back(self, tmp_path):
        # the config of a result, fed back, gives the same result bytes
        counts = tmp_path / "counts.txt"
        counts.write_text("\n".join(["0", "1", "3", "2"] * 25))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"null": {
            "y": {"kind": "poisson", "mean": 1},
            "z": {"kind": "geometric", "mean": 1},
            "reference": {"kind": "geometric", "p": 0.4}}}))
        first, again = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(["test", counts, "--config", cfg, "--kmax", "3",
                        *FAST_TEST, "--out", first]) == EXIT_OK
        echo = _loads(first.read_text())["config"]
        assert echo["null"]["basis"] == {"kind": "meixner", "shape": 0.4}
        cfg.write_text(json.dumps({"null": echo["null"],
                                   "test": echo["test"]}))
        assert run_cli(["test", counts, "--config", cfg,
                        "--out", again]) == EXIT_OK
        assert again.read_bytes() == first.read_bytes()

    def test_coeffs_null_reads_back(self, tmp_path):
        first, again = tmp_path / "c1.json", tmp_path / "c2.json"
        assert run_cli(["coeffs", "--kmax", "5", "--out", first]) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        null = _loads(first.read_text())["null"]
        cfg.write_text(json.dumps({"null": null}))
        assert run_cli(["coeffs", "--kmax", "5", "--config", cfg,
                        "--out", again]) == EXIT_OK
        assert again.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("basis", [
        {"kind": "laguerre", "shape": 2.0},
        {"kind": "meixner", "shape": 1.0},
        {"kind": "laguerre"},
        "laguerre",
    ])
    def test_mismatched_basis_exits_2(self, tmp_path, capsys, basis):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"null": {"basis": basis}}))
        assert run_cli(["test", FIXTURE, "--config", cfg,
                        "--calibration", "asymptotic"]) == EXIT_USAGE
        assert "null.basis" in capsys.readouterr().err

    def test_integral_floats_are_integers(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"test": {"k_max": 4.0, "mc_reps": 100.0}}))
        out = tmp_path / "r.json"
        assert run_cli(["test", FIXTURE, "--config", cfg, "--out", out]) == EXIT_OK
        echo = _loads(out.read_text())["config"]["test"]
        assert (echo["k_max"], echo["mc_reps"]) == (4, 100)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_CONFIG_DOCS, command=st.sampled_from(["test", "coeffs"]))
    def test_every_document_gets_a_documented_exit(self, tmp_path, doc,
                                                   command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # 0/1 counts lie in every reference's support
        data = tmp_path / "d.txt"
        data.write_text("\n".join(["0", "1", "1", "0", "1"] * 6))
        args = (["test", data] if command == "test"
                else ["coeffs", "--kmax", "4"])
        assert run_cli([*args, "--config", cfg]) in (
            EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC)


def _bytes_argv(head, data, tail=()):
    """argv of ``head``, a file of the bytes ``data`` and ``tail``."""
    def argv(tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(data)
        return [*head, path, *tail]
    return argv


def _config_argv(doc, command="test"):
    """argv that runs ``command`` on the configuration document ``doc``."""
    def argv(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        head = ["test", FIXTURE] if command == "test" else [command]
        if command == "coeffs":  # which takes an order, not a calibration
            return [*head, "--config", cfg, "--kmax", "3"]
        return [*head, "--config", cfg, "--calibration", "asymptotic"]
    return argv


# the Meixner table of geometric(1e-20) overflows, so its Gram matrix is
# not finite
_OVERFLOWING_BASIS = {"null": {"y": {"kind": "poisson"},
                               "z": {"kind": "geometric"},
                               "reference": {"kind": "geometric", "p": 1e-20}}}


@pytest.mark.parametrize("argv, code, named", [
    (_config_argv({"null": {"y": {"kind": "gamma"}}}), EXIT_USAGE,
     "missing key 'shape' in null.y"),
    (_config_argv({"null": {"y": {"kind": "gamma", "shape": -1}}}),
     EXIT_USAGE, "null.y: gamma shape and scale must be positive"),
    (lambda tmp_path: ["test", FIXTURE, "--config", tmp_path], EXIT_USAGE,
     "cannot read config"),
    (_config_argv("{not json"), EXIT_USAGE, "is not valid JSON"),
    (_config_argv({"test": {"alpha": 1e-17}}), EXIT_USAGE,
     "alpha 1e-17 is below the asymptotic calibration"),
    (_config_argv({"sim": {"n": "50"}}, "simulate"), EXIT_USAGE,
     "sim.n must be a list of sample sizes"),
    # studies run the built-in scenarios, so a null section is not read
    (_config_argv({"null": {"y": {"kind": "poisson"}},
                   "sim": {"scenarios": ["Mod1"], "n": [50], "reps": 5}},
                  "simulate"), EXIT_USAGE,
     "simulate does not read the config's null section"),
    (_config_argv({"null": {"reference": {"kind": "geometric", "p": 1.5}}}),
     EXIT_USAGE, "null.reference: geometric reference parameter"),
    (_config_argv({"null": {"reference": {"kind": "uniform01"}}}),
     EXIT_USAGE, "not contained in the reference support [0.0, 1.0]"),
    (lambda tmp_path: ["test", tmp_path, "--calibration", "asymptotic"],
     EXIT_DATA, "cannot read data file"),
    (_config_argv({"null": {"y": {"kind": "geometric", "mean": 1e17}}}),
     EXIT_USAGE, "null.y: geometric mean must be positive, with q"),
    (_config_argv(_OVERFLOWING_BASIS), EXIT_NUMERIC,
     "meixner basis failed orthonormality certification: squared norm of "
     "degree 8 is inf"),
    (_config_argv(_OVERFLOWING_BASIS, "coeffs"), EXIT_NUMERIC,
     "meixner basis failed orthonormality certification: squared norm of "
     "degree 8 is inf"),
    # a 0xff byte is no UTF-8: the reader names the file it cannot read
    (_bytes_argv(["test"], b"1.0\n\xff\n2.0\n"), EXIT_DATA,
     "cannot read data file"),
    (_bytes_argv(["test", FIXTURE, "--config"], b'{"test": {}}\xff'),
     EXIT_USAGE, "cannot read config"),
    (_bytes_argv(["coeffs", "--kmax", "3", "--config"], b"\xff"), EXIT_USAGE,
     "cannot read config"),
], ids=["gamma-without-shape", "negative-gamma-shape", "config-directory",
        "config-not-json", "asymptotic-alpha-1e-17", "sim-n-string",
        "simulate-null-section",
        "geometric-p-above-1", "exponential-on-uniform01", "data-directory",
        "geometric-mean-1e17", "overflowing-basis-test",
        "overflowing-basis-coeffs", "data-not-utf8", "config-not-utf8",
        "coeffs-config-not-utf8"])
def test_refusals_exit_with_their_code_and_name_the_cause(tmp_path, capsys,
                                                         argv, code, named):
    args = argv(tmp_path)
    capsys.readouterr()
    assert run_cli(args) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert named in err


@pytest.mark.parametrize("text, argv", [
    (FIXTURE.read_bytes(),
     lambda path: ["test", path, "--calibration", "asymptotic"]),
    (b'{"test": {"alpha": 0.1, "calibration": "asymptotic"}}',
     lambda path: ["test", FIXTURE, "--config", path]),
], ids=["data", "config"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, text, argv):
    # Notepad and Excel often start a UTF-8 file with the mark EF BB BF
    outputs = []
    for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
        path = tmp_path / name
        path.write_bytes(data)
        assert run_cli(argv(path)) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


# each case: argv with the placeholders DATA and CONFIG, the --out path
# and the input path it would overwrite, both relative to a scratch folder
_OVERWRITES = {
    "test-out-is-data": (["test", "DATA", "--config", "CONFIG"], "d.txt",
                         "d.txt"),
    "test-out-is-config": (["test", "DATA", "--config", "CONFIG"], "c.json",
                           "c.json"),
    "test-out-spelled-otherwise": (["test", "DATA"], "sub/../d.txt", "d.txt"),
    "test-out-is-a-link": (["test", "DATA"], "sym.txt", "d.txt"),
    "test-out-is-a-hard-link": (["test", "DATA"], "hard.txt", "d.txt"),
    "coeffs-out-is-config": (["coeffs", "--kmax", "3", "--config", "CONFIG"],
                             "c.json", "c.json"),
    "simulate-out-is-config": (["simulate", "--config", "CONFIG"], "c.cfg",
                               "c.cfg"),
    "simulate-twin-is-config": (["simulate", "--config", "CONFIG"],
                                "c.csv", "c.json"),
}


@pytest.mark.parametrize("argv, out, given", _OVERWRITES.values(),
                         ids=list(_OVERWRITES))
def test_output_that_is_an_input_exits_2(tmp_path, capsys, monkeypatch, argv,
                                         out, given):
    # refused before any work, naming both paths; the input keeps its bytes
    # and nothing is written
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran")
    for name in ("run_test", "compute_coefficients", "level_power_table"):
        monkeypatch.setattr(f"deconvtest.cli.{name}", no_work)
    (tmp_path / "sub").mkdir()
    data = tmp_path / "d.txt"
    data.write_bytes(FIXTURE.read_bytes())
    (tmp_path / "sym.txt").symlink_to(data)
    (tmp_path / "hard.txt").hardlink_to(data)
    config = tmp_path / ("c.cfg" if "c.cfg" == given else "c.json")
    config.write_text(json.dumps({"test": {"calibration": "asymptotic"}}))
    before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    args = [{"DATA": data, "CONFIG": config}.get(a, a) for a in argv]
    assert run_cli(args + ["--out", tmp_path / out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"--out {tmp_path / out}" in err
    assert f"input {tmp_path / given}" in err
    assert {p: p.read_bytes() for p in tmp_path.iterdir()
            if p.is_file()} == before
