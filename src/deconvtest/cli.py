"""Command-line front end and the file formats it owns.

Subcommands
-----------
``deconvtest test DATA``
    Run the goodness-of-fit test on a plain-text sample (one observation
    per line; blank lines and ``#`` comments ignored) and emit its result,
    the resolved configuration and the null's hash as JSON.  Flags:
    ``--config``, ``--out``, ``--alpha``, ``--kmax``, ``--calibration``,
    ``--reps`` (the calibration replications, ``test.mc_reps``) and
    ``--seed`` (the calibration seed, ``test.mc_seed``).

``deconvtest coeffs``
    Compute and dump null coefficients for inspection, with the usable
    order that ``test`` would whiten to.  Flags: ``--config``, ``--out``
    and ``--kmax``, a required integer order.

``deconvtest simulate``
    Run the level/power study of the built-in scenarios and write a CSV
    table, to standard output or, with ``--out``, to that file plus a JSON
    twin beside it.  A config ``null`` section is refused (exit 2), since
    no study reads it.  Flags: ``--config``, ``--out``, ``--alpha``,
    ``--kmax``, ``--calibration``, ``--reps`` (the study replications per
    cell, ``sim.reps``), ``--seed`` (``sim.master_seed``), ``--scenarios``
    and ``--n``, both comma-separated.

Configuration is a JSON document with optional ``null``, ``test``, and
``sim`` sections; a flag that is set overrides its key, unknown keys are
rejected and the fully resolved configuration is echoed into every output.
The keys of a law or reference document are ``kind`` plus the fields of its
class in ``measures``, and those of the ``test`` section are the fields of
``TestConfig``.  Exit codes: 0 success, 2 usage or configuration error
(also an ``--out`` that cannot be written or is an input), 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .measures import LAWS, REFERENCES, Distribution, ReferenceMeasure
from .nullmodel import NullSpec, compute_coefficients, eigen_floor_diagnostics
from .orthopoly import BasisInconsistencyError
from .simlab import SCENARIO_NAMES, level_power_table
from .teststat import DataDomainError, TestConfig, run_test

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

COEFFS_SCHEMA = "deconvtest-coeffs-v4"
RESULT_SCHEMA = "deconvtest-result-v3"
SIM_SCHEMA = "deconvtest-simulation-v2"

CSV_HEADER = "scenario,n,reps,reject_rate,ci_low,ci_high,seconds"


class ConfigError(ValueError):
    """Malformed configuration document or flag, or unwritable output."""


class DataFileError(ValueError):
    """Unreadable or unparsable observation file."""


# ---------------------------------------------------------------------------
# Configuration documents
# ---------------------------------------------------------------------------

def _check_keys(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    return doc


def _number(value, where: str) -> float:
    """A finite JSON number as a float; a boolean is not a number."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _integer(value, where: str) -> int:
    """A JSON number with an integral value, as an int."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _construct(cls, doc: dict, where: str):
    """``cls`` from a document keyed by its fields; absent ones default.

    Each value is read by its field's annotation, a string since the
    modules postpone annotations: a law (``"Distribution"``) as a nested
    document, ``float`` as a finite number, ``int`` as an integral one,
    ``int | str`` as ``"auto"`` or an integral number, and ``str`` as is,
    for the class to check.  An unknown or missing key, or a value that the
    class refuses, raises ``ConfigError`` naming ``where``.
    """
    _check_keys(doc, {f.name for f in fields(cls)}, where)
    args = {}
    for f in fields(cls):
        if f.name in doc:
            value, at = doc[f.name], f"{where}.{f.name}"
            if f.type == "Distribution":
                value = build_distribution(value, at)
            elif f.type == "float":
                value = _number(value, at)
            elif f.type == "int" or (f.type == "int | str" and value != "auto"):
                value = _integer(value, at)
            args[f.name] = value
        elif f.default is MISSING:
            raise ConfigError(f"missing key {f.name!r} in {where}")
    try:
        return cls(**args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _of_kind(table: dict, doc, where: str, what: str, default=None):
    """The class that ``table`` names by a document's ``kind``, and the
    document's other keys."""
    doc = dict(_object(doc, where))
    kind = doc.pop("kind", default)
    if not isinstance(kind, str) or kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r} in {where}; "
                          f"expected one of {sorted(table)}")
    return table[kind], doc


def build_distribution(doc: dict, where: str = "distribution") -> Distribution:
    return _construct(*_of_kind(LAWS, doc, where, "distribution"), where)


def build_reference(doc: dict) -> ReferenceMeasure:
    return _construct(*_of_kind(REFERENCES, doc, "null.reference",
                                "reference measure", "exponential1"),
                      "null.reference")


def build_null(doc: dict) -> NullSpec:
    """The null of a ``null`` section, which reads back its own echo.

    The echo, ``NullSpec.config()``, also holds the ``basis``; that follows
    from the reference, so it is only checked.
    """
    _check_keys(doc, {"y", "z", "reference", "dependence", "basis"}, "null")
    dependence = doc.get("dependence", "independent")
    if dependence != "independent":
        raise ConfigError(
            f"null.dependence must be 'independent', got {dependence!r}: the "
            "noise Z is independent of the signal Y")
    y = build_distribution(doc.get("y", {"kind": "exponential", "mean": 1.0}),
                           "null.y")
    z = build_distribution(doc.get("z", {"kind": "chi_squared", "df": 1}),
                           "null.z")
    ref = build_reference(doc.get("reference", {"kind": "exponential1"}))
    try:
        null = NullSpec(y=y, z=z, ref=ref)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid null specification: {exc}") from None
    basis = null.config()["basis"]
    if doc.get("basis", basis) != basis:
        raise ConfigError(f"null.basis {doc['basis']!r} does not match the "
                          f"reference's basis {basis!r}")
    return null


def build_test_config(doc: dict) -> TestConfig:
    return _construct(TestConfig, doc, "test")


_SIM_DEFAULTS = {"scenarios": list(SCENARIO_NAMES), "n": [50, 100, 500],
                 "reps": 2000, "master_seed": 20260809}


def build_sim_section(doc: dict) -> dict:
    _check_keys(doc, set(_SIM_DEFAULTS), "sim")
    sim = dict(_SIM_DEFAULTS)
    sim.update(doc)
    if not (isinstance(sim["scenarios"], list) and sim["scenarios"]):
        raise ConfigError("sim.scenarios must be a nonempty list of scenario "
                          "names")
    for name in sim["scenarios"]:
        if name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario {name!r} in sim.scenarios")
    if not isinstance(sim["n"], list):
        raise ConfigError("sim.n must be a list of sample sizes")
    sim["n"] = [_integer(n, "sim.n") for n in sim["n"]]
    if not sim["n"] or any(n < 2 for n in sim["n"]):
        raise ConfigError("sim.n must list sample sizes >= 2")
    sim["reps"] = _integer(sim["reps"], "sim.reps")
    sim["master_seed"] = _integer(sim["master_seed"], "sim.master_seed")
    if sim["reps"] < 1:
        raise ConfigError("sim.reps must be at least 1")
    return sim


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _check_keys(_object(doc, "config document"), {"null", "test", "sim"},
                "config")
    for section, value in doc.items():
        _object(value, section)
    return doc


def config_hash(null_config: dict) -> str:
    """Content hash of a resolved null section; identifies the null in every
    document."""
    canon = json.dumps(null_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def read_data_file(path: str) -> np.ndarray:
    """One numeric observation per line; '#' comments and blanks ignored."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFileError(f"cannot read data file {path}: {exc}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise DataFileError(
                f"{path}:{lineno}: cannot parse {line!r} as a number") from None
    if len(values) < 2:
        raise DataFileError(f"{path}: {len(values)} observation(s) found, "
                            "the test needs at least 2")
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# Flags and outputs
# ---------------------------------------------------------------------------

def _config(args) -> dict:
    """The ``--config`` document with each flag that is set at its key.

    A flag that sets a key has that key, ``section.key``, as its ``dest``.
    Every command calls this first, so an ``--out``, or its ``simulate``
    JSON twin, that is an input (by any path or link) is refused before
    any work.
    """
    outputs = [Path(args.out)] if args.out else []
    if outputs and args.command == "simulate":
        outputs.append(outputs[0].with_suffix(".json"))
    for given in filter(None, (getattr(args, "data", None), args.config)):
        for path in outputs:
            if path.exists() and Path(given).exists() and path.samefile(given):
                raise ConfigError(f"--out {args.out} would write {path} over "
                                  f"the input {given}")
    cfg = load_config(args.config)
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section] = {**cfg.get(section, {}), key: value}
    return cfg


def _emit(document: dict | str, path: str | None):
    """A document as JSON, or a text, to ``path`` or to standard output."""
    text = (document if isinstance(document, str)
            else json.dumps(document, indent=2, sort_keys=True) + "\n")
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    cfg = _config(args)
    null = build_null(cfg.get("null", {}))
    test = build_test_config(cfg.get("test", {}))
    result = run_test(read_data_file(args.data), null, test)
    _emit({
        "schema": RESULT_SCHEMA,
        "result": result.to_dict(),
        "config": {"null": null.config(), "test": test.to_dict()},
        "config_hash": config_hash(null.config()),
    }, args.out)
    return EXIT_OK


def cmd_coeffs(args) -> int:
    cfg = _config(args)
    null = build_null(cfg.get("null", {}))
    # checked like every command's, though the coefficients use none of it
    build_test_config(cfg.get("test", {}))
    if args.kmax is None or args.kmax < 1:
        raise ConfigError("coeffs requires --kmax, an order of at least 1")
    coeffs = compute_coefficients(null, args.kmax)
    diag = eigen_floor_diagnostics(coeffs)  # refuses what ``test`` refuses
    _emit({
        "schema": COEFFS_SCHEMA,
        "config_hash": config_hash(null.config()),
        "null": null.config(),
        **coeffs.to_dict(),
        "lambda_trace": diag.lambda_mins.tolist(),
        "usable_k_max": diag.usable_k_max,
        "basis": {"gram_residual": null.ref.basis.gram_residual},
    }, args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _config(args)
    if "null" in cfg:
        raise ConfigError("simulate does not read the config's null section: "
                          "studies run the built-in scenarios")
    test = build_test_config(cfg.get("test", {}))
    sim = build_sim_section(cfg.get("sim", {}))
    if args.out and Path(args.out).suffix == ".json":
        raise ConfigError(f"--out {args.out} would be overwritten by its JSON "
                          "twin; give the table another suffix, such as .csv")

    started = time.perf_counter()
    rows = level_power_table(sim["scenarios"], sim["n"], sim["reps"], test,
                             sim["master_seed"])

    # the tabulated seconds column stays 0 so equal seeds give equal bytes;
    # each row of the JSON twin carries its cell's measured time
    lines = [CSV_HEADER] + [",".join([
        row.scenario, str(row.n), str(row.reps),
        *(repr(float(x)) for x in (row.reject_rate, row.ci_low, row.ci_high)),
        "0.000"]) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)
    if not args.out:
        return EXIT_OK
    out_csv = Path(args.out)
    out_json = out_csv.with_suffix(".json")
    try:
        _emit({"schema": SIM_SCHEMA, "rows": [row.to_dict() for row in rows],
               "config": {"test": test.to_dict(), "sim": sim},
               "total_seconds": time.perf_counter() - started}, out_json)
    except ConfigError:
        out_csv.unlink()  # a failed command leaves no half of its output
        raise
    sys.stdout.write(f"wrote {out_csv} and {out_json} ({len(rows)} rows)\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser; a flag that sets a config key has it as its ``dest``."""
    def auto_or_int(text):
        return text if text == "auto" else int(text)

    def int_list(text):
        return [int(v) for v in text.split(",")]

    def name_list(text):
        return [s.strip() for s in text.split(",") if s.strip()]

    parser = argparse.ArgumentParser(
        prog="deconvtest",
        description="Goodness-of-fit testing for the signal component of "
                    "an additive convolution with known noise.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text) for name, text in [
        ("test", "run the test on a data file"),
        ("coeffs", "compute null coefficients (requires --kmax)"),
        ("simulate", "run the level/power study")]}
    commands["test"].add_argument("data", help="observations, one per line")
    commands["coeffs"].add_argument("--kmax", type=int,
                                    help="number of components")
    for p in commands.values():
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path (default: standard output)")
    # (subcommands, flag, config key it sets, help text, argparse options)
    for names, flag, key, text, options in [
        ("test simulate", "--alpha", "test.alpha", "nominal test level",
         {"type": float}),
        ("test simulate", "--kmax", "test.k_max",
         "number of components ('auto' or an integer)", {"type": auto_or_int}),
        ("test simulate", "--calibration", "test.calibration",
         "critical-value mode", {"choices": ["asymptotic", "mc"]}),
        ("test", "--reps", "test.mc_reps",
         "Monte Carlo calibration replications", {"type": int}),
        ("test", "--seed", "test.mc_seed", "Monte Carlo calibration seed",
         {"type": int}),
        ("simulate", "--reps", "sim.reps", "study replications per cell",
         {"type": int}),
        ("simulate", "--seed", "sim.master_seed", "study master seed",
         {"type": int}),
        ("simulate", "--scenarios", "sim.scenarios",
         "comma-separated scenario names", {"type": name_list}),
        ("simulate", "--n", "sim.n", "comma-separated sample sizes",
         {"type": int_list}),
    ]:
        for name in names.split():
            commands[name].add_argument(
                flag, dest=key, help=f"{text} (sets {key})",
                metavar=None if "choices" in options else flag[2:].upper(),
                **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"test": cmd_test, "coeffs": cmd_coeffs, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except (DataFileError, DataDomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (BasisInconsistencyError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # e.g. an mc_reps or a --reps whose T values cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
