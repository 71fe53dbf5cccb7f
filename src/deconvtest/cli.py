"""Command-line front end and the file formats it owns.

Subcommands
-----------
``deconvtest test DATA``
    Run the goodness-of-fit test on a plain-text sample (one observation
    per line; blank lines and ``#`` comments ignored) and emit a JSON
    result document.

``deconvtest coeffs``
    Compute and dump null coefficients for inspection or caching; the
    document round-trips into ``test --coeffs-cache``.

``deconvtest simulate``
    Run the level/power study and write a CSV table, to standard output or,
    with ``--out``, to that file plus a JSON twin beside it.

Configuration is a JSON document with optional ``null``, ``test``, and
``sim`` sections; unknown keys are rejected and the fully resolved
configuration is echoed into every output.  The keys of a law or reference
document are ``kind`` plus the fields of its class in ``measures``, and
those of the ``test`` section are the fields of ``TestConfig``.  Exit
codes: 0 success, 2 usage or configuration error, 3 data error, 4
numerical failure.
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
from .nullmodel import (
    NullCoefficients, NullSpec, compute_coefficients, eigen_floor_diagnostics,
)
from .orthopoly import BasisInconsistencyError
from .simlab import SCENARIO_NAMES, level_power_table
from .teststat import DataDomainError, TestConfig, TestEngine

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

COEFFS_SCHEMA = "deconvtest-coeffs-v1"
RESULT_SCHEMA = "deconvtest-result-v1"
SIM_SCHEMA = "deconvtest-simulation-v1"

CSV_HEADER = "scenario,n,reps,reject_rate,ci_low,ci_high,seconds"


class ConfigError(ValueError):
    """Malformed configuration document or flag combination."""


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


def _document_keys(cls) -> set:
    return {f.name for f in fields(cls)} | {"kind"}


def _construct(cls, doc: dict, where: str):
    """``cls`` from a document keyed by its fields; absent ones default.

    Each value is read by its field's annotation, a string since the
    modules postpone annotations: a law (``"Distribution"``) as a nested
    document, ``float`` as a finite number, ``int`` as an integral one,
    ``int | str`` as ``"auto"`` or an integral number, and ``str`` as is,
    for the class to check.  A missing field without a default raises
    ``KeyError``.
    """
    args = {}
    for f in fields(cls):
        if f.name in doc or f.default is MISSING:
            value, at = doc[f.name], f"{where}.{f.name}"
            if f.type == "Distribution":
                value = build_distribution(value, at)
            elif f.type == "float":
                value = _number(value, at)
            elif f.type == "int" or (f.type == "int | str" and value != "auto"):
                value = _integer(value, at)
            args[f.name] = value
    return cls(**args)


def build_distribution(doc: dict, where: str = "distribution") -> Distribution:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in LAWS:
        raise ConfigError(f"unknown distribution kind {kind!r} in {where}")
    _check_keys(doc, _document_keys(LAWS[kind]), where)
    try:
        return _construct(LAWS[kind], doc, where)
    except KeyError as exc:
        raise ConfigError(f"missing key {exc} for {kind} in {where}") from None
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad {kind} parameters in {where}: {exc}") from None


def build_reference(doc: dict) -> ReferenceMeasure:
    kind = _object(doc, "null.reference").get("kind", "exponential1")
    if not isinstance(kind, str) or kind not in REFERENCES:
        raise ConfigError(f"unknown reference measure kind {kind!r}")
    _check_keys(doc, _document_keys(REFERENCES[kind]), "null.reference")
    try:
        return _construct(REFERENCES[kind], doc, "null.reference")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_null(doc: dict) -> NullSpec:
    """The null of a ``null`` section, which reads back its own echo.

    The echo, ``NullSpec.config()``, also holds the ``basis``; that follows
    from the reference, so it is only checked.
    """
    _check_keys(doc, {"y", "z", "reference", "dependence", "basis"}, "null")
    dependence = doc.get("dependence", "independent")
    if dependence != "independent":
        raise ConfigError(
            "configuration files support dependence 'independent' only; "
            "dependent nulls require a joint sampler through the library API")
    try:
        null = NullSpec(
            y=build_distribution(doc.get("y", {"kind": "exponential", "mean": 1.0}),
                                 "null.y"),
            z=build_distribution(doc.get("z", {"kind": "chi_squared", "df": 1}),
                                 "null.z"),
            ref=build_reference(doc.get("reference", {"kind": "exponential1"})))
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid null specification: {exc}") from None
    basis = null.config()["basis"]
    if doc.get("basis", basis) != basis:
        raise ConfigError(f"null.basis {doc['basis']!r} does not match the "
                          f"reference's basis {basis!r}")
    return null


def build_test_config(doc: dict) -> TestConfig:
    _check_keys(doc, {f.name for f in fields(TestConfig)}, "test")
    try:
        return _construct(TestConfig, doc, "test")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid test section: {exc}") from None


_SIM_KEYS = {"scenarios", "n", "reps", "master_seed"}
_SIM_DEFAULTS = {"scenarios": list(SCENARIO_NAMES), "n": [50, 100, 500],
                 "reps": 2000, "master_seed": 20260809}


def build_sim_section(doc: dict) -> dict:
    _check_keys(doc, _SIM_KEYS, "sim")
    sim = dict(_SIM_DEFAULTS)
    sim.update(doc)
    if not isinstance(sim["scenarios"], list):
        raise ConfigError("sim.scenarios must be a list of scenario names")
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
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _check_keys(_object(doc, "config document"), {"null", "test", "sim"},
                "config")
    for section, value in doc.items():
        _object(value, section)
    return doc


def config_hash(null_config: dict) -> str:
    """Content hash of a resolved null section; guards coefficient caches."""
    canon = json.dumps(null_config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Data files
# ---------------------------------------------------------------------------

def read_data_file(path: str) -> np.ndarray:
    """One numeric observation per line; '#' comments and blanks ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
# Flag plumbing
# ---------------------------------------------------------------------------

def _apply_test_overrides(args, test_doc: dict) -> dict:
    out = dict(test_doc)
    if args.alpha is not None:
        out["alpha"] = args.alpha
    if getattr(args, "kmax", None) is not None:
        out["k_max"] = args.kmax if args.kmax == "auto" else int(args.kmax)
    if args.calibration is not None:
        out["calibration"] = args.calibration
    if getattr(args, "reps", None) is not None and args.command == "test":
        out["mc_reps"] = args.reps
    if args.seed is not None and args.command in ("test", "coeffs"):
        out["mc_seed"] = args.seed
    return out


def _emit(document: dict, out_path: str | None):
    text = json.dumps(document, indent=2, sort_keys=True)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _resolved_echo(null: NullSpec, test: TestConfig, sim: dict | None = None) -> dict:
    echo = {"null": null.config(), "test": test.to_dict()}
    if sim is not None:
        echo["sim"] = sim
    return echo


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_test(args) -> int:
    cfg = load_config(args.config)
    null = build_null(cfg.get("null", {}))
    test = build_test_config(_apply_test_overrides(args, cfg.get("test", {})))
    data = read_data_file(args.data)
    coeffs = None
    if args.coeffs_cache:
        coeffs = _load_coeffs_cache(args.coeffs_cache, null)
    engine = TestEngine(null, data.size, test, coeffs)
    result = engine.run(data)
    _emit({
        "schema": RESULT_SCHEMA,
        "result": result.to_dict(),
        "coefficients": {
            "k": engine.coeffs.k,
            "method": engine.coeffs.method,
            "lambda_trace": engine.diagnostics.lambda_mins.tolist(),
            "notes": list(engine.coeffs.notes),
            "cache": args.coeffs_cache,
        },
        "config": _resolved_echo(null, test),
        "config_hash": config_hash(null.config()),
    }, args.out)
    return EXIT_OK


def _load_coeffs_cache(path: str, null: NullSpec) -> NullCoefficients:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient cache {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"coefficient cache {path} is not valid JSON: "
                          f"{exc}") from None
    if doc.get("schema") != COEFFS_SCHEMA:
        raise ConfigError(f"{path} is not a coefficient document")
    expected = config_hash(null.config())
    if doc.get("config_hash") != expected:
        raise ConfigError(
            f"coefficient cache {path} is stale: its null configuration hash "
            f"{doc.get('config_hash')!r} does not match {expected!r};"
            " recompute with 'deconvtest coeffs'")
    return NullCoefficients.from_dict(doc)


def cmd_coeffs(args) -> int:
    cfg = load_config(args.config)
    null = build_null(cfg.get("null", {}))
    # checked like every command's, though the coefficients use none of it
    build_test_config(_apply_test_overrides(args, cfg.get("test", {})))
    if args.kmax is None or args.kmax == "auto":
        raise ConfigError("coeffs requires an explicit --kmax order")
    k = int(args.kmax)
    if k < 1:
        raise ConfigError("--kmax must be at least 1")
    coeffs = compute_coefficients(null, k)
    lam = eigen_floor_diagnostics(coeffs).lambda_mins
    _emit({
        "schema": COEFFS_SCHEMA,
        "config_hash": config_hash(null.config()),
        "null": null.config(),
        **coeffs.to_dict(),
        "min_eigen": float(lam[-1]),
        "lambda_trace": lam.tolist(),
        "basis": {"gram_residual": null.basis.gram_residual},
    }, args.out)
    return EXIT_OK


def _format_float(x: float) -> str:
    return repr(float(x))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    test_doc = _apply_test_overrides(args, cfg.get("test", {}))
    test = build_test_config(test_doc)
    sim_doc = dict(cfg.get("sim", {}))
    if args.scenarios:
        sim_doc["scenarios"] = [s.strip() for s in args.scenarios.split(",")
                                if s.strip()]
    if args.reps is not None:
        sim_doc["reps"] = args.reps
    if args.seed is not None:
        sim_doc["master_seed"] = args.seed
    if args.n:
        sim_doc["n"] = [int(v) for v in args.n.split(",")]
    sim = build_sim_section(sim_doc)

    started = time.perf_counter()
    rows = level_power_table(sim["scenarios"], sim["n"], int(sim["reps"]),
                             test, int(sim["master_seed"]))

    lines = [CSV_HEADER]
    json_rows = []
    timing = {}
    for row in rows:
        # measured wall time goes to the timing map; the tabulated seconds
        # column stays 0 so equal seeds give equal bytes
        lines.append(",".join([
            row.scenario, str(row.n), str(row.reps),
            _format_float(row.rejection_rate),
            _format_float(row.ci_low), _format_float(row.ci_high), "0.000",
        ]))
        timing[f"{row.scenario}:{row.n}"] = row.seconds
        doc = row.to_dict()
        doc["seconds"] = 0.0
        json_rows.append(doc)
    csv_text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(csv_text)
        return EXIT_OK
    out_csv = Path(args.out)
    out_json = out_csv.with_suffix(".json")
    out_csv.write_text(csv_text)
    twin = {
        "schema": SIM_SCHEMA,
        "rows": json_rows,
        "config": {"test": test.to_dict(), "sim": sim},
        "timing_seconds": timing,
        "total_seconds": time.perf_counter() - started,
    }
    out_json.write_text(json.dumps(twin, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {out_csv} and {out_json} ({len(rows)} rows)\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconvtest",
        description="Goodness-of-fit testing for the signal component of "
                    "an additive convolution with known noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON configuration file")
    common.add_argument("--out", help="output path (default: standard output)")
    common.add_argument("--seed", type=int,
                        help="override the relevant seed (calibration seed "
                             "for 'test', master seed for 'simulate')")
    common.add_argument("--alpha", type=float, help="nominal test level")
    common.add_argument("--kmax",
                        help="number of components ('auto' or an integer)")
    common.add_argument("--calibration", choices=["asymptotic", "mc"],
                        help="critical-value mode")
    common.add_argument("--reps", type=int,
                        help="replication count (calibration reps for 'test', "
                             "study reps for 'simulate')")

    p_test = sub.add_parser("test", parents=[common],
                            help="run the test on a data file")
    p_test.add_argument("data", help="observations, one per line")
    p_test.add_argument("--coeffs-cache",
                        help="coefficient document from 'deconvtest coeffs'")

    sub.add_parser("coeffs", parents=[common],
                   help="compute null coefficients (requires --kmax)")

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="run the level/power study")
    p_sim.add_argument("--scenarios", help="comma-separated scenario names")
    p_sim.add_argument("--n", help="comma-separated sample sizes")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"test": cmd_test, "coeffs": cmd_coeffs, "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFileError, DataDomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (BasisInconsistencyError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # e.g. an mc_reps or a --reps whose T values cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
