"""Digest of the numbers deconvtest computes, one sha256 per component.

Run ``python tools/digest.py`` in a checkout: it imports the package from
that checkout's ``src`` and prints one JSON line,

* ``calibration``: the default config's calibration values and critical
  values of Mod1 and Mod2 at n = 50, 100, 500 and 2000,
* ``statistic``: the T sequences and selected orders S_n of a fixed batch
  of 2000 rows of each of the eight study scenarios at n = 100 and 500,
* ``coefficients``: the closed-form and quadrature alphas and sigma of
  Mod1 and Mod2 at order 10,
* ``simulate``: the CSV of ``simulate --n 50,100 --reps 200 --seed 99``.

Two checkouts compute the same bits where their lines are equal, so a
change that should move no number is checked by running both and
comparing: ``python tools/digest.py --compare A B`` reads one line from
each of the files A and B, prints the components that differ and exits 1
if any does.  ``--quick`` digests smaller sizes (n = 50 and 100, 200
calibration reps, 100-row batches, a two-scenario study) in about a
second; its line is comparable only with another ``--quick`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deconvtest import cli  # noqa: E402
from deconvtest.measures import RngStream  # noqa: E402
from deconvtest.nullmodel import compute_coefficients  # noqa: E402
from deconvtest.simlab import SCENARIO_NAMES, build_scenario  # noqa: E402
from deconvtest.teststat import (  # noqa: E402
    TestConfig, TestEngine, prepared_engine, run_test,
)

BATCH_SEED = 20261020


class Hasher:
    """sha256 of a sequence of arrays, each with its dtype and shape."""

    def __init__(self):
        self._sha = hashlib.sha256()

    def add(self, value) -> None:
        arr = np.ascontiguousarray(value)
        self._sha.update(f"{arr.dtype.str}{arr.shape}".encode())
        self._sha.update(arr.tobytes())

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def calibration(sizes, config: TestConfig) -> str:
    """Calibration values, and the critical value that a test reports."""
    h = Hasher()
    for model in ("Mod1", "Mod2"):
        null = build_scenario(model).null
        for n in sizes:
            h.add(prepared_engine(null, n, config).calibration_values())
            # the critical value does not depend on the data; the test
            # runs on the engine above
            h.add(run_test(np.arange(n) % 3.0, null, config).critical_value)
    return h.hexdigest()


def statistic(sizes, rows: int) -> str:
    """T sequences and S_n of ``rows`` rows of each scenario."""
    h = Hasher()
    config = TestConfig(calibration="asymptotic")
    for name in SCENARIO_NAMES:
        spec = build_scenario(name)
        for n in sizes:
            engine = TestEngine(spec.null, n, config)
            gen = RngStream(BATCH_SEED, n).generator()
            batch = spec.sample(gen, rows * n).reshape(rows, n)
            t_seq, s_n, _ = engine.statistic_batch(batch)
            h.add(t_seq)
            h.add(np.asarray(s_n, dtype=np.int64))
    return h.hexdigest()


def coefficients(k: int = 10) -> str:
    h = Hasher()
    for model in ("Mod1", "Mod2"):
        null = build_scenario(model).null
        for method in ("closed_form", "quadrature"):
            coeffs = compute_coefficients(null, k, method)
            h.add(coeffs.alphas)
            h.add(coeffs.sigma)
    return h.hexdigest()


def simulate(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", *argv])
    if code != 0:
        raise RuntimeError(f"simulate {' '.join(argv)} exited with {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def digest(quick: bool = False) -> dict:
    if quick:
        return {
            "calibration": calibration((50, 100), TestConfig(mc_reps=200)),
            "statistic": statistic((50, 100), 100),
            "coefficients": coefficients(),
            "simulate": simulate(["--scenarios", "Mod1,Mod2", "--n", "50",
                                  "--reps", "100", "--seed", "99"]),
            "quick": True,
        }
    return {
        "calibration": calibration((50, 100, 500, 2000), TestConfig()),
        "statistic": statistic((100, 500), 2000),
        "coefficients": coefficients(),
        "simulate": simulate(["--n", "50,100", "--reps", "200",
                              "--seed", "99"]),
        "quick": False,
    }


def compare(a: dict, b: dict) -> list[str]:
    """The components whose digests differ, or that one line lacks."""
    return sorted(key for key in a.keys() | b.keys()
                  if a.get(key) != b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="digest smaller sizes")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="files holding one digest line each")
    args = parser.parse_args(argv)
    if args.compare:
        lines = [json.loads(Path(p).read_text()) for p in args.compare]
        differ = compare(*lines)
        print("\n".join(differ) if differ else "equal")
        return 1 if differ else 0
    print(json.dumps(digest(args.quick), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
