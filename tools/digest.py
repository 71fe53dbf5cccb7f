"""Digest of the numbers deconvtest computes, one sha256 per component.

Run ``python tools/digest.py`` in a checkout: it imports the package from
that checkout's ``src`` and prints one JSON line,

* ``calibration``: the default config's calibration values and critical
  values of Mod1 and Mod2 at n = 50, 100, 500 and 2000,
* ``statistic``: the T sequences and selected orders S_n of a fixed batch
  of 2000 rows of each of the eight study scenarios at n = 50, 100, 500
  and 2000,
* ``coefficients``: the closed-form and quadrature alphas and sigma of
  Mod1 and Mod2 at order 10,
* ``simulate``: the CSV of ``simulate --n 50,100 --reps 200 --seed 99``,
* ``references``: the density, support test, support and basis document of
  Exponential1Ref, Uniform01Ref and GeometricRef at p = 0.3, 0.5 and 0.97
  on a grid of in- and off-support points, each basis's certified norms,
  Gram residual and values at the in-support points, and the order-6
  coefficients of a uniform signal without noise on Uniform01Ref,
* ``rules``: the nodes and weights of ``rule(nodes, rate)`` of every law
  kind (a non-integer gamma shape, chi-squared with 1 and 3 degrees of
  freedom, a mixture and a point mass among them) at 1 to 17 nodes and
  rates 0, 1, 2, ln 2 and 2 ln 2, and the addition split of Laguerre 1.0
  and Meixner 0.3, 0.5 and 0.97 at orders 1 to 16, with its table on
  ``SPLIT_GRID``,
* ``draws``: 1000 draws of every law of ``rules``, of a Poisson law of mean
  2e8 (numpy's sampler) and of a Poisson-geometric mixture, each from its
  own stream; 1000 draws of Y + Z of Mod1 and Mod2; and the value counts of
  2000 rows of Mod2 at n = 50 and 500, drawn from its masses,
* ``asymptotic``: the asymptotic critical values at alpha 0.5, 0.1, 0.05,
  0.01 and 0.001, and the asymptotic p-values on ``T_GRID``, 0 to 1500,
* ``orders``: for each of ``order_nulls()`` under both coefficient methods
  at n = 50, 100, 500 and 2000 (``order_entry``), the diagnostics'
  ``lambda_mins`` and ``usable_k_max`` and the asymptotic engine's
  ``used_k_max`` and ``notes``, or the name of the exception raised.

Each line also names the numpy version that computed it: numpy keeps a
bit generator's stream fixed across releases, but not the algorithms of
``Generator`` methods (NEP 19), so equal bits are promised on one numpy
version only.

Two checkouts compute the same bits where their lines are equal, so a
change that should move no number is checked by running both and
comparing: ``python tools/digest.py --compare A B`` reads one line from
each of the files A and B and prints the components that differ, each
marked ``(only in A)`` or ``(only in B)`` where one line lacks it, or
``equal``; a numpy version difference follows on a line of its own.  It
exits 1 if a component differs.  ``--quick`` digests smaller sizes (n =
50 and 100, 200 calibration reps, 100-row batches, a two-scenario study,
``orders`` at n = 50 and 100) in about a second; its line is comparable only with another ``--quick``
line.  ``references``, ``rules``, ``draws`` and ``asymptotic`` are the
same in both.
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
from deconvtest.measures import (  # noqa: E402
    ChiSquared, Exponential, Exponential1Ref, Gamma, Geometric, GeometricRef,
    Mixture, PointMass, Poisson, RngStream, Uniform01, Uniform01Ref, draw_sum,
)
from deconvtest.nullmodel import (  # noqa: E402
    NullSpec, compute_coefficients, eigen_floor_diagnostics, value_masses,
)
from deconvtest.orthopoly import (  # noqa: E402
    PolynomialFamilySpec, certify_orthonormality,
)
from deconvtest.simlab import SCENARIO_NAMES, build_scenario  # noqa: E402
from deconvtest.teststat import (  # noqa: E402
    TestConfig, TestEngine, _zero_from, default_kmax, prepared_engine,
    run_test, sample_counts,
)

BATCH_SEED = 20261020

# negatives, fractions, signed zeros, far values, infinities and NaN: the
# support grid of tests/test_measures.py
SUPPORT_GRID = np.array([
    -np.inf, -1e300, -5.0, -1.0, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.25, 0.5,
    1.0, 1.5, 2.0, 3.0, 7.0, 50.0, 700.0, 745.0, 800.0, 1e6, 2.0 ** 53,
    2.0 ** 53 + 2, 1e300, np.inf, np.nan])

# one law of each kind, and several gamma-type shapes: the process keeps one
# rule per shape and node count
RULE_LAWS = (
    Exponential(1.0), Exponential(0.7), Gamma(2.5, 0.8), Gamma(0.5, 1.0),
    ChiSquared(1), ChiSquared(3), Poisson(1.3), Geometric(0.8), Uniform01(),
    PointMass(0.5), Mixture(0.3, Exponential(0.5), Gamma(1.7, 2.0)))
RULE_RATES = (0.0, 1.0, 2.0, float(np.log(2.0)), float(2.0 * np.log(2.0)))
SPLIT_GRID = np.array([0.0, 0.5, 1.0, 2.0, 3.0, 7.0, 20.0])
ASYMPTOTIC_ALPHAS = (0.5, 0.1, 0.05, 0.01, 0.001)
# through the chi-squared(1) tail's last normal doubles (T = 1409.5) and
# its last subnormals (T = 1482.5)
T_GRID = np.linspace(0.0, 1500.0, 6001)


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
            h.add(prepared_engine(null, n, config).calibration)
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


def references() -> str:
    """Reference measures on ``SUPPORT_GRID`` and their certified bases.

    The basis document is a null's (point masses at 0 fit every reference),
    and each table is certified afresh from it, so the component reads only
    what every version of the package has.
    """
    h = Hasher()
    for ref in (Exponential1Ref(), Uniform01Ref(), GeometricRef(0.3),
                GeometricRef(0.5), GeometricRef(0.97)):
        inside = ref.in_support(SUPPORT_GRID)
        basis = NullSpec(PointMass(0.0), PointMass(0.0), ref).config()["basis"]
        table = certify_orthonormality(
            PolynomialFamilySpec(basis["kind"], basis["shape"]))
        with np.errstate(all="ignore"):  # far points overflow the basis
            for value in (ref.density(SUPPORT_GRID), inside, ref.support(),
                          json.dumps(basis, sort_keys=True), table.norms,
                          table.gram_residual,
                          table.eval_normalized(SUPPORT_GRID[inside])):
                h.add(value)
    coeffs = compute_coefficients(
        NullSpec(Uniform01(), PointMass(0.0), Uniform01Ref()), 6)
    h.add(coeffs.alphas)
    h.add(coeffs.sigma)
    return h.hexdigest()


def rules() -> str:
    """Every law's Gauss rule and the families' addition splits."""
    h = Hasher()
    for law in RULE_LAWS:
        for nodes in range(1, 18):
            for rate in RULE_RATES:
                for value in law.rule(nodes, rate):
                    h.add(value)
    for kind, shape in (("laguerre", 1.0), ("meixner", 0.3),
                        ("meixner", 0.5), ("meixner", 0.97)):
        family = PolynomialFamilySpec(kind, shape)
        for k in range(1, 17):
            split, table = family.addition_split(k)
            h.add(split)
            h.add(table(SPLIT_GRID))
    return h.hexdigest()


def draws() -> str:
    """Golden draws of every law, of the models' sums and of count rows."""
    h = Hasher()
    laws = RULE_LAWS + (Poisson(2e8),
                        Mixture(0.5, Poisson(2.0), Geometric(2.0)))
    for i, law in enumerate(laws):
        h.add(law.draw(RngStream(BATCH_SEED, i).generator(), 1000))
    for i, model in enumerate(("Mod1", "Mod2")):
        null = build_scenario(model).null
        gen = RngStream(BATCH_SEED, len(laws) + i).generator()
        h.add(draw_sum(null.y, null.z, gen, 1000))
    # the masses that the calibration's count route draws from
    null = build_scenario("Mod2").null
    cells = np.arange(_zero_from(null.ref))
    masses = value_masses(null.y.mass(cells), null.z.mass(cells))
    for n in (50, 500):
        gen = RngStream(BATCH_SEED, n).generator()
        for value in sample_counts(*masses, 2000, n, gen):
            h.add(value)
    return h.hexdigest()


def asymptotic() -> str:
    """The chi-squared(1) limit: critical values and p-values."""
    h = Hasher()
    null = build_scenario("Mod1").null
    for alpha in ASYMPTOTIC_ALPHAS:
        config = TestConfig(alpha=alpha, calibration="asymptotic")
        engine = TestEngine(null, 100, config)
        h.add(engine.critical_value)
    h.add([engine.p_value(float(t)) for t in T_GRID])
    return h.hexdigest()


def order_nulls() -> dict:
    """Mod1, Mod2, a geometric + point-mass and a Poisson + Poisson null on
    geometric(0.3 / 0.5 / 0.7), and a constant X on exponential1."""
    nulls = {model: build_scenario(model).null for model in ("Mod1", "Mod2")}
    for p in (0.3, 0.5, 0.7):
        ref = GeometricRef(p)
        nulls[f"geom+point@{p}"] = NullSpec(Geometric(1.0), PointMass(2.0), ref)
        nulls[f"pois+pois@{p}"] = NullSpec(Poisson(0.6), Poisson(1.4), ref)
    nulls["point+point"] = NullSpec(PointMass(40.0), PointMass(0.0),
                                    Exponential1Ref())
    return nulls


def order_entry(null: NullSpec, n: int, method: str) -> list:
    """The orders an asymptotic engine at n whitens, on ``method``'s
    coefficients, or the name of the exception that refuses them."""
    try:
        coeffs = compute_coefficients(null, default_kmax(n), method)
        diag = eigen_floor_diagnostics(coeffs)
        engine = TestEngine(null, n, TestConfig(calibration="asymptotic"),
                            coeffs)
    except Exception as exc:  # the entry records what was raised
        return [type(exc).__name__]
    return [diag.lambda_mins, diag.usable_k_max, engine.used_k_max,
            json.dumps(engine.notes)]


def orders(sizes) -> str:
    h = Hasher()
    for null in order_nulls().values():
        for method in ("closed_form", "quadrature"):
            for n in sizes:
                for value in order_entry(null, n, method):
                    h.add(value)
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
            "references": references(),
            "rules": rules(),
            "draws": draws(),
            "asymptotic": asymptotic(),
            "orders": orders((50, 100)),
            "numpy": np.__version__,
            "quick": True,
        }
    return {
        "calibration": calibration((50, 100, 500, 2000), TestConfig()),
        "statistic": statistic((50, 100, 500, 2000), 2000),
        "coefficients": coefficients(),
        "simulate": simulate(["--n", "50,100", "--reps", "200",
                              "--seed", "99"]),
        "references": references(),
        "rules": rules(),
        "draws": draws(),
        "asymptotic": asymptotic(),
        "orders": orders((50, 100, 500, 2000)),
        "numpy": np.__version__,
        "quick": False,
    }


def compare(a: dict, b: dict) -> tuple[list[str], str | None]:
    """The components whose digests differ, each marked where one line
    lacks it, and a note of a numpy version difference, if any."""
    differ = []
    for key in sorted((a.keys() | b.keys()) - {"numpy"}):
        if key not in b or key not in a:
            differ.append(f"{key} (only in {'A' if key in a else 'B'})")
        elif a[key] != b[key]:
            differ.append(key)
    versions = [line.get("numpy", "unknown") for line in (a, b)]
    note = ("numpy {} in A, {} in B".format(*versions)
            if versions[0] != versions[1] else None)
    return differ, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="digest smaller sizes")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="files holding one digest line each")
    args = parser.parse_args(argv)
    if args.compare:
        lines = [json.loads(Path(p).read_text()) for p in args.compare]
        differ, versions = compare(*lines)
        print("\n".join(differ or ["equal"]))
        if versions:
            print(versions)
        return 1 if differ else 0
    print(json.dumps(digest(args.quick), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
