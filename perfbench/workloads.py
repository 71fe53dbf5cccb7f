"""The benchmark's three workloads, their inputs and their output checks.

Every input comes from the benchmark's own seeded NumPy generator, never
from the package's samplers, so a change to ``deconvtest.measures`` cannot
change what is measured.  Each workload runs in rounds of fixed
composition; ``run_round`` times the operations of one round, checks their
outputs outside the timed region and returns one ``OpRecord`` per
operation.

* ``test-stream``: cold ``run_test`` calls with Monte Carlo calibration,
  Mod1/Mod2 nulls at three sample sizes, every (null, n) pair once per
  round with fresh null or alternative data.  The default user path.
* ``study-grid``: ``deconvtest simulate`` through ``cli.main`` over all
  eight scenarios at three sample sizes; one call per round and per
  operation.  The throughput user.
* ``null-prep``: NullSpec -> closed-form coefficients -> asymptotic test
  over freshly drawn nulls on all three reference measures.  No (null, n)
  pair repeats and Monte Carlo does nothing, so it bypasses sampling,
  statistic and calibration-cache changes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle

import deconvtest as dt
from deconvtest import cli
from deconvtest.teststat import default_kmax

# -- distributions and nulls as plain data ----------------------------------
# A distribution is a tuple ("exp", mean), ("gamma", shape, scale),
# ("chi2", df), ("pois", mean), ("geom", mean), ("unif",), ("point", v) or
# ("mix", weight, a, b); a reference is ("exp1",), ("unif",) or ("geom", p).
# Tuples survive a JSON round trip as lists, which the set-up processes use.


def to_dist(spec):
    kind, *a = spec
    if kind == "exp":
        return dt.Exponential(a[0])
    if kind == "gamma":
        return dt.Gamma(a[0], a[1])
    if kind == "chi2":
        return dt.ChiSquared(a[0])
    if kind == "pois":
        return dt.Poisson(a[0])
    if kind == "geom":
        return dt.Geometric(a[0])
    if kind == "unif":
        return dt.Uniform01()
    if kind == "point":
        return dt.PointMass(a[0])
    if kind == "mix":
        return dt.Mixture(a[0], to_dist(a[1]), to_dist(a[2]))
    raise ValueError(f"unknown distribution spec {spec!r}")


def to_ref(spec):
    kind, *a = spec
    if kind == "exp1":
        return dt.Exponential1Ref()
    if kind == "unif":
        return dt.Uniform01Ref()
    return dt.GeometricRef(a[0])


def build_null(spec):
    y, z, ref = spec
    return dt.NullSpec(y=to_dist(y), z=to_dist(z), ref=to_ref(ref))


def draw(spec, rng: np.random.Generator, n: int) -> np.ndarray:
    kind, *a = spec
    if kind == "exp":
        return rng.exponential(a[0], n)
    if kind == "gamma":
        return rng.gamma(a[0], a[1], n)
    if kind == "chi2":
        return rng.chisquare(a[0], n)
    if kind == "pois":
        return rng.poisson(a[0], n).astype(float)
    if kind == "geom":          # support {0, 1, ...} with the given mean
        return rng.geometric(1.0 / (1.0 + a[0]), n) - 1.0
    if kind == "unif":
        return rng.random(n)
    if kind == "point":
        return np.full(n, float(a[0]))
    if kind == "mix":
        pick = rng.random(n) < a[0]
        return np.where(pick, draw(a[1], rng, n), draw(a[2], rng, n))
    raise ValueError(f"unknown distribution spec {spec!r}")


def describe(spec) -> str:
    y, z, ref = spec
    return json.dumps({"y": y, "z": z, "ref": ref})


# -- records and checks ------------------------------------------------------

@dataclass
class OpRecord:
    key: str
    latency: float
    samples: int            # user samples the operation tested
    op: int                 # operation id shared with the spans
    error: str | None = None
    traced: bool = False


class Workload:
    name = ""
    # nulls whose first NullSpec is part of set-up time
    setup_nulls: list = []
    # a run has round(--seconds / seconds_per_round) rounds
    seconds_per_round = 1.0

    def __init__(self, seed: int, smoke: bool, outdir: Path):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.problems: list[str] = []
        self.failures: list[dict] = []
        self.busy = 0.0            # seconds the operations themselves took
        self.tracer = None
        self._next_op = 0

    def begin_op(self) -> int:
        self._next_op += 1
        if self.tracer is not None:
            self.tracer.op = self._next_op
        return self._next_op

    @contextlib.contextmanager
    def paused(self):
        """Checker calls into the package inside this block are not traced."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def timed(self, key: str, samples: int, null_desc: str, fn):
        """Run one operation; count a raised error as a failed operation."""
        op = self.begin_op()
        t0 = perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # every failure is counted, none is dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        self.busy += latency
        if error is not None:
            self.failures.append({"op": key, "null": null_desc,
                                  "error": error.split(":", 1)[0],
                                  "message": error[:300]})
        return result, OpRecord(key, latency, samples, op, error)

    def check_result(self, label: str, res, x, ref_spec, coeffs) -> None:
        """Decision consistency and an independent recomputation of T_{S_n}."""
        bad = []
        if res.reject != (res.t_stat > res.critical_value):
            bad.append("reject disagrees with t_stat > critical_value")
        if not 1 <= res.s_n <= res.used_k_max:
            bad.append(f"s_n {res.s_n} outside [1, {res.used_k_max}]")
        t = oracle.t_sequence(x, ref_spec, coeffs.alphas, coeffs.sigma,
                              res.used_k_max)
        want = t[res.s_n - 1]
        if abs(want - res.t_stat) > 1e-4 * max(abs(want), 1e-2):
            bad.append(f"T_S_n {res.t_stat!r} differs from the NumPy "
                       f"recomputation {want!r}")
        self.problems += [f"{self.name} {label}: {b}" for b in bad]

    def run_round(self) -> list[OpRecord]:
        raise NotImplementedError

    def finish(self) -> dict:
        """Checks over the whole run; returns extra facts to report."""
        return {}


# -- test-stream --------------------------------------------------------------

MOD1 = (("exp", 1.0), ("chi2", 1.0), ("exp1",))
MOD2 = (("pois", 1.0), ("geom", 1.0), ("geom", 0.5))
# alternative data as (y, z) pairs: the Alt1 mixture and the Alt6 confusion
ALTERNATIVE = {
    "Mod1": (("mix", 0.5, ("exp", 2.0), ("chi2", 2.0)), ("point", 0.0)),
    "Mod2": (("geom", 1.0), ("geom", 1.0)),
}


class TestStream(Workload):
    name = "test-stream"
    setup_nulls = [MOD1, MOD2]
    seconds_per_round = 2.5     # about one round's time on a 2-CPU Xeon VM

    def __init__(self, seed, smoke, outdir):
        super().__init__(seed, smoke, outdir)
        self.sizes = (50, 100) if smoke else (100, 500, 2000)
        self.config = dt.TestConfig(mc_reps=200) if smoke else dt.TestConfig()
        self._coeffs = {}

    def run_round(self):
        pairs = [(m, n) for m in ("Mod1", "Mod2") for n in self.sizes]
        records = []
        for i in self.rng.permutation(len(pairs)):
            model, n = pairs[i]
            spec = MOD1 if model == "Mod1" else MOD2
            alt = bool(self.rng.random() < 0.5)
            y, z = ALTERNATIVE[model] if alt else spec[:2]
            x = draw(y, self.rng, n) + draw(z, self.rng, n)
            res, rec = self.timed(
                f"{model}:{n}", 1, describe(spec),
                lambda: dt.run_test(x, build_null(spec), self.config))
            records.append(rec)
            if res is not None:
                if not 0.0 < res.p_value <= 1.0:
                    self.problems.append(f"{self.name} {rec.key}: p_value "
                                         f"{res.p_value} outside (0, 1]")
                with self.paused():
                    self.check_result(rec.key, res, x, spec[2],
                                      self._coefficients(spec, n))
        return records

    def _coefficients(self, spec, n):
        if (spec, n) not in self._coeffs:
            self._coeffs[(spec, n)] = dt.compute_coefficients(
                build_null(spec), default_kmax(n))
        return self._coeffs[(spec, n)]


# -- study-grid ---------------------------------------------------------------

LEVEL_BAND = (0.025, 0.075)   # nominal 0.05 +- 0.025
POWER_FLOOR = 0.9             # Alt1 and Alt3 at the largest n
Z999 = 3.2905                 # two-sided 99.9% normal quantile


class StudyGrid(Workload):
    name = "study-grid"
    setup_nulls = [MOD1, MOD2]
    seconds_per_round = 2.5     # about one call's time; keeps a run at ten

    def __init__(self, seed, smoke, outdir):
        super().__init__(seed, smoke, outdir)
        self.sizes = (50, 500) if smoke else (50, 100, 500)
        self.cells = 8 * len(self.sizes)      # all eight scenarios
        self.reps = 20 if smoke else 200
        self.argv_extra = []
        if smoke:
            cfg = outdir / "study-config.json"
            cfg.write_text(json.dumps({"test": {"mc_reps": 200}}))
            self.argv_extra = ["--config", str(cfg)]
        self.pooled: dict[tuple[str, int], list[int]] = {}

    def run_round(self):
        seed = int(self.rng.integers(1, 2**31 - 1))
        out = self.outdir / "study.csv"
        argv = ["simulate", "--n", ",".join(map(str, self.sizes)),
                "--reps", str(self.reps), "--seed", str(seed),
                "--out", str(out)] + self.argv_extra

        def simulate():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"deconvtest simulate exited with {code}")

        _, rec = self.timed("simulate", self.cells * self.reps,
                            "Mod1/Mod2 study scenarios", simulate)
        if rec.error is None:
            self._check_rows(out.with_suffix(".json"))
        return [rec]

    def _check_rows(self, path: Path):
        rows = json.loads(path.read_text())["rows"]
        if len(rows) != self.cells:
            self.problems.append(f"{self.name}: {len(rows)} rows written")
        for row in rows:
            if row["reps"] != self.reps or row["errors"] != 0:
                self.problems.append(
                    f"{self.name} {row['scenario']}:{row['n']}: reps "
                    f"{row['reps']} errors {row['errors']}")
            if not 0 <= row["rejections"] <= row["reps"]:
                self.problems.append(f"{self.name}: bad rejection count {row}")
            acc = self.pooled.setdefault((row["scenario"], row["n"]), [0, 0])
            acc[0] += row["rejections"]
            acc[1] += row["reps"]

    def finish(self):
        rates = {}
        for (name, n), (rej, reps) in sorted(self.pooled.items()):
            lo, hi = dt.wilson_interval(rej, reps, Z999)
            rates[f"{name}:{n}"] = round(rej / reps, 4)
            if name in ("Mod1", "Mod2") and (hi < LEVEL_BAND[0]
                                             or lo > LEVEL_BAND[1]):
                self.problems.append(
                    f"{self.name} {name}:{n}: level {rej}/{reps} outside "
                    f"{LEVEL_BAND}")
            if (name in ("Alt1", "Alt3") and n == max(self.sizes)
                    and hi < POWER_FLOOR):
                self.problems.append(
                    f"{self.name} {name}:{n}: power {rej}/{reps} below "
                    f"{POWER_FLOOR}")
        return {"pooled_reject_rates": rates}


# -- null-prep -----------------------------------------------------------------

GEOMETRIC_P = (0.3, 0.5, 0.7)


def _u(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)), 6)


def null_templates(rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """Sixteen null families with freshly drawn parameters.

    Gamma shapes are 0.5 or whole numbers: other shapes make the closed
    form fail to converge (see the known-defect probe).
    """
    e = ("exp1",)
    p = [("geom", q) for q in GEOMETRIC_P]
    pr = p[int(rng.integers(3))]

    def expmix():
        return ("mix", _u(rng, 0.2, 0.8), ("exp", _u(rng, 0.3, 0.8)),
                ("exp", _u(rng, 1.2, 2.5)))
    return [
        ("gamma-half+exp", (("gamma", 0.5, _u(rng, 0.4, 1.2)),
                            ("exp", _u(rng, 0.5, 1.5)), e)),
        ("gamma-half+chi1", (("gamma", 0.5, _u(rng, 0.4, 1.2)),
                             ("chi2", 1.0), e)),
        ("gamma2+exp", (("gamma", 2.0, _u(rng, 0.3, 0.7)),
                        ("exp", _u(rng, 0.5, 1.5)), e)),
        ("expmix+exp", (expmix(), ("exp", _u(rng, 0.5, 1.5)), e)),
        ("expmix+chi2", (expmix(), ("chi2", 2.0), e)),
        ("exp+point", (("exp", _u(rng, 0.5, 1.5)),
                       ("point", _u(rng, 0.1, 1.0)), e)),
        ("exp+chi1", (("exp", _u(rng, 0.5, 1.5)), ("chi2", 1.0), e)),
        ("pois+geom@0.3", (("pois", _u(rng, 0.5, 2.0)),
                           ("geom", _u(rng, 0.5, 1.5)), p[0])),
        ("pois+geom@0.5", (("pois", _u(rng, 0.5, 2.0)),
                           ("geom", _u(rng, 0.5, 1.5)), p[1])),
        ("pois+geom@0.7", (("pois", _u(rng, 0.5, 2.0)),
                           ("geom", _u(rng, 0.5, 1.5)), p[2])),
        ("geom+point", (("geom", _u(rng, 0.5, 1.5)),
                        ("point", float(rng.integers(0, 3))), pr)),
        ("pois+pois", (("pois", _u(rng, 0.5, 2.0)),
                       ("pois", _u(rng, 0.5, 2.0)), pr)),
        ("geom+geom", (("geom", _u(rng, 0.5, 1.5)),
                       ("geom", _u(rng, 0.5, 1.5)), pr)),
        ("poismix+point", (("mix", _u(rng, 0.2, 0.8),
                            ("pois", _u(rng, 0.5, 2.0)),
                            ("geom", _u(rng, 0.5, 1.5))),
                           ("point", 0.0), pr)),
        ("unifmix+point", (("mix", _u(rng, 0.3, 0.9), ("unif",),
                            ("point", _u(rng, 0.1, 0.9))),
                           ("point", 0.0), ("unif",))),
        ("point+unifmix", (("point", 0.0),
                           ("mix", _u(rng, 0.3, 0.9), ("unif",),
                            ("point", _u(rng, 0.1, 0.9))), ("unif",))),
    ]


# Nulls and sizes that fail at this baseline.  They stay out of the measured
# operations, which must not fail, and are run once per null-prep run so
# that a fix shows as a drop in ``probe.known_failures``.
KNOWN_DEFECTS = [
    ("uniform01 reference at k=12 (sigma not PSD)",
     (("unif",), ("point", 0.0), ("unif",)), 300),
    ("uniform01 reference at k=14 (sigma not PSD)",
     (("unif",), ("point", 0.0), ("unif",)), 1000),
    ("exponential mixture + chi2(3): closed form does not converge",
     (("mix", 0.3, ("exp", 0.5), ("exp", 2.0)), ("chi2", 3.0), ("exp1",)), 100),
    ("gamma shape 0.7 + point mass: closed form does not converge",
     (("gamma", 0.7, 0.8), ("point", 0.5), ("exp1",)), 100),
]


class NullPrep(Workload):
    name = "null-prep"
    # A round takes about 0.7 s, but a run is kept to twenty rounds (880
    # operations) so that its tail, the 11th-slowest operation, is about
    # the 98.8th percentile: at 1848 operations it was the 99.5th and
    # landed on short host stalls, spreading 0.54 over ten seeds.
    seconds_per_round = 1.25

    def __init__(self, seed, smoke, outdir):
        super().__init__(seed, smoke, outdir)
        self.sizes = (100,) if smoke else (100, 300, 1000)
        self.config = dt.TestConfig(calibration="asymptotic")
        self.p_zero = 0
        self.setup_nulls = [spec for _, spec in
                            null_templates(np.random.default_rng(seed))]

    def prepare(self, spec, n, x):
        null = build_null(spec)
        coeffs = dt.compute_coefficients(null, default_kmax(n))
        return coeffs, dt.run_test(x, null, self.config, coeffs=coeffs)

    def run_round(self):
        ops = []
        for name, spec in null_templates(self.rng):
            # the shifted-Legendre route fails from k = 12 (n >= 245) on
            sizes = self.sizes[:1] if spec[2] == ("unif",) else self.sizes
            ops += [(name, spec, n) for n in sizes]
        records = []
        for i in self.rng.permutation(len(ops)):
            name, spec, n = ops[i]
            x = draw(spec[0], self.rng, n) + draw(spec[1], self.rng, n)
            out, rec = self.timed(f"{name}:{n}", 1, describe(spec),
                                  lambda: self.prepare(spec, n, x))
            records.append(rec)
            if out is not None:
                coeffs, res = out
                self.check_result(rec.key, res, x, spec[2], coeffs)
                want = oracle.chi2_1_sf(res.t_stat)
                if abs(res.p_value - want) > 1e-12:
                    self.problems.append(
                        f"{self.name} {rec.key}: p {res.p_value!r} != "
                        f"1 - chi2_cdf(T, 1) = {want!r}")
                # 1 - cdf rounds to 0 once T exceeds about 75; reported,
                # since null data reach such T at condition numbers near
                # the 1e12 cap
                self.p_zero += res.p_value == 0.0
        return records

    def finish(self):
        probe = []
        for label, spec, n in KNOWN_DEFECTS:
            x = draw(spec[0], self.rng, n) + draw(spec[1], self.rng, n)
            try:
                self.prepare(spec, n, x)
                outcome = "passes"
            except Exception as exc:  # the probe reports what it raised
                outcome = f"{type(exc).__name__}: {str(exc)[:160]}"
            probe.append({"case": label, "n": n, "outcome": outcome})
        return {"known_defects": probe,
                "known_failures": sum(p["outcome"] != "passes" for p in probe),
                "asymptotic_p_zero": self.p_zero}


WORKLOADS = {w.name: w for w in (TestStream, StudyGrid, NullPrep)}
