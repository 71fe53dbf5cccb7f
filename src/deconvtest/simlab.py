"""Simulation study: empirical level and power over replications.

Every scenario draws X = Y + Z and tests it against a model's null.  Two
convolution models and six alternatives are built in.  The first model
takes an exponential signal with mean 1 plus chi-squared(1) noise and is
challenged by an exponential/chi-squared mixture (Alt1) and by confusions
of its two components (Alt2, Alt3).  The second takes a Poisson(1) signal
plus geometric noise with mean 1 and is challenged analogously (Alt4 is a
mixture, Alt5/Alt6 are confusions).  A mixture is Y with Z a point mass at
0, which draws no randomness and adds 0, so it draws the mixture's values
bit for bit.  Alternatives are always tested against the corresponding
model's null.

A cell runs on the engine it is given, which fixes the null, n and config.
Its replications are T of the scenario's rows through the engine's one
block loop (``TestEngine.t_stats``), as calibration rows are; block b
draws from stream index b of the master seed, so the cells of a grid
share the block streams and reproduce bit for bit in any order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import sqrt

import numpy as np

from .measures import (
    ChiSquared, Distribution, Exponential, Exponential1Ref, Geometric,
    GeometricRef, Mixture, PointMass, Poisson, RngStream, draw_sum,
)
from .nullmodel import NullSpec, plain_dict
from .teststat import TestConfig, TestEngine

_Z95 = 1.959963984540054

# scenario -> (model, Y, Z); a model's own row gives its null's laws, and a
# mixture alternative is Y with Z a point mass at 0
_SCENARIOS = {
    "Mod1": ("Mod1", Exponential(1.0), ChiSquared(1)),
    "Alt1": ("Mod1", Mixture(0.5, Exponential(2.0), ChiSquared(2)),
             PointMass(0.0)),
    "Alt2": ("Mod1", Exponential(1.0), Exponential(1.0)),
    "Alt3": ("Mod1", ChiSquared(1), ChiSquared(1)),
    "Mod2": ("Mod2", Poisson(1.0), Geometric(1.0)),
    "Alt4": ("Mod2", Mixture(0.5, Poisson(2.0), Geometric(2.0)),
             PointMass(0.0)),
    "Alt5": ("Mod2", Poisson(1.0), Poisson(1.0)),
    "Alt6": ("Mod2", Geometric(1.0), Geometric(1.0)),
}
_REFERENCES = {"Mod1": Exponential1Ref(), "Mod2": GeometricRef(0.5)}

SCENARIO_NAMES = tuple(_SCENARIOS)


@dataclass(frozen=True)
class ScenarioSpec:
    """Data X = Y + Z paired with the null it is tested against."""

    name: str
    null: NullSpec
    y: Distribution
    z: Distribution

    @property
    def truth_is_null(self) -> bool:
        return (self.y, self.z) == (self.null.y, self.null.z)

    def sample(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return draw_sum(self.y, self.z, gen, n)


def build_scenario(name: str) -> ScenarioSpec:
    """Fully parameterized scenario for one of the built-in names."""
    if name not in _SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; expected one of "
                         f"{', '.join(SCENARIO_NAMES)} ")
    model, y, z = _SCENARIOS[name]
    _, null_y, null_z = _SCENARIOS[model]
    return ScenarioSpec(name, NullSpec(null_y, null_z, _REFERENCES[model]),
                        y, z)


def wilson_interval(successes: int, trials: int,
                    z: float = _Z95) -> tuple[float, float]:
    """Score-based binomial confidence interval (stable at extreme rates)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} must lie in [0, trials] "
                         f"with trials {trials}")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials
                    + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass
class SimReport:
    """Rejection rate and confidence band for one scenario x sample size.

    ``truth_is_null`` says whether the data follow the null, so that the
    rate is a level rather than a power.
    """

    scenario: str
    truth_is_null: bool
    n: int
    reps: int
    rejections: int
    errors: int
    reject_rate: float
    ci_low: float
    ci_high: float
    seconds: float

    def to_dict(self) -> dict:
        return plain_dict(self)


def run_replications(engine: TestEngine, scenario: ScenarioSpec, reps: int,
                     master_seed: int) -> SimReport:
    """Rejection rate of the test over blocks of replications.

    The engine fixes the null, n and config; a scenario with another null
    is refused.  The replications are ``engine.t_stats`` of the scenario's
    rows, block b from stream index b of ``master_seed``, drawn as values
    by one ``scenario.sample(gen, rows * n)`` call.  A replication whose
    data leaves the reference support counts as an error, not a rejection.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if scenario.null != engine.null:
        raise ValueError(f"scenario {scenario.name} is tested against "
                         "another null than the engine's")
    start, n = time.perf_counter(), engine.n
    t_stat = engine.t_stats(
        scenario.y, scenario.z, reps, lambda b: RngStream(master_seed, b),
        lambda rows, stream: scenario.sample(stream.generator(), rows * n))
    errors = int(np.count_nonzero(np.isnan(t_stat)))
    rejections = (int(np.sum(t_stat > engine.critical_value()))
                  if errors < reps else 0)
    rate = rejections / reps
    lo, hi = wilson_interval(rejections, reps)
    return SimReport(
        scenario=scenario.name, truth_is_null=scenario.truth_is_null, n=n,
        reps=reps, rejections=rejections, errors=errors, reject_rate=rate,
        ci_low=lo, ci_high=hi, seconds=time.perf_counter() - start)


def level_power_table(scenarios, n_grid, reps: int, config: TestConfig,
                      master_seed: int) -> list[SimReport]:
    """Rejection-rate grid over scenario names x sample size.

    Scenarios sharing a null (a model and its alternatives) reuse one
    prepared engine per sample size, so each calibration runs once.
    """
    specs = [build_scenario(s) for s in scenarios]
    engines: dict[tuple[NullSpec, int], TestEngine] = {}
    rows: list[SimReport] = []
    for spec in specs:
        for n in n_grid:
            key = (spec.null, int(n))
            if key not in engines:
                engines[key] = TestEngine(spec.null, int(n), config)
            rows.append(run_replications(engines[key], spec, reps,
                                         master_seed))
    return rows
