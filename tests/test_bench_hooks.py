"""The benchmark's span targets exist in the package.

``perfbench/spans.py`` wraps package functions and methods by name.  A
rename there would fail every benchmark run; here it fails the suite.  The
file is only read, never imported.
"""

import inspect
import re
import sys
from collections import Counter
from pathlib import Path

import deconvtest
import deconvtest.cli  # noqa: F401  (not imported by the package itself)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_TARGET = re.compile(r'patch_(function|method)\(([\w.]+), "(\w+)"')


def _resolve(path: str):
    obj = deconvtest
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_patch_target_resolves():
    targets = _TARGET.findall(SPANS.read_text())
    assert len(targets) >= 10, "no patch targets found in perfbench/spans.py"
    missing = []
    for kind, owner, attr in targets:
        try:
            obj = _resolve(owner)
        except AttributeError:
            missing.append(f"{owner} (owner of {attr})")
            continue
        # patch_method reads the class __dict__; patch_function getattr
        found = (attr in vars(obj)) if kind == "method" else callable(
            getattr(obj, attr, None))
        if not found:
            missing.append(f"{owner}.{attr}")
    assert not missing, f"perfbench patch targets not in the package: {missing}"


def test_coefficient_method_is_third_positional():
    # perfbench labels coefficient spans by ``args[2]``, so a reorder of
    # the parameters would mislabel them without failing
    params = list(inspect.signature(
        deconvtest.nullmodel.compute_coefficients).parameters)
    assert params[:3] == ["null", "k", "method"]


def test_nulls_say_they_are_independent(mod1_null):
    # perfbench labels a coefficient span whose method is omitted by
    # ``null.independent``; while it does, a library null must carry it
    if "null.independent" in SPANS.read_text():
        assert mod1_null.independent is True


def test_calibration_draws_through_the_spanned_methods(monkeypatch):
    # perfbench times calibration sampling through sample_null_batch, so
    # each block of a value calibration must be drawn by one call of it;
    # a count calibration draws each block by one teststat.sample_counts
    # call instead
    from deconvtest import teststat
    from deconvtest.simlab import build_scenario
    from deconvtest.teststat import TestConfig, TestEngine

    calls = Counter()

    def counted(engine, rows, stream, method=TestEngine.sample_null_batch):
        calls["sample_null_batch"] += 1
        return method(engine, rows, stream)

    def counted_counts(*args, function=teststat.sample_counts):
        calls["sample_counts"] += 1
        return function(*args)
    monkeypatch.setattr(TestEngine, "sample_null_batch", counted)
    monkeypatch.setattr(teststat, "sample_counts", counted_counts)
    # 2000 rows of 500 draws are four blocks, by values on Mod1 and by
    # counts on Mod2
    for model, route in (("Mod1", "sample_null_batch"),
                         ("Mod2", "sample_counts")):
        calls.clear()
        TestEngine(build_scenario(model).null, 500,
                   TestConfig()).calibration_values()
        assert calls == {route: 4}


def test_study_value_cells_sample_once_per_block(monkeypatch):
    # perfbench times study sampling through ScenarioSpec.sample, so a
    # value cell draws each block of replications by one call of it; a
    # count cell draws counts and calls it not at all
    from deconvtest.simlab import ScenarioSpec, build_scenario, run_replications
    from deconvtest.teststat import TestConfig, TestEngine

    calls, config = Counter(), TestConfig(calibration="asymptotic")

    def counted(spec, gen, size, method=ScenarioSpec.sample):
        calls[spec.name] += 1
        return method(spec, gen, size)
    monkeypatch.setattr(ScenarioSpec, "sample", counted)
    # 2000 replications of 500 draws are four blocks
    for name in ("Mod1", "Alt1", "Mod2"):
        spec = build_scenario(name)
        run_replications(TestEngine(spec.null, 500, config), spec, 2000, 9)
    assert calls == {"Mod1": 4, "Alt1": 4}


def test_coefficients_take_rules_through_the_spanned_name(monkeypatch,
                                                          mod1_null):
    # perfbench spans the Gauss rules by rebinding engines.expectation_rule
    # wherever a package module binds it; a caller that goes around that
    # name would leave engines.rule_* at zero instead of failing
    from deconvtest import engines
    from deconvtest.nullmodel import compute_coefficients

    current, calls = engines.expectation_rule, []

    def spanned(*args, **kwargs):
        calls.append(args[0])
        return current(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "deconvtest"
                                   or name.startswith("deconvtest.")):
            for attr, value in list(vars(module).items()):
                if value is current:
                    monkeypatch.setattr(module, attr, spanned)
    # two axes, each at two tilts
    for method in ("closed_form", "quadrature"):
        calls.clear()
        compute_coefficients(mod1_null, 8, method)
        assert Counter(law.kind for law in calls) == {
            "exponential": 2, "chi_squared": 2}, method
