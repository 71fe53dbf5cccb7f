"""Spans around the package's public functions and methods.

The benchmark never edits the package.  While a ``Tracer`` is installed it
replaces selected public functions (in every package module that binds
them) and methods with wrappers that record one span per call:
``[name, start, end, parent span, operation id]``.  Spans stay in memory
and are written out once, at the end of the run.

A layer's self time is its span's duration minus the durations of its
child spans; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "deconvtest"
                                  or name.startswith("deconvtest."))]


def patch_function(owner, attr: str, make_wrapper) -> list:
    """Rebind ``owner.attr`` wherever a package module binds the same object.

    Returns the undo list for ``restore``.
    """
    current = getattr(owner, attr)
    wrapper = make_wrapper(current)
    undo = []
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is current:
                undo.append((mod, name, value))
                setattr(mod, name, wrapper)
    return undo


def patch_method(cls, attr: str, make_wrapper) -> list:
    current = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(current))
    return [(cls, attr, current)]


def restore(undo: list) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic of ``values``
    with at least ten samples beyond it; with ten or fewer samples there
    is none, and the maximum is used."""
    ordered = np.sort(np.asarray(values, dtype=float))
    i = ordered.size - 11 if ordered.size > 10 else ordered.size - 1
    return float(ordered[i]), 100.0 * (i + 1) / ordered.size


class Tracer:
    """Records spans for the layers listed in ``LAYERS`` while installed."""

    LAYERS = (
        "orthopoly.certify", "orthopoly.eval", "engines.rule",
        "nullmodel.coeffs_closed_form", "nullmodel.eigen_diag",
        "measures.null_sample",
        "teststat.engine_init", "teststat.calibration", "teststat.statistic",
        "teststat.run", "simlab.replication_sample", "simlab.cell",
        "simlab.grid", "cli.simulate_overhead",
    )

    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self.generators = Counter()       # op -> RngStream.generator calls
        self.statistic_values = 0          # rows x n evaluated by statistic_batch
        self.statistic_peak = 0            # bytes, tracemalloc peak inside it
        self._stack: list[int] = []
        self._undo: list = []
        self.paused = False

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            label = name if name_of is None else name_of(args, kwargs)
            rec = [label, perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
        return wrapper

    def _wrap_statistic(self, fn):
        tracer = self
        inner = self._wrap("teststat.statistic", fn)

        @functools.wraps(fn)
        def wrapper(engine, samples):
            if tracer.paused:
                return fn(engine, samples)
            tracer.statistic_values += int(np.asarray(samples).size)
            tracemalloc.start()
            try:
                return inner(engine, samples)
            finally:
                tracer.statistic_peak = max(tracer.statistic_peak,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    def _count_generators(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.generators[tracer.op] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        from deconvtest import cli, engines, nullmodel, orthopoly, simlab
        from deconvtest.measures import RngStream
        from deconvtest.simlab import ScenarioSpec
        from deconvtest.teststat import TestEngine

        def coeff_label(args, kwargs):
            method = kwargs.get("method", args[2] if len(args) > 2 else None)
            null = kwargs.get("null", args[0] if args else None)
            if method is None:
                method = "closed_form" if null.independent else "monte_carlo"
            return ("nullmodel.coeffs_closed_form" if method == "closed_form"
                    else "nullmodel.coeffs_other")

        span = self._wrap
        undo = []
        undo += patch_function(orthopoly, "certify_orthonormality",
                               lambda f: span("orthopoly.certify", f))
        undo += patch_method(orthopoly.BasisTable, "eval_normalized",
                             lambda f: span("orthopoly.eval", f))
        undo += patch_function(engines, "expectation_rule",
                               lambda f: span("engines.rule", f))
        undo += patch_function(nullmodel, "compute_coefficients",
                               lambda f: span("", f, name_of=coeff_label))
        undo += patch_function(nullmodel, "eigen_floor_diagnostics",
                               lambda f: span("nullmodel.eigen_diag", f))
        undo += patch_method(RngStream, "generator", self._count_generators)
        undo += patch_method(TestEngine, "sample_null_batch",
                             lambda f: span("measures.null_sample", f))
        undo += patch_method(TestEngine, "__init__",
                             lambda f: span("teststat.engine_init", f))
        undo += patch_method(TestEngine, "calibration_values",
                             lambda f: span("teststat.calibration", f))
        undo += patch_method(TestEngine, "statistic_batch", self._wrap_statistic)
        undo += patch_method(TestEngine, "run",
                             lambda f: span("teststat.run", f))
        undo += patch_method(ScenarioSpec, "sample",
                             lambda f: span("simlab.replication_sample", f))
        undo += patch_function(simlab, "run_replications",
                               lambda f: span("simlab.cell", f))
        undo += patch_function(simlab, "level_power_table",
                               lambda f: span("simlab.grid", f))
        undo += patch_function(cli, "main",
                               lambda f: span("cli.simulate_overhead", f))
        self._undo = undo

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- analysis --------------------------------------------------------

    def self_times(self) -> np.ndarray:
        dur = np.array([s[2] - s[1] for s in self.spans])
        own = dur.copy()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= dur[i]
        return own

    def layer_metrics(self, ops: list[int], op_latency: dict[int, float]) -> dict:
        """Per-layer metrics over the traced operations ``ops``.

        ``<layer>_s`` is self seconds per operation; ``_p50_s`` and
        ``_tail_s`` summarize self seconds per call.
        """
        own = self.self_times()
        traced = set(ops)
        per_call = defaultdict(list)
        per_op = defaultdict(float)
        for s, t in zip(self.spans, own):
            if s[4] in traced:
                per_call[s[0]].append(t)
                per_op[s[4]] += t
        n_ops = max(len(traced), 1)
        out = {}
        for layer in self.LAYERS:
            calls = per_call.get(layer, [])
            out[f"{layer}_s"] = float(np.sum(calls)) / n_ops
            out[f"{layer}_p50_s"] = float(np.median(calls)) if calls else 0.0
            out[f"{layer}_tail_s"] = tail(calls)[0] if calls else 0.0
            out[f"{layer}_calls"] = len(calls) / n_ops
        shares = [per_op[o] / op_latency[o] for o in traced if op_latency.get(o)]
        out["trace.self_share"] = float(np.median(shares)) if shares else 0.0
        out["trace.spans_per_op"] = sum(len(v) for v in per_call.values()) / n_ops
        out["measures.generators_built"] = (
            sum(self.generators[o] for o in traced) / n_ops)
        return out

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3],
                                     "op": s[4]}) + "\n")
