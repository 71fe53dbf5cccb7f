#!/usr/bin/env python3
"""deconvtest benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload test-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout: the package is imported from its ``src/`` directory,
never from an installed copy, and the run fails without printing a result
when ``src/`` is missing.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics and the tracing overhead.  ``--smoke`` runs every
workload at tiny sizes, traced, and exits non-zero on any failure.  See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 3
GUARD = 2.5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Interpreter start, package import and the first NullSpec of every null the
# workload uses, in a fresh process.
SETUP_CODE = (
    "import json, sys; sys.path[:0] = sys.argv[1:3]; import deconvtest; "
    "from workloads import build_null; "
    "[build_null(s) for s in json.loads(sys.argv[3])]")


def cap_blas_threads() -> int:
    """Run BLAS/OpenMP single-threaded; returns the usable CPU count.

    The workloads are one client each, and their matrices are small.  On a
    shared 2-CPU machine a second BLAS thread made a 400 x 400 ``eigh``
    take up to 2.5 s instead of 0.03 s and a Monte Carlo ``run_test`` 1.7
    times slower, and its stalls were the largest source of run-to-run
    spread.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, or the environment cap."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"cap {os.environ['OPENBLAS_NUM_THREADS']}"


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc, "cpu": model, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


def measure_setup(nulls: list, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE),
             json.dumps(nulls)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return times


def run_rounds(workload, seconds: float, tracer, smoke: bool):
    """A fixed number of whole rounds; odd rounds traced if ``tracer``.

    ``seconds`` sizes the run: it is divided by the workload's
    ``seconds_per_round``, so every run of a workload does the same
    operations however fast the machine is, and order statistics such as
    the tail always fall at the same rank.  A run stops early only if it takes more
    than ``GUARD`` times ``seconds``.

    An untimed warm-up round comes first, so that lazy imports and heap
    growth do not land on the first measured operations.  Its outputs are
    still checked.
    """
    rounds = 2 if smoke else max(1, round(seconds / workload.seconds_per_round))
    if tracer is not None:
        rounds += rounds % 2
    workload.run_round()
    workload.busy = 0.0
    records = []
    start = perf_counter()
    for index in range(rounds):
        traced = tracer is not None and index % 2 == 1
        workload.tracer = tracer if traced else None
        if traced:
            tracer.install()
        try:
            batch = workload.run_round()
        finally:
            if traced:
                tracer.uninstall()
            workload.tracer = None
        for rec in batch:
            rec.traced = traced
        records += batch
        late = perf_counter() - start > GUARD * seconds
        if late and (tracer is None or index % 2 == 1):
            break
    return records


def end_to_end(workload, records, setup_times) -> tuple[dict, dict]:
    from spans import tail
    lat = [r.latency for r in records]
    ok = [r for r in records if r.error is None]
    tail_value, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "ok_frac": (len(ok) / len(records), "fraction"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_value, "s"),
        "samples_per_s": (sum(r.samples for r in ok) / workload.busy, "1/s"),
    }
    by_key = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.latency)
    facts = {"ops": len(records), "op_tail_percentile": round(tail_pct, 1),
             "setup_runs": [round(t, 4) for t in setup_times],
             "op_p50_by_key": {k: round(statistics.median(v), 5)
                               for k, v in sorted(by_key.items())}}
    return metrics, facts


def per_layer(tracer, records, extra: dict) -> dict:
    traced = [r for r in records if r.traced]
    plain = [r for r in records if not r.traced]
    metrics = tracer.layer_metrics([r.op for r in traced],
                                   {r.op: r.latency for r in traced})
    own = tracer.self_times()
    names = [s[0] for s in tracer.spans]
    stat = sum(t for t, n in zip(own, names) if n == "teststat.statistic")
    calibrations = names.count("measures.null_sample")
    mean_traced = statistics.fmean(r.latency for r in traced)
    mean_plain = statistics.fmean(r.latency for r in plain)
    metrics.update({
        "teststat.statistic_ns_per_value":
            1e9 * stat / tracer.statistic_values if tracer.statistic_values
            else 0.0,
        "teststat.statistic_peak_mb": tracer.statistic_peak / 2**20,
        "simlab.cells_per_calibration":
            names.count("simlab.cell") / calibrations if calibrations else 0.0,
        "trace.overhead_s": mean_traced - mean_plain,
        "trace.overhead_frac": (mean_traced - mean_plain) / mean_plain,
        "probe.known_failures": float(extra.get("known_failures", 0)),
    })
    return metrics


def run_workload(cls, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: dict):
    """Returns (result document, facts for the info line)."""
    from spans import Tracer
    OUT.mkdir(parents=True, exist_ok=True)
    workload = cls(seed, smoke, OUT)
    setup_times = measure_setup(workload.setup_nulls,
                                1 if smoke else SETUP_RUNS)
    tracer = Tracer() if trace else None
    records = run_rounds(workload, seconds, tracer, smoke)
    extra = workload.finish()
    info = {"workload": workload.name, "seed": seed, "trace": int(trace),
            "env": env}
    if trace:
        values = per_layer(tracer, records, extra)
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in values.items()}
        spans_path = OUT / f"spans-{workload.name}-{seed}.jsonl"
        tracer.dump(spans_path, info)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values, facts = end_to_end(workload, records, setup_times)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        info.update(facts)
    info.update(extra)
    info["failures"] = workload.failures
    info["problems"] = workload.problems[:20]
    result = {"correct": not workload.problems, "attempted": len(records),
              "failed": sum(r.error is not None for r in records),
              "metrics": metrics}
    return result, info


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ns_per_value"):
        return "ns"
    if name.endswith("_frac") or name.endswith("_share"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, traced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    nproc = cap_blas_threads()   # before NumPy is first imported
    if not (SRC / "deconvtest" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import deconvtest
    if Path(deconvtest.__file__).resolve().parent != SRC / "deconvtest":
        print(f"error: imported {deconvtest.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    env = environment(nproc)

    if args.smoke:
        ok = True
        for cls in WORKLOADS.values():
            result, info = run_workload(cls, args.seed, 0.0, True, True, env)
            print("# " + json.dumps(info))
            print(json.dumps(result), flush=True)
            ok = ok and result["correct"] and result["failed"] == 0
        return 0 if ok else 1

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, info = run_workload(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), False, env)
    print("# " + json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
