#!/usr/bin/env python3
"""odac benchmark: one workload per process, checked outputs, JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload score_lowdim --seed 1 --seconds 20 --trace 0

Each pass drives `odac.cli.main` in-process with the argv a user would
type, so interpreter start-up is outside the timed region. After one
untimed warm-up pass, passes repeat until --seconds is used up (at least
four). Every pass's output is checked against `reference.py`.

--trace 0 reports the end-to-end metrics: the median pass (`wall_s`),
the process's peak resident memory (`peak_rss_mib`) and the median of
three set-ups, each importing odac and writing the inputs in a fresh
interpreter (`setup_s`). --trace 1 wraps odac's public functions
(`tracer.py`) and reports per-layer metrics for one set-up plus the
median pass. The last line of standard output is the JSON result; it
is also written to perfbench/out/, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORK_DIR = os.path.join(BENCH_DIR, "work")
MIN_PASSES = 4
SETUP_REPS = 3

sys.path.insert(0, BENCH_DIR)
import tracer as tracing  # noqa: E402  (the benchmark's own modules, via BENCH_DIR)
import workloads  # noqa: E402

# Times one set-up in a fresh interpreter: import odac, write the inputs.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
src, bench, name, workdir, seed, size = sys.argv[1:]
sys.path[:0] = [src, bench]
import odac
import workloads
workloads.WORKLOADS[name].write_inputs(workdir, int(seed), size)
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no odac source, a set-up failed)."""


def _import_odac():
    if not os.path.isfile(os.path.join(SRC, "odac", "__init__.py")):
        raise BenchError(f"no odac source under {SRC}")
    sys.path.insert(0, SRC)
    import odac
    import odac.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(odac.__file__))) != SRC:
        raise BenchError(f"odac imported from {odac.__file__}, not from {SRC}")
    return odac


def _timed_setups(name, workdir, seed, size):
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, BENCH_DIR, name, workdir,
             str(seed), size],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def _run_pass(cli, argvs):
    """Run one pass; returns (seconds, indices of the calls that failed)."""
    failed = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for i, argv in enumerate(argvs):
            if cli.main(argv) != 0:
                failed.append(i)
    elapsed = time.perf_counter() - start
    return elapsed, failed


def _blas_threads():
    """OpenBLAS thread count from numpy's bundled library, if it has one."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def run(name, seed, seconds, trace, size="full"):
    """Measure one workload; returns (run details, the result printed last).

    size "smoke" shrinks every input so the benchmark's tests run in seconds.
    """
    workload = workloads.WORKLOADS[name]
    odac = _import_odac()
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    tracer = None
    try:
        setup_times = None if trace else _timed_setups(name, workdir, seed, size)
        if trace:
            tracer = tracing.Tracer()
            tracer.install(odac)
            mark = tracer.mark()
            workload.write_inputs(workdir, seed, size)
            setup_phase = ("setup", mark, tracer.mark())
        argvs = workload.operations(workdir, seed, size)
        expect = workload.expect(workdir, seed, size)

        problems, attempted, failed = [], 0, 0
        times, phases = [], []

        def one_pass(label):
            nonlocal attempted, failed
            mark = tracer.mark() if tracer else 0
            elapsed, bad = _run_pass(odac.cli, argvs)
            if tracer:
                phases.append((label, mark, tracer.mark()))
            attempted += len(argvs)
            failed += len(bad)
            if not bad:  # a failed call is counted, not checked
                problems.extend(f"{label}: {p}" for p in workload.check(workdir, expect))
            return elapsed

        one_pass("warmup")
        start = time.perf_counter()
        while True:
            times.append(one_pass(f"pass{len(times) + 1}"))
            used = time.perf_counter() - start
            if len(times) >= MIN_PASSES and used * (1 + 1 / len(times)) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": name, "seed": seed, "size": size, "passes_s": times,
        "environment": environment(),
    }
    if trace:
        per_pass = [tracer.phase_metrics(lo, hi) for _, lo, hi in phases[1:]]
        setup = tracer.phase_metrics(setup_phase[1], setup_phase[2])
        values = tracing.combine(setup, per_pass)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(values.items())}
        info["pass_self_share"] = _shares(tracing.combine({}, per_pass))
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{name}.jsonl"), [setup_phase] + phases)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
        info["setup_runs_s"] = setup_times
    info["problems"] = problems[:20]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def _shares(values):
    selfs = {layer: values.get(f"{layer}.self_s", 0.0) for layer in tracing.LAYERS}
    total = sum(selfs.values()) or 1.0
    return {layer: round(v / total, 4) for layer, v in selfs.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, ImportError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result}, handle, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
