"""One workload call in a fresh process; prints one JSON line for run.py.

    python3 perfbench/worker.py run   --workload W [--setup-seconds S]
    python3 perfbench/worker.py trace --workload W
    python3 perfbench/worker.py golden --workload W

``run`` makes one workload call, checks its outputs, reads the process's
peak memory, and then times the workload's set-up calls for S seconds
(at least SETUP_MIN_REPS times).  It times the reference kernel before the
call, after it and after the set-up calls, so that run.py can rescale
the timings by the machine speed measured around them.  ``trace`` makes the call after
wrapping the program's public functions and adds the per-layer metrics.
``golden`` prints the headline values that the output check compares to.
run.py sets PYTHONPATH to the checkout's ``src`` and pins BLAS threads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy
import scipy

import reference
import thermofem
import workloads
from spans import Tracer, per_layer_units

TMP_ROOT = workloads.ROOT / ".bench_tmp"
SETUP_MIN_REPS = 3


def _time_setup(wl, seconds) -> list:
    """Durations of set-up repetitions for `seconds`, at least SETUP_MIN_REPS."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < SETUP_MIN_REPS or time.perf_counter() < end:
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def _timed_call(wl, golden):
    """(wall seconds, operations failed, error messages) of one workload call."""
    TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as outdir:
        start = time.perf_counter()
        try:
            result = wl.call(outdir)
        except Exception:
            return time.perf_counter() - start, wl.ops_per_call, [traceback.format_exc()]
        wall = time.perf_counter() - start
        return (wall, *wl.check(result, outdir, golden))


def _environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "trace", "golden"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-seconds", type=float, default=1.0)
    args = parser.parse_args(argv)

    src = (workloads.ROOT / "src").resolve()
    if src not in Path(thermofem.__file__).resolve().parents:
        print(f"thermofem imported from {thermofem.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload)
    out = {"environment": _environment()}

    if args.mode == "golden":
        TMP_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as outdir:
            out["headline"] = wl.headline(wl.call(outdir))
    elif args.mode == "trace":
        tracer = Tracer()
        tracer.install()
        wall, failed, errors = _timed_call(wl, workloads.load_golden(args.workload))
        out.update(wall=wall, attempted=wl.ops_per_call, failed=failed, errors=errors,
                   per_layer=tracer.metrics(per_layer_units(), wall))
    else:
        reference_s = [reference.seconds_per_pass()]
        wall, failed, errors = _timed_call(wl, workloads.load_golden(args.workload))
        out.update(wall=wall, attempted=wl.ops_per_call, failed=failed, errors=errors,
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        reference_s.append(reference.seconds_per_pass())
        out["setup_s"] = _time_setup(wl, args.setup_seconds)
        reference_s.append(reference.seconds_per_pass())
        out["reference_s"] = reference_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
