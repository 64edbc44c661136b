"""thermofem benchmark: time to solution, set-up time and memory of three workloads.

    python3 perfbench/run.py --workload driven --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # table of every workload

Run from the root of a checkout.  Every workload call runs in a fresh
child process (worker.py), as a user's scenario or study would, with
PYTHONPATH set to the checkout's ``src`` and the BLAS thread count pinned
to BLAS_THREADS (at most nproc).  The workloads hold no random data, so
the seed is only recorded.

With ``--trace 0`` calls repeat until the next one would end after
``--seconds``, and at least MIN_CALLS times.  It reports per workload:

* ``wall_s``: the median over calls of the wall time of the workload call
  (``run_scenario`` or ``convergence_study``);
* ``setup_s``: the median time of everything a run does before its first
  step (mesh, space, tabulations, matrices, initial projection), repeated
  for SETUP_SLICE_S after each call;
* ``peak_rss_mb``: the median peak resident memory of the call's process,
  read before the set-up repetitions.

Both times are in reference seconds: the measured seconds times
reference.REFERENCE_S over the median time of the reference kernel, timed
before and after every call and after its set-up repetitions, that is,
seconds on a machine as fast as the reference one.  The host's speed drifts
by more than the metrics' bounds within an hour, and the rescaling takes
much of that drift out.  The measured seconds, the reference timings and
the number of calls are printed on the record line.

With ``--trace 1`` it makes one traced call and reports the per-layer
metrics named in BENCHMARK.json; ``trace.overhead_frac`` is the spans'
measured cost over the call's time without them.

Every call is checked against golden.json; an operation (one scenario run,
one mesh of a study) that raises or fails the check counts in ``failed``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and a human-readable table including ``fail_frac``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from spans import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("driven", "mms-p1", "mms-p3")
# One BLAS thread: on a shared 2-core machine two threads gave the same wall
# time for twice the CPU time, and runs spread more when a neighbour is busy.
BLAS_THREADS = 1
# Set-up repetitions follow each workload call, so their median covers the
# whole run rather than one stretch of a noisy machine.
SETUP_SLICE_S = 1.0
# Enough calls for a median that one slow call does not move.
MIN_CALLS = 3
TIME_LIMIT_S = 170.0  # a run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(mode: str, workload: str, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process of {workload}")
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} process of {workload} timed out after {timeout:.0f} s") from e
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seconds: float, trace: bool, deadline: float) -> dict:
    """Metrics of one workload; every workload call runs in a fresh process."""
    if trace:
        calls = [run_child("trace", workload, deadline)]
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in calls[0]["per_layer"].items()}
    else:
        calls = []
        end = time.monotonic() + seconds
        while True:
            started = time.monotonic()
            calls.append(run_child("run", workload, deadline,
                                   "--setup-seconds", str(SETUP_SLICE_S)))
            now = time.monotonic()
            if len(calls) >= MIN_CALLS and now + (now - started) > end:
                break
        scale = reference.REFERENCE_S / statistics.median(
            t for c in calls for t in c["reference_s"])
        metrics = {
            "wall_s": {"value": scale * statistics.median(c["wall"] for c in calls),
                       "unit": "s"},
            "setup_s": {"value": scale * statistics.median(t for c in calls for t in c["setup_s"]),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in calls),
                            "unit": "MB"},
        }
    for c in calls:
        for err in c["errors"]:
            print(f"{workload}: check failed: {err}", file=sys.stderr)
    return {"workload": workload, "environment": calls[0]["environment"],
            "calls": len(calls), "walls": [c["wall"] for c in calls],
            "setup_runs": [t for c in calls for t in c.get("setup_s", ())],
            "reference_runs": [t for c in calls for t in c.get("reference_s", ())],
            "attempted": sum(c["attempted"] for c in calls),
            "failed": sum(c["failed"] for c in calls), "metrics": metrics}


def _table_line(rec: dict) -> str:
    parts = [f"{rec['workload']:8s}"]
    parts += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in rec["metrics"].items()
              if k in ("wall_s", "setup_s", "peak_rss_mb", "trace.wall_s", "trace.overhead_frac")]
    if "wall_s" in rec["metrics"]:
        parts.append(f"(measured wall {statistics.median(rec['walls']):.6g} s "
                     f"over {rec['calls']} calls)")
    parts.append(f"fail_frac {rec['failed'] / rec['attempted']:.6g} "
                 f"({rec['failed']}/{rec['attempted']} operations)")
    return "  ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads hold no random data")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in ("src/thermofem/__init__.py", "configs/example3.json"):
        if not (ROOT / needed).is_file():
            print(f"{ROOT / needed} not found: run from a thermofem checkout", file=sys.stderr)
            return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    try:
        records = [measure(w, args.seconds, bool(args.trace), deadline) for w in names]
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    for rec in records:
        print(json.dumps({"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
                          **{k: rec[k] for k in ("workload", "environment", "calls", "walls",
                                                 "setup_runs", "reference_runs")}}))
    for rec in records:
        print(_table_line(rec))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
