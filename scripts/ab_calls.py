#!/usr/bin/env python3
"""Time one benchmark workload in two source trees, in alternating pairs.

    python scripts/ab_calls.py TREE_A TREE_B --workload mms-p1 --pairs 10

Each call is one fresh process that imports TREE's `src` and makes one
call of TREE's `perfbench/workloads.py` workload, with BLAS on one thread,
then checks its outputs against TREE's golden values.  Pair k runs A then B
when k is odd and B then A when it is even, so a drift of the host's
speed lands on both sides.  The script prints, per pair, both wall times,
the ratio B/A, both peak RSS readings and both checks; then each side's
median wall time with its quartiles, the median ratio, and in how many
pairs B was faster.  A last verdict line applies the gain rule: B shows
a gain when there are at least MIN_PAIRS pairs, B is faster in at least
nine tenths of them (a tie counts for neither side), and A's median wall
time exceeds B's by more than the distance between A's quartiles.
Times are measured seconds, not the benchmark's reference seconds: the
two calls of a pair run back to back on the same host.

The exit status is 0 when every call passed its check, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Runs in the child, with the tree's src and perfbench on its path.
CHILD = """
import json, resource, sys, tempfile, time
import workloads
wl = workloads.make(sys.argv[1])
golden = workloads.load_golden(sys.argv[1])
with tempfile.TemporaryDirectory() as outdir:
    start = time.perf_counter()
    result = wl.call(outdir)
    wall = time.perf_counter() - start
    failed, errors = wl.check(result, outdir, golden)
print(json.dumps({"wall_s": wall, "failed": failed, "attempted": wl.ops_per_call,
                  "errors": errors,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))
"""


def call(tree: Path, workload: str) -> dict:
    """One workload call of `tree` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"),
                                                       str(tree / "perfbench")]))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run([sys.executable, "-c", CHILD, workload], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: the {workload} call failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_text(result: dict) -> str:
    if result["failed"] == 0:
        return "ok"
    return f"failed {result['failed']}/{result['attempted']}"


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(walls_a, walls_b) -> str:
    """The gain rule applied to the wall times of the pairs, in pair order."""
    n = len(walls_a)
    wins = sum(b < a for a, b in zip(walls_a, walls_b))
    lo, hi = quartiles(walls_a)
    gap = statistics.median(walls_a) - statistics.median(walls_b)
    gain = n >= MIN_PAIRS and 10 * wins >= 9 * n and gap > hi - lo
    return (f"verdict: {'gain' if gain else 'no gain shown'} (B faster in {wins} of {n} pairs, "
            f"needs {math.ceil(0.9 * n)} and at least {MIN_PAIRS} pairs; "
            f"median gap {gap:.3f} s, needs more than A's quartile distance {hi - lo:.3f} s)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path, help="the base tree (A)")
    parser.add_argument("tree_b", type=Path, help="the changed tree (B)")
    parser.add_argument("--workload", required=True,
                        help="a workload name of perfbench/workloads.py, e.g. mms-p1")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    args = parser.parse_args(argv)
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        if not (tree / "perfbench" / "workloads.py").is_file():
            parser.error(f"{tree} has no perfbench/workloads.py")
        if not (tree / "src").is_dir():
            parser.error(f"{tree} has no src directory")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    print(f"A = {trees[0]}\nB = {trees[1]}\nworkload {args.workload}, {args.pairs} pairs, "
          f"BLAS on 1 thread")
    print(f"{'pair':>4} {'first':>5} {'A wall_s':>9} {'B wall_s':>9} {'B/A':>6} "
          f"{'A rss_mb':>9} {'B rss_mb':>9}  A check / B check")
    rows = []
    for k in range(1, args.pairs + 1):
        order = (0, 1) if k % 2 else (1, 0)
        result = [None, None]
        for side in order:
            result[side] = call(trees[side], args.workload)
        a, b = result
        rows.append((a, b))
        print(f"{k:>4} {'AB'[order[0]]:>5} {a['wall_s']:>9.3f} {b['wall_s']:>9.3f} "
              f"{b['wall_s'] / a['wall_s']:>6.3f} {a['peak_rss_mb']:>9.1f} "
              f"{b['peak_rss_mb']:>9.1f}  {check_text(a)} / {check_text(b)}", flush=True)

    walls = []
    for label, side in (("A", 0), ("B", 1)):
        walls.append([row[side]["wall_s"] for row in rows])
        lo, hi = quartiles(walls[-1])
        rss = statistics.median(row[side]["peak_rss_mb"] for row in rows)
        print(f"{label}: median wall_s {statistics.median(walls[-1]):.3f} "
              f"(quartiles {lo:.3f}, {hi:.3f}), median peak_rss_mb {rss:.1f}")
    ratios = [b / a for a, b in zip(*walls)]
    faster = sum(b < a for a, b in zip(*walls))
    print(f"median B/A {statistics.median(ratios):.3f}; B faster in {faster} of {len(rows)} pairs")
    print(verdict(*walls))
    for a, b in rows:
        for label, result in (("A", a), ("B", b)):
            for error in result["errors"]:
                print(f"{label} check: {error}")
    return 0 if all(a["failed"] == b["failed"] == 0 for a, b in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
