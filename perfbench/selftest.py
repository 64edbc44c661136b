"""Self-test: two traced runs of the same code must count the same work.

    python3 perfbench/selftest.py [workload ...]

Runs ``run.py --trace 1`` twice per workload (all by default) with
different seeds and compares every count metric (spans.count_metrics)
exactly, so a later change can rest a claim on a count.  Exits 1 on any
difference or on a failed output check; a count absent from both runs
(its function no longer exists) is listed as absent.
"""
import json
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS
from spans import count_metrics


def traced_counts(workload: str, seed: int, names) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: output check failed in the traced run")
    return {k: v["value"] for k, v in result["metrics"].items() if k in names}


def main(names) -> int:
    bad = 0
    counts = count_metrics()
    for workload in names:
        first, second = (traced_counts(workload, seed, counts) for seed in (1, 2))
        for name in counts:
            a, b = first.get(name), second.get(name)
            status = "MISMATCH" if a != b else ("ok" if a is not None else "absent")
            bad += status == "MISMATCH"
            print(f"{workload:8s} {name:40s} {a!s:>12} {b!s:>12}  {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
