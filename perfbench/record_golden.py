"""Record the headline values the benchmark's output check compares to.

    python3 perfbench/record_golden.py

Runs each workload once through worker.py and rewrites golden.json.  Run
it only when a change to the program is meant to change these numbers,
and say so with the measured drift.
"""
import json
import time

from run import HERE, TIME_LIMIT_S, WORKLOADS, run_child

if __name__ == "__main__":
    golden = {}
    for name in WORKLOADS:
        golden[name] = run_child("golden", name, time.monotonic() + TIME_LIMIT_S)["headline"]
        print(name, golden[name])
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
