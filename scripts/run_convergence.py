#!/usr/bin/env python3
"""Run the four packaged convergence studies and collect their tables.

Each study halves h across four meshes at fixed time step and reports the
total discrete energy error and the final-time L2 error, with observed
rates between consecutive meshes.  Results land as CSV files under the
output root (--output, THERMOFEM_OUTPUT_DIR, or the working directory).

All four take about a minute on one core with default settings (51 s on a
2-vCPU machine with BLAS on one thread); pass --jobs 4 to run the meshes of
each study in parallel.
"""
import argparse
import pathlib
import sys

from thermofem.cli import main as thermofem_main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
STUDIES = [
    "example1_euler_p1.json",
    "example1_euler_p1_kuznetsov.json",
    "example1_bdf2_p2.json",
    "example1_bdf2_p3.json",
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default=None)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()

    for name in STUDIES:
        argv = ["mms", "--config", str(CONFIGS / name), "--jobs", str(args.jobs)]
        if args.output:
            argv += ["--output", args.output]
        if args.dry_run:
            argv += ["--dry-run"]
        print(f"== {name} ==")
        code = thermofem_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
