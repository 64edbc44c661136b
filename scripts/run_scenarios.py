#!/usr/bin/env python3
"""Run both packaged heating scenarios at their full resolution.

Writes VTK/CSV snapshots, per-step solver diagnostics, and a JSON summary
for the focused-pulse run (example 2) and the driven-source run
(example 3) under the output root.  Both take about two minutes in total
(46 s and 64 s on a 2-vCPU machine with BLAS on one thread).
"""
import argparse
import pathlib
import sys

from thermofem.cli import main as thermofem_main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args()

    for name in ("example2.json", "example3.json"):
        argv = ["scenario", "--config", str(CONFIGS / name)]
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
