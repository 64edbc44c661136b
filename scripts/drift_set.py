#!/usr/bin/env python3
"""Write a fixed set of cut runs of the shipped configs, to measure drift.

    PYTHONPATH=src python scripts/drift_set.py OUTDIR

Each case runs through the `thermofem` command line into OUTDIR/<case>:
the four manufactured-solution studies cut to t = 0.25 (P3: t = 0.5),
example 3 cut to 8 steps, and example 2 cut to 10 steps at P1 and to 6
steps at P2 (h = 3e-3) and P3 (h = 4e-3).  Every scenario case writes one
snapshot, at its last step.  Run the script in two source trees and
compare the outputs file by file:

    (cd A && PYTHONPATH=src python scripts/drift_set.py /tmp/drift_a)
    (cd B && PYTHONPATH=src python scripts/drift_set.py /tmp/drift_b)
    python scripts/compare_outputs.py /tmp/drift_a /tmp/drift_b
"""
import argparse
import json
import pathlib
import sys
import tempfile

from thermofem.cli import main as thermofem_main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def _config(name: str, **changes) -> dict:
    return dict(json.loads((CONFIGS / name).read_text()), **changes)


def _steps(name: str, steps: int, **changes) -> dict:
    data = _config(name, **changes)
    return dict(data, final_time=steps * data["tau"], snapshots=[steps])


def cases() -> dict:
    """Case name -> (thermofem subcommand, config dict)."""
    return {
        "euler_p1": ("mms", _config("example1_euler_p1.json", final_time=0.25)),
        "euler_p1_kuznetsov": ("mms", _config("example1_euler_p1_kuznetsov.json",
                                              final_time=0.25)),
        "bdf2_p2": ("mms", _config("example1_bdf2_p2.json", final_time=0.25)),
        "bdf2_p3": ("mms", _config("example1_bdf2_p3.json", final_time=0.5)),
        "example3_p1": ("scenario", _steps("example3.json", 8)),
        "example2_p1": ("scenario", _steps("example2.json", 10)),
        "example2_p2": ("scenario", _steps("example2.json", 6, degree=2, h=3e-3)),
        "example2_p3": ("scenario", _steps("example2.json", 6, degree=3, h=4e-3)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=pathlib.Path)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (command, data) in cases().items():
            config = pathlib.Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(data))
            print(f"== {name} ==")
            code = thermofem_main([command, "--config", str(config),
                                   "--output", str(args.outdir / name)])
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
