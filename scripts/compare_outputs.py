#!/usr/bin/env python3
"""Compare the output files of two runs, written into two directory trees.

    python scripts/compare_outputs.py DIR_A DIR_B

Every file at the same relative path in both trees gets one line: either
"identical", when the bytes agree, or the largest relative difference
|a - b| / max(|a|, |b|) over each numeric column.  The columns are the
header fields of a CSV file, the keys of a JSON file (nested keys joined
by dots, the entries of a list pooled under its key), and for any other
text file, such as a VTK snapshot, one column "values" holding every
whitespace-separated number.  A file whose text fields or number of
values differ is reported as "structure differs".  Files found in one
tree only are listed after the shared ones.

The exit status is 0 when both trees hold the same files, byte for byte,
and 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_fields(text: str):
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    for line in lines[1:]:
        for name, field in zip(header, line.split(",")):
            yield name, field
        yield "#fields", str(len(line.split(",")))


def _json_fields(value, key: str = ""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _json_fields(v, f"{key}.{k}" if key else str(k))
    elif isinstance(value, list):
        for v in value:
            yield from _json_fields(v, key)
        yield f"{key}#len", str(len(value))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, repr(value)
    else:
        yield key, json.dumps(value)


def columns(path: Path, text: str):
    """Numeric values by column name, and the other fields, in file order."""
    if path.suffix == ".csv":
        fields = _csv_fields(text)
    elif path.suffix == ".json":
        fields = _json_fields(json.loads(text))
    else:
        fields = (("values", token) for token in text.split())
    numeric: dict = {}
    other = []
    for name, field in fields:
        value = None if name.endswith(("#len", "#fields")) else _number(field)
        if value is None:
            other.append((name, field))
        else:
            numeric.setdefault(name, []).append(value)
    return numeric, other


def max_relative_difference(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(same, 0.0, rel).max(initial=0.0))


def compare_file(a: Path, b: Path) -> str:
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return "identical"
    try:
        num_a, other_a = columns(a, raw_a.decode())
        num_b, other_b = columns(b, raw_b.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "structure differs (not text of a known layout)"
    if other_a != other_b or num_a.keys() != num_b.keys() or any(
            len(num_a[k]) != len(num_b[k]) for k in num_a):
        return "structure differs"
    return ", ".join(f"{k} {max_relative_difference(num_a[k], num_b[k]):.2g}" for k in num_a)


def compare_trees(dir_a: Path, dir_b: Path) -> tuple[list, bool]:
    """Report lines for two trees, and whether they hold the same bytes."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines = []
    same = files_a == files_b
    for rel in sorted(files_a & files_b):
        result = compare_file(dir_a / rel, dir_b / rel)
        same = same and result == "identical"
        lines.append(f"{rel}: {result}")
    lines += [f"only in {dir_a}: {rel}" for rel in sorted(files_a - files_b)]
    lines += [f"only in {dir_b}: {rel}" for rel in sorted(files_b - files_a)]
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    for d in (args.dir_a, args.dir_b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    lines, same = compare_trees(args.dir_a, args.dir_b)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
