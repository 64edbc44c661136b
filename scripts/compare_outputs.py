#!/usr/bin/env python3
"""Compare the output files of two runs, written into two directory trees.

    python scripts/compare_outputs.py DIR_A DIR_B

Every file at the same relative path in both trees gets one line: either
"identical", when the bytes agree, or two figures per numeric column, as
"name R (S of max)".  R is the largest relative difference
|a - b| / max(|a|, |b|) over the column's values; S is the largest
|a - b| over the largest |value| of the column on either side.  An entry
near zero can decide R alone (2.7e-47 against 2.9e-47 reads 0.069 in a
column whose values reach 1e-10), so S tells rounding noise on such an
entry from drift at the column's scale.  The columns are the
header fields of a CSV file, the keys of a JSON file (nested keys joined
by dots, the entries of a list pooled under its key), and for any other
text file, such as a VTK snapshot, one column "values" holding every
whitespace-separated number.  Only the columns both files have are
compared; the columns of one file only are listed after them, as
"added" (in DIR_B only) or "removed" (in DIR_A only).  A file whose
shared columns differ in their text fields or number of values is
reported as "structure differs".  A pair of step reports (steps.csv)
also gets the summed iterations and factorizations of each side, as
"iterations A -> B", since a relative difference does not tell which way
a count moved.  Files found in one tree only are listed after the shared
ones.

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
        fields = line.split(",")
        for name, field in zip(header, fields):
            yield name, field
        yield "#fields", str(len(fields) - len(header))


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
    """Numeric values by column name, the other fields, and the column
    names, each in file order.  A structural field ("#len", "#fields")
    belongs to the column named before its "#" ("" for a CSV row)."""
    if path.suffix == ".csv":
        fields = _csv_fields(text)
    elif path.suffix == ".json":
        fields = _json_fields(json.loads(text))
    else:
        fields = (("values", token) for token in text.split())
    numeric: dict = {}
    other = []
    names: dict = {}
    for name, field in fields:
        names.setdefault(name.partition("#")[0])
        value = None if name.endswith(("#len", "#fields")) else _number(field)
        if value is None:
            other.append((name, field))
        else:
            numeric.setdefault(name, []).append(value)
    return numeric, other, list(names)


def _differing(a, b) -> np.ndarray:
    """Where two equal-length columns differ; two NaNs agree."""
    return ~((a == b) | (np.isnan(a) & np.isnan(b)))


def max_relative_difference(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):
        rel = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    return float(np.where(_differing(a, b), rel, 0.0).max(initial=0.0))


def column_scaled_difference(a, b) -> float:
    """Largest |a - b| over the largest |value| of either column."""
    a, b = np.asarray(a), np.asarray(b)
    with np.errstate(invalid="ignore"):
        diff = np.where(_differing(a, b), np.abs(a - b), 0.0).max(initial=0.0)
    return 0.0 if diff == 0.0 else float(diff / max(np.abs(a).max(), np.abs(b).max()))


def compare_file(a: Path, b: Path) -> str:
    raw_a, raw_b = a.read_bytes(), b.read_bytes()
    if raw_a == raw_b:
        return "identical"
    try:
        num_a, other_a, names_a = columns(a, raw_a.decode())
        num_b, other_b, names_b = columns(b, raw_b.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "structure differs (not text of a known layout)"
    shared = set(names_a) & set(names_b)
    num_a, num_b = ({k: v for k, v in num.items() if k in shared} for num in (num_a, num_b))
    other_a, other_b = ([f for f in other if f[0].partition("#")[0] in shared]
                        for other in (other_a, other_b))
    added = [n for n in names_b if n not in shared]
    removed = [n for n in names_a if n not in shared]
    notes = ([f"added {', '.join(added)}"] if added else []) + (
        [f"removed {', '.join(removed)}"] if removed else [])
    if other_a != other_b or num_a.keys() != num_b.keys() or any(
            len(num_a[k]) != len(num_b[k]) for k in num_a):
        return "; ".join(["structure differs"] + notes)
    drift = ", ".join(f"{k} {max_relative_difference(num_a[k], num_b[k]):.2g} "
                      f"({column_scaled_difference(num_a[k], num_b[k]):.2g} of max)"
                      for k in num_a)
    return "; ".join(([drift] if drift else []) + notes)


def step_totals(a: Path, b: Path) -> str:
    """The summed counts of two steps.csv files, as "; iterations A -> B,
    factorizations A -> B", for the counts both files have."""
    num_a, num_b = (columns(p, p.read_text())[0] for p in (a, b))
    totals = [f"{name} {sum(num_a[name]):g} -> {sum(num_b[name]):g}"
              for name in ("iterations", "factorizations") if name in num_a and name in num_b]
    return f"; {', '.join(totals)}" if totals else ""


def compare_trees(dir_a: Path, dir_b: Path) -> tuple[list, bool]:
    """Report lines for two trees, and whether they hold the same bytes."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines = []
    same = files_a == files_b
    for rel in sorted(files_a & files_b):
        result = compare_file(dir_a / rel, dir_b / rel)
        same = same and result == "identical"
        if rel.name == "steps.csv":
            result += step_totals(dir_a / rel, dir_b / rel)
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
