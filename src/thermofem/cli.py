"""Command-line front end.

Three subcommands: `mms` runs a manufactured-solution convergence study,
`scenario` runs one of the packaged heating scenarios, `meshgen` writes a
mesh to disk.  Studies and scenarios are configured through a JSON file;
unknown keys are rejected so typos fail loudly instead of silently
running defaults.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.  The
output root is, in order of precedence: --output, the THERMOFEM_OUTPUT_DIR
environment variable, the working directory.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .mesh import focused_domain_mesh, save_mesh, unit_square_mesh
from .mms import ConvergenceConfig, convergence_study
from .scenarios import ScenarioConfig, run_scenario

__all__ = ["ConfigError", "main"]

OUTPUT_ENV_VAR = "THERMOFEM_OUTPUT_DIR"


class ConfigError(Exception):
    """A configuration file or value is invalid."""


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return data


def _check_keys(data: dict, allowed: set, what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {what} key(s): {', '.join(unknown)}")


def _expect(data: dict, key: str, kinds, what: str):
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = kinds.__name__ if isinstance(kinds, type) else "/".join(k.__name__ for k in kinds)
        raise ConfigError(f"{what} key {key!r} must be {names}, got {type(value).__name__}")
    return value


def _int_list(data: dict, key: str, what: str) -> tuple:
    value = data[key]
    if not isinstance(value, list) or not value or any(
        isinstance(v, bool) or not isinstance(v, int) for v in value
    ):
        raise ConfigError(f"{what} key {key!r} must be a non-empty list of integers")
    return tuple(value)


_MMS_KEYS = {"variant", "scheme", "degree", "meshes", "tau", "final_time",
             "fp_tol", "fp_max_iter"}


def mms_config_from_dict(data: dict) -> ConvergenceConfig:
    _check_keys(data, _MMS_KEYS, "mms")
    kwargs = {}
    for key in ("variant", "scheme"):
        if key in data:
            kwargs[key] = _expect(data, key, str, "mms")
    for key in ("degree", "fp_max_iter"):
        if key in data:
            kwargs[key] = _expect(data, key, int, "mms")
    for key in ("tau", "final_time", "fp_tol"):
        if key in data:
            kwargs[key] = float(_expect(data, key, (int, float), "mms"))
    if "meshes" in data:
        kwargs["meshes"] = _int_list(data, "meshes", "mms")
    try:
        config = ConvergenceConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if len(config.meshes) < 3:
        raise ConfigError("a study needs at least three meshes to observe a rate")
    return config


_SCENARIO_KEYS = {"example", "h", "degree", "scheme", "tau", "final_time", "amplitude",
                  "source_frequency", "snapshots", "projection", "fp_tol", "fp_max_iter"}


def scenario_config_from_dict(data: dict) -> ScenarioConfig:
    _check_keys(data, _SCENARIO_KEYS, "scenario")
    if "example" not in data:
        raise ConfigError("scenario config needs an 'example' key (2 or 3)")
    kwargs = {"example": _expect(data, "example", int, "scenario")}
    if "degree" in data:
        kwargs["degree"] = _expect(data, "degree", int, "scenario")
    for key in ("scheme", "projection"):
        if key in data:
            kwargs[key] = _expect(data, key, str, "scenario")
    for key in ("h", "tau", "final_time", "amplitude", "source_frequency", "fp_tol"):
        if key in data:
            kwargs[key] = float(_expect(data, key, (int, float), "scenario"))
    if "fp_max_iter" in data:
        kwargs["fp_max_iter"] = _expect(data, "fp_max_iter", int, "scenario")
    if "snapshots" in data:
        kwargs["snapshots"] = _int_list(data, "snapshots", "scenario")
    try:
        return ScenarioConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _output_root(args) -> str:
    if args.output is not None:
        return args.output
    return os.environ.get(OUTPUT_ENV_VAR) or os.getcwd()


def _cmd_mms(args) -> int:
    data = _load_config(args.config) if args.config else {}
    config = mms_config_from_dict(data)
    if args.jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    if args.dry_run:
        print(f"mms study: variant={config.variant} scheme={config.scheme} "
              f"degree={config.degree} meshes={list(config.meshes)} tau={config.tau} "
              f"final_time={config.final_time}")
        return 0
    result = convergence_study(config, jobs=args.jobs)
    root = _output_root(args)
    os.makedirs(root, exist_ok=True)
    base = os.path.join(root, f"mms_{config.variant}_{config.scheme}_p{config.degree}")
    path = base + ".csv"
    result.to_csv(path)
    result.write_plot_data(base + "_loglog.csv")
    re, rl = result.rates_e_tau, result.rates_l2
    print(f"{'n':>6} {'h':>12} {'E_tau':>14} {'rate':>7} {'L2':>14} {'rate':>7}")
    for i, row in enumerate(result.rows):
        rate_e = f"{re[i - 1]:7.3f}" if i > 0 else "      -"
        rate_l = f"{rl[i - 1]:7.3f}" if i > 0 else "      -"
        print(f"{row.n:>6} {row.h:>12.5e} {row.e_tau:>14.6e} {rate_e} "
              f"{row.e_l2:>14.6e} {rate_l}")
    print(f"wrote {path}")
    return 0


def _cmd_scenario(args) -> int:
    data = _load_config(args.config) if args.config else {}
    if args.example is not None:
        data = dict(data)
        data["example"] = args.example
    config = scenario_config_from_dict(data)
    root = os.path.join(_output_root(args), f"example{config.example}")
    if args.dry_run:
        print(f"scenario: example={config.example} h={config.h:g} tau={config.tau:g} "
              f"final_time={config.final_time:g} amplitude={config.resolved_amplitude:g} "
              f"snapshots={list(config.resolved_snapshots)} output={root}")
        return 0
    result = run_scenario(config, output_dir=root)
    s = result.summary
    print(f"example {s['example']}: {s['n_steps']} steps on {s['n_triangles']} triangles "
          f"({s['n_dofs']} dofs)")
    print(f"max |u| = {s['max_abs_u']:.6e}, max |theta| = {s['max_abs_theta']:.6e} degC")
    print(f"wrote {len(result.files)} file(s) under {root}")
    return 0


def _cmd_meshgen(args) -> int:
    if not math.isfinite(args.parameter):
        raise ConfigError(f"--parameter must be finite, got {args.parameter!r}")
    try:
        if args.kind == "unit-square":
            n = int(args.parameter)
            if n != args.parameter or n < 1:
                raise ConfigError("unit-square parameter must be a positive integer")
            mesh = unit_square_mesh(n)
        else:
            mesh = focused_domain_mesh(args.parameter)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    root = _output_root(args)
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, args.out)
    save_mesh(mesh, path)
    print(f"wrote {path}: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, "
          f"h_max = {mesh.h_max:.6e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofem",
        description="finite element solver for ultrasound-induced tissue heating",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mms = sub.add_parser("mms", help="run a manufactured-solution convergence study")
    p_mms.add_argument("--config", help="JSON study configuration")
    p_mms.add_argument("--jobs", type=int, default=1, help="meshes to run in parallel")
    p_mms.add_argument("--output", help="output directory root")
    p_mms.add_argument("--dry-run", action="store_true", help="validate and print, do not run")

    p_sc = sub.add_parser("scenario", help="run a packaged heating scenario")
    p_sc.add_argument("--config", help="JSON scenario configuration")
    p_sc.add_argument("--example", type=int, choices=(2, 3), help="scenario selector")
    p_sc.add_argument("--output", help="output directory root")
    p_sc.add_argument("--dry-run", action="store_true", help="validate and print, do not run")

    p_mg = sub.add_parser("meshgen", help="generate and save a mesh")
    p_mg.add_argument("--kind", required=True, choices=("unit-square", "focused-transducer"))
    p_mg.add_argument("--parameter", type=float, required=True,
                      help="subdivisions (unit-square) or target edge length (focused)")
    p_mg.add_argument("--out", default="mesh.csv", help="output file name")
    p_mg.add_argument("--output", help="output directory root")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mms": _cmd_mms, "scenario": _cmd_scenario, "meshgen": _cmd_meshgen}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failure: solver breakdown, I/O, ...
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
