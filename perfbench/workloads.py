"""The benchmark's workloads: what each runs, its set-up, and its output check.

All three are shipped configs with no random data, run through the entry
points users call (``run_scenario`` and ``convergence_study``):

* ``driven``: ``configs/example3.json`` cut to its first DRIVEN_STEPS steps,
  writing a snapshot, ``steps.csv`` and ``summary.json``.  About half its
  time is sparse LU factorization of the 22k-dof wave system.
* ``mms-p1``: ``configs/example1_euler_p1.json`` on all its meshes, run to
  t = 0.25 (32 of its 128 steps).  Assembly is the largest layer; no
  snapshot output.
* ``mms-p3``: ``configs/example1_bdf2_p3.json`` on all its meshes, run to
  t = 0.5 (16 of its 32 steps).  The same fem layer with dense 10x10 cubic
  blocks and large quadrature tables.

The studies are cut in time, not in meshes, so every system size of the
shipped study is solved and each layer keeps its share of the time, while
a call takes seconds rather than half a minute and a run holds several
calls.  The cut studies still show the behaviour their checks test: the
P1 energy rate near 1 on the finest pair, and the P3 rate plateau on the
last pair, where the BDF2 time error takes over.

An operation is one scenario run or one mesh of a study.  Each check
returns how many operations failed it: a headline value off its recorded
golden value by more than REL_TOL, or an acceptance band missed.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

from thermofem import cli, fem, mesh, mms, scenarios

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Loose enough for a different fixed-point method that still meets the
# 1e-10 stopping test, tight enough to catch a skipped iterate.
REL_TOL = 1e-8
DRIVEN_STEPS = 4


def _close(value: float, golden: float) -> bool:
    return abs(value - golden) <= REL_TOL * abs(golden)


def _load_config(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text())


class Driven:
    def __init__(self):
        data = _load_config("example3.json")
        data["final_time"] = DRIVEN_STEPS * data["tau"]
        data["snapshots"] = [DRIVEN_STEPS]
        self.config = cli.scenario_config_from_dict(data)
        self.ops_per_call = 1

    def setup(self):
        """Everything run_scenario does before its first step.  The initial
        data are zero vectors, so there is no projection to time."""
        space = fem.build_space(mesh.focused_domain_mesh(self.config.h), self.config.degree)
        space.values()
        space.values(space.error_degree)
        space.mass_matrix()
        space.stiffness_matrix()

    def call(self, outdir):
        return scenarios.run_scenario(self.config, output_dir=outdir)

    @staticmethod
    def headline(result) -> dict:
        return {k: result.summary[k] for k in ("max_abs_u", "max_abs_theta", "final_max_abs_theta")}

    def check(self, result, outdir, golden) -> tuple[int, list]:
        errors = [f"{k} {v!r} != golden {golden[k]!r}"
                  for k, v in self.headline(result).items() if not _close(v, golden[k])]
        expected = [f"snapshot_{DRIVEN_STEPS:06d}.vtk", f"snapshot_{DRIVEN_STEPS:06d}.csv",
                    "steps.csv", "summary.json"]
        errors += [f"missing or empty output {f}" for f in expected
                   if not os.path.isfile(os.path.join(outdir, f))
                   or os.path.getsize(os.path.join(outdir, f)) == 0]
        if not errors:
            with open(os.path.join(outdir, "summary.json")) as fh:
                written = json.load(fh)
            if self.headline(result) != {k: written[k] for k in golden}:
                errors.append("summary.json disagrees with the returned summary")
            if written["n_steps"] != DRIVEN_STEPS:
                errors.append(f"summary.json has {written['n_steps']} steps")
        return (1 if errors else 0), errors


class Study:
    def __init__(self, config_file: str, final_time: float, band):
        data = _load_config(config_file)
        data["final_time"] = final_time
        self.config = cli.mms_config_from_dict(data)
        self.ops_per_call = len(self.config.meshes)
        self._band = band

    def setup(self):
        """Mesh, space, tabulations, matrices and the three Ritz projections
        of the initial data, for every mesh of the study."""
        pair = self.config.pair
        for n in self.config.meshes:
            space = fem.build_space(mesh.unit_square_mesh(n), self.config.degree)
            space.values()
            space.values(space.error_degree)
            space.mass_matrix()
            space.stiffness_matrix()
            for field in (pair.u_field(), pair.ut_field(), pair.theta_field()):
                fem.ritz_projection(space, field, 0.0)

    def call(self, outdir):
        return mms.convergence_study(self.config)

    @staticmethod
    def headline(result) -> dict:
        return {
            "n": [r.n for r in result.rows],
            "e_tau": [r.e_tau for r in result.rows],
            "e_l2": [r.e_l2 for r in result.rows],
            "rates_e_tau": [float(x) for x in result.rates_e_tau],
            "rates_l2": [float(x) for x in result.rates_l2],
        }

    def check(self, result, outdir, golden) -> tuple[int, list]:
        got = self.headline(result)
        if got["n"] != golden["n"]:
            return self.ops_per_call, [f"meshes {got['n']} != golden {golden['n']}"]
        bad = set()
        errors = []
        for key, offset in (("e_tau", 0), ("e_l2", 0), ("rates_e_tau", 1), ("rates_l2", 1)):
            for i, (v, g) in enumerate(zip(got[key], golden[key])):
                if not _close(v, g):
                    bad.add(i + offset)
                    errors.append(f"{key}[{i}] {v!r} != golden {g!r}")
        band_error = self._band(result)
        if band_error:
            bad.add(len(got["n"]) - 1)
            errors.append(band_error)
        return len(bad), errors


def finest_energy_rate(lo: float, hi: float):
    def band(result):
        rate = float(result.rates_e_tau[-1])
        if not lo <= rate <= hi:
            return f"finest energy rate {rate:.4f} outside [{lo}, {hi}]"
        return None
    return band


def plateau_on_last_pair(result):
    rates = result.rates_e_tau
    idx = result.plateau_index()
    if idx != len(rates) - 1:
        return f"plateau at pair {idx}, expected {len(rates) - 1} (rates {list(map(float, rates))})"
    return None


def make(name: str):
    if name == "driven":
        return Driven()
    if name == "mms-p1":
        return Study("example1_euler_p1.json", 0.25, finest_energy_rate(0.8, 1.2))
    if name == "mms-p3":
        return Study("example1_bdf2_p3.json", 0.5, plateau_on_last_pair)
    raise ValueError(f"unknown workload {name!r}")


def load_golden(name: str) -> dict:
    return json.loads(GOLDEN_PATH.read_text())[name]

