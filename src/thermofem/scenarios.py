"""Physical heating scenarios on the focused-transducer domain.

Two runs are packaged, differing in the wave model and in how energy
enters the domain:

* example 2: pressure and velocity pulses shaped like a focused bowl
  transducer are set as initial data and left to propagate (no forcing),
  with the quadratic pressure nonlinearity.
* example 3: the cavity starts at rest and is driven by a time-harmonic
  interior source with the same angular aperture, with the velocity
  nonlinearity and gradient coupling.

Both use liver-like tissue at 100 kHz, the derived heat parameters, BDF2
with tau = 1e-7 s over 4e-5 s, and piecewise-linear elements on the
symmetric structured mesh.  Temperatures are in degrees Celsius above
ambient.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import (KUZNETSOV, LIVER_QUINTIC, WESTERVELT, derived_heat_params)
from .fem import ScalarField, build_space, source_loads
from .mesh import ARC_RADIUS, focused_domain_cells, focused_domain_mesh
from .output import write_snapshot_csv, write_vtk
from .stepping import (FixedPointConfig, SimulationResult, _is_int, run_simulation,
                       scheme_by_name, step_count, write_step_reports)

__all__ = [
    "TRANSDUCER_RADIUS",
    "APERTURE_HALF_ANGLE",
    "example2_initial_data",
    "example3_source",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
]

TRANSDUCER_RADIUS = 0.048  # m, radial extent of the excitation
APERTURE_HALF_ANGLE = 2.0 * math.pi / 7.0

DEFAULT_AMPLITUDES = {2: 1.0e6, 3: 1.0e12}
DEFAULT_SNAPSHOTS = {2: (10, 50, 100, 200, 300), 3: (200, 300, 400)}


def _polar_parts(x):
    x = np.asarray(x, dtype=np.float64)
    r = np.hypot(x[..., 0], x[..., 1])
    ang = np.arctan2(x[..., 1], x[..., 0])
    inside = (r <= TRANSDUCER_RADIUS) & (np.abs(ang) <= APERTURE_HALF_ANGLE)
    return r, ang, inside


def _window(x):
    """Angular aperture window cos(7 theta / 4), zero outside the aperture
    and beyond the transducer radius."""
    r, ang, inside = _polar_parts(x)
    return r, np.where(inside, np.cos(1.75 * ang), 0.0)


def _windowed_radial(amplitude, radial, dradial):
    """Field amplitude * cos(7 theta / 4) * radial(r) on the aperture wedge.

    The gradient is the piecewise one away from the cutoff curves; radial
    profiles with radial(0) = 0 keep the angular 1/r term bounded, and the
    value at r = 0 itself is pinned to zero.
    """

    def value(x, t=0.0):
        r, ang, inside = _polar_parts(x)
        return np.where(inside, amplitude * np.cos(1.75 * ang) * radial(r), 0.0)

    def grad(x, t=0.0):
        r, ang, inside = _polar_parts(x)
        safe_r = np.where(r > 0.0, r, 1.0)
        f_r = amplitude * np.cos(1.75 * ang) * dradial(r)
        f_a = -1.75 * amplitude * np.sin(1.75 * ang) * radial(r) / safe_r
        cos_a, sin_a = np.cos(ang), np.sin(ang)
        mask = inside & (r > 0.0)
        return np.stack([np.where(mask, f_r * cos_a - f_a * sin_a, 0.0),
                         np.where(mask, f_r * sin_a + f_a * cos_a, 0.0)], axis=-1)

    return ScalarField(value, grad)


def example2_initial_data(amplitude: float = 1.0e6):
    """(pressure pulse, velocity pulse, zero temperature) initial fields."""
    c = 3.0 * math.pi / TRANSDUCER_RADIUS  # envelope decay rate
    q = 15.0 * math.pi / TRANSDUCER_RADIUS  # radial oscillation rate

    def env(r):
        s = c * r
        return s * np.exp(-s)

    def denv(r):
        s = c * r
        return c * (1.0 - s) * np.exp(-s)

    g0 = _windowed_radial(
        amplitude,
        lambda r: env(r) * np.sin(q * r),
        lambda r: denv(r) * np.sin(q * r) + env(r) * q * np.cos(q * r))
    g1 = _windowed_radial(
        amplitude,
        lambda r: env(r) * np.cos(q * r),
        lambda r: denv(r) * np.cos(q * r) - env(r) * q * np.sin(q * r))
    theta0 = ScalarField(
        lambda x, t=0.0: np.zeros(np.asarray(x, dtype=np.float64).shape[:-1]),
        lambda x, t=0.0: np.zeros(np.asarray(x, dtype=np.float64).shape))
    return g0, g1, theta0


def example3_source(amplitude: float = DEFAULT_AMPLITUDES[3], frequency: float = 1.0e5):
    """Time-harmonic interior forcing for the driven run, as a point-table
    evaluator for fem.source_loads: example3_source(...)(x) tabulates the
    aperture profile at the points x once per cell block, and the function
    it returns scales it by cos(2 pi f t).  There is no heat source."""
    edge = math.exp(-40.0)

    def at_points(x):
        r, w = _window(x)
        radial = (r / TRANSDUCER_RADIUS) * (np.exp(-40.0 * r / TRANSDUCER_RADIUS) - edge)
        profile = amplitude * w * radial

        def values(t):
            return profile * math.cos(2.0 * math.pi * frequency * t), None

        return values

    return at_points


@dataclass(frozen=True)
class ScenarioConfig:
    example: int = 2
    h: float = 7.6e-4
    degree: int = 1
    scheme: str = "bdf2"
    tau: float = 1.0e-7
    final_time: float = 4.0e-5
    amplitude: float | None = None  # None: per-example default
    source_frequency: float = 1.0e5
    snapshots: tuple | None = None  # None: per-example default
    projection: str = "nodal"  # how example-2 initial data become dof vectors
    fp_tol: float = 1e-10
    fp_max_iter: int = 100

    def __post_init__(self):
        if self.example not in (2, 3):
            raise ValueError("example must be 2 or 3")
        if not 0.0 < self.h < ARC_RADIUS:
            raise ValueError(f"h must lie in (0, {ARC_RADIUS}), got {self.h!r}")
        focused_domain_cells(self.h)
        if not _is_int(self.degree) or self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be the integer 1, 2 or 3, got {self.degree!r}")
        scheme_by_name(self.scheme)
        step_count(self.final_time, self.tau)
        if self.amplitude is not None and self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.source_frequency <= 0.0:
            raise ValueError("source_frequency must be positive")
        if self.projection not in ("nodal", "ritz"):
            raise ValueError(f"unknown projection {self.projection!r}")
        FixedPointConfig(tol=self.fp_tol, max_iter=self.fp_max_iter)
        if self.snapshots is not None and not (
                isinstance(self.snapshots, (tuple, list)) and all(map(_is_int, self.snapshots))):
            raise ValueError(f"snapshots must be a sequence of integer step indices, "
                             f"got {self.snapshots!r}")
        outside = [s for s in self.resolved_snapshots if not 0 <= s <= self.n_steps]
        if outside:
            raise ValueError(f"snapshot indices {outside} lie outside [0, {self.n_steps}], "
                             f"the steps of the run")

    @property
    def n_steps(self) -> int:
        return step_count(self.final_time, self.tau)

    @property
    def resolved_amplitude(self) -> float:
        return DEFAULT_AMPLITUDES[self.example] if self.amplitude is None else self.amplitude

    @property
    def resolved_snapshots(self) -> tuple:
        if self.snapshots is not None:
            return tuple(self.snapshots)
        return tuple(s for s in DEFAULT_SNAPSHOTS[self.example] if s <= self.n_steps)


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    simulation: SimulationResult
    summary: dict
    files: list


def run_scenario(config: ScenarioConfig, output_dir=None) -> ScenarioResult:
    """Run one scenario, optionally writing snapshots and reports.

    With an output directory the run leaves snapshot_NNNNNN.vtk/.csv per
    requested snapshot, steps.csv with per-step solver diagnostics, and
    summary.json with the headline numbers.
    """
    mesh = focused_domain_mesh(config.h)
    space = build_space(mesh, config.degree)
    # The driving frequency also sets the omega in the sound-diffusivity
    # representation, so the tissue model is retuned alongside the source.
    model = replace(LIVER_QUINTIC, frequency=config.source_frequency)
    heat = derived_heat_params()
    amp = config.resolved_amplitude

    if config.example == 2:
        variant = WESTERVELT
        u0, u1, theta0 = example2_initial_data(amp)
        sources = None
    else:
        variant = KUZNETSOV
        u0 = np.zeros(space.n_dofs)
        u1 = np.zeros(space.n_dofs)
        theta0 = np.zeros(space.n_dofs)
        sources = source_loads(space, example3_source(amp, config.source_frequency))

    files: list = []
    snap_meta: list = []

    def hook(idx, t, u_h, th_h):
        snap_meta.append({
            "step": idx,
            "time": t,
            "max_abs_u": float(np.abs(u_h.values).max()),
            "max_abs_theta": float(np.abs(th_h.values).max()),
        })
        if output_dir is None:
            return
        base = os.path.join(output_dir, f"snapshot_{idx:06d}")
        write_vtk(base + ".vtk", [("pressure", u_h), ("temperature", th_h)],
                  title=f"scenario example {config.example}, step {idx}")
        write_snapshot_csv(base + ".csv", u_h, th_h)
        files.extend([base + ".vtk", base + ".csv"])

    if output_dir is not None:
        os.makedirs(output_dir, exist_ok=True)

    sim = run_simulation(
        space,
        scheme=scheme_by_name(config.scheme),
        variant=variant,
        model=model,
        heat=heat,
        tau=config.tau,
        n_steps=config.n_steps,
        u0=u0,
        u1=u1,
        theta0=theta0,
        projection=config.projection,
        sources=sources,
        fp=FixedPointConfig(tol=config.fp_tol, max_iter=config.fp_max_iter),
        snapshot_indices=config.resolved_snapshots,
        on_snapshot=hook,
    )

    summary = {
        "example": config.example,
        "variant": variant.tag,
        "scheme": config.scheme,
        "degree": config.degree,
        "h_target": config.h,
        "h_max": mesh.h_max,
        "tau": config.tau,
        "n_steps": sim.state.step,
        "final_time": sim.state.time,
        "n_vertices": mesh.n_vertices,
        "n_triangles": mesh.n_triangles,
        "n_dofs": space.n_dofs,
        "amplitude": amp,
        "source_frequency": config.source_frequency,
        "max_abs_u": float(sim.max_u.max()),
        "max_abs_theta": float(sim.max_theta.max()),
        "final_max_abs_theta": float(sim.max_theta[-1]),
        "max_fp_iterations": max((r.iterations for r in sim.reports), default=0),
        "snapshots": snap_meta,
    }

    if output_dir is not None:
        steps_path = os.path.join(output_dir, "steps.csv")
        write_step_reports(sim.reports, steps_path)
        files.append(steps_path)
        summary_path = os.path.join(output_dir, "summary.json")
        with open(summary_path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        files.append(summary_path)

    return ScenarioResult(config=config, simulation=sim, summary=summary, files=files)
