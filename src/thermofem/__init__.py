"""Finite element solver for ultrasound-induced tissue heating.

Couples a quasilinear acoustic pressure equation (with a choice of two
nonlinearity models) to a semilinear bioheat equation through
temperature-dependent sound speed and acoustic absorption.  Provides
implicit Euler and BDF2 time stepping, manufactured-solution convergence
studies, and packaged focused-ultrasound heating scenarios.
"""
from .coefficients import (DegeneracyError, EquationVariant, HeatParams, KUZNETSOV,
                           LINEAR_WAVE, LIVER_QUADRATIC, LIVER_QUINTIC, TissueModel,
                           WESTERVELT, absorbed_energy, absorption_weights,
                           beta_of_theta, derived_heat_params, k_coefficients,
                           q_of_theta, speed_of_sound, variant_by_name)
from .fem import (FEFunction, FESpace, ScalarField, assemble_load, assemble_mass,
                  assemble_stiffness, assemble_weighted_stiffness, build_space,
                  constant_field, error_norms, nodal_interpolate, ritz_projection,
                  triangle_rule)
from .mesh import (Mesh, MeshFormatError, focused_domain_mesh, load_mesh, mirror_vertex_map,
                   save_mesh, unit_square_mesh)
from .mms import ConvergenceConfig, ManufacturedPair, StudyResult, convergence_study
from .output import write_snapshot_csv, write_vtk
from .scenarios import ScenarioConfig, ScenarioResult, run_scenario
from .stepping import (BDF2, EULER, DegeneracyWarning, FixedPointConfig,
                       FixedPointDivergenceError, SimulationResult, SimulationState,
                       StepContext, StepReport, TimeScheme, heat_step, run_simulation,
                       scheme_by_name, wave_step)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mesh
    "Mesh", "MeshFormatError", "unit_square_mesh",
    "focused_domain_mesh", "mirror_vertex_map", "load_mesh", "save_mesh",
    # fem
    "FESpace", "FEFunction", "ScalarField", "constant_field", "build_space",
    "triangle_rule", "assemble_mass", "assemble_stiffness",
    "assemble_weighted_stiffness", "assemble_load", "ritz_projection",
    "nodal_interpolate", "error_norms",
    # coefficients
    "TissueModel", "HeatParams", "EquationVariant", "DegeneracyError",
    "WESTERVELT", "KUZNETSOV", "LINEAR_WAVE",
    "LIVER_QUADRATIC", "LIVER_QUINTIC", "variant_by_name", "speed_of_sound",
    "q_of_theta", "beta_of_theta", "k_coefficients", "absorption_weights",
    "absorbed_energy", "derived_heat_params",
    # stepping
    "TimeScheme", "EULER", "BDF2", "scheme_by_name", "FixedPointConfig",
    "FixedPointDivergenceError", "DegeneracyWarning", "StepContext", "wave_step",
    "heat_step", "run_simulation", "SimulationState", "SimulationResult", "StepReport",
    # mms
    "ManufacturedPair", "ConvergenceConfig", "StudyResult", "convergence_study",
    # scenarios / output
    "ScenarioConfig", "ScenarioResult", "run_scenario", "write_vtk",
    "write_snapshot_csv",
]
