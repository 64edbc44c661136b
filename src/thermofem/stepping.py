"""Time integration of the coupled wave/heat system.

One time step advances the wave field first and the temperature second.
The wave step treats the quasilinear factor (1 + 2k u or 1 + 2k u_t) and
the remaining nonlinearity by fixed-point iteration, freezing the
temperature-dependent coefficients q(theta^n) and beta(theta^n) over the
step.  The iteration starts from the extrapolation of the wave history,
2u^n - u^{n-1} in a run's first step (u^0 + tau u^1, by the backfill
below) and 3u^n - 3u^{n-1} + u^{n-2} after it, the predictor of linearly
implicit multistep schemes, and is a chord method: every iterate
corrects the current one by a factor of the wave system applied to the
residual of the system at the iterate.  A run keeps that factor across
its steps (a ChordBase, one per leading weight lead2), because the
strongly damped wave operator changes little from one step to the next.
A step with no kept factor for its lead2 factors the system at its
start.  A kept factor built from other frozen operator data (the n1
table at the start and stiff_frozen) than the step's own is stale: once
an iterate contracts by less than _CHORD_REFRESH, it is dropped and the
system at the current iterate is factored instead.  Each factor is made
once, by the step that needs it, and kept from then on.

The heat step is semi-implicit: diffusion and perfusion are implicit, the
absorbed energy is evaluated from the fresh wave iterate and the previous
temperature, so it costs a single symmetric positive definite solve, with
one factor kept per leading weight lead1.

Two schemes share one code path: a scheme is its leading weights and the
weights of its history combinations, newest level first (its tag only
names it in the step reports).  Implicit Euler has leading weights (1, 1) and
history weights (1) and (2, -1); BDF2 has (3/2, 2), (2, -1/2) and
(5, -4, 1).  A run's first step has two wave levels, so a BDF2 run takes
it with Euler weights; the missing earlier wave level is backfilled as
u^{-1} = u^0 - tau * u^1.

Each step first builds a StepContext holding everything frozen over the
step (coefficient tables at theta^n, history combinations, and the wave
and heat source loads at t_{n+1}); the wave and heat steps read their
data from it.  run_simulation owns what outlives a step: the wave
ChordBase, the heat factors and the per-step counters.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import coefficients as coef
from . import fem, linalg
from .coefficients import DegeneracyError, EquationVariant, HeatParams, TissueModel
from .fem import FEFunction, FESpace, ScalarField
from .mesh import _is_int

__all__ = [
    "TimeScheme",
    "EULER",
    "BDF2",
    "scheme_by_name",
    "delta1",
    "delta2",
    "step_count",
    "FixedPointConfig",
    "FixedPointDivergenceError",
    "DegeneracyWarning",
    "StepReport",
    "SimulationState",
    "SimulationResult",
    "StepContext",
    "ChordBase",
    "wave_step",
    "heat_step",
    "run_simulation",
    "write_step_reports",
]


class FixedPointDivergenceError(RuntimeError):
    """The wave-step fixed point failed to converge."""

    def __init__(self, iterations: int, increment: float):
        super().__init__(
            f"fixed point did not converge in {iterations} iterations "
            f"(last relative increment {increment:.3e})"
        )
        self.iterations = iterations
        self.increment = increment


class DegeneracyWarning(UserWarning):
    """The quasilinear factor came close to zero."""


# The wave step warns once its quasilinear factor dips below this value.
_N1_WARN = 0.1
# A stale chord base is refactored at the current iterate once an iterate's
# increment exceeds this fraction of the one before.  Below it, stopping at
# an increment under the tolerance leaves an error under a third of it.
_CHORD_REFRESH = 0.25


@dataclass(frozen=True)
class TimeScheme:
    """Implicit multistep scheme written as
    d_tau a = (lead1 * a^{n+1} - delta1) / tau,
    d_tau^2 a = (lead2 * a^{n+1} - delta2) / tau^2,
    where delta1 and delta2 weigh the history levels a^n, a^{n-1}, ... by
    d1 and d2, newest first."""

    tag: str
    lead1: float
    lead2: float
    d1: tuple
    d2: tuple


EULER = TimeScheme("euler", 1.0, 1.0, (1.0,), (2.0, -1.0))
BDF2 = TimeScheme("bdf2", 1.5, 2.0, (2.0, -0.5), (5.0, -4.0, 1.0))


def scheme_by_name(name: str) -> TimeScheme:
    try:
        return {"euler": EULER, "bdf2": BDF2}[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name such as a list
        raise ValueError(f"unknown time scheme {name!r}") from None


def _combine(weights: tuple, history: Sequence[np.ndarray]) -> np.ndarray:
    """sum_k weights[k] * history[k], summed from the newest level on."""
    if len(history) < len(weights):
        raise ValueError(f"the combination needs {len(weights)} history levels, "
                         f"got {len(history)}")
    out = weights[0] * np.asarray(history[0])
    for w, level in zip(weights[1:], history[1:]):
        out = out + w * np.asarray(level)
    return out


def delta1(scheme: TimeScheme, history: Sequence[np.ndarray]) -> np.ndarray:
    """First-derivative history combination; history[0] is the newest level."""
    return _combine(scheme.d1, history)


def delta2(scheme: TimeScheme, history: Sequence[np.ndarray]) -> np.ndarray:
    """Second-derivative history combination; history[0] is the newest level."""
    return _combine(scheme.d2, history)


def step_count(final_time: float, tau: float) -> int:
    """Number of steps of size tau that reach final_time; rejects a
    final_time that is not a positive integer multiple of tau."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    ratio = final_time / tau
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, n_steps):
        raise ValueError(f"final_time {final_time!r} is not a positive integer multiple "
                         f"of tau {tau!r}")
    return n_steps


def _store_floats(config, *names: str) -> None:
    """Store each named field of a frozen config as a float.  A field must
    be an int or a float, and a bool is neither; ValueError otherwise."""
    for name in names:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be an int or a float, got {value!r}")
        try:
            object.__setattr__(config, name, float(value))
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class FixedPointConfig:
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        _store_floats(self, "tol")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("fixed-point tolerance must lie in (0, 1)")
        if not _is_int(self.max_iter) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")


@dataclass
class StepReport:
    index: int
    scheme_tag: str
    iterations: int
    n1_min: float
    increments: tuple  # relative increment of each iterate
    wave_solves: tuple  # relative residual of each linear wave solve
    heat_residual: float  # relative residual of the heat solve
    factorizations: int  # LU factorizations made for the step, wave and heat


@dataclass
class SimulationState:
    """Discrete trajectory tail: newest level first in each history list."""

    space: FESpace
    tau: float
    step: int = 0
    time: float = 0.0
    u: list = field(default_factory=list)
    theta: list = field(default_factory=list)

    def u_function(self) -> FEFunction:
        return FEFunction(self.space, self.u[0].copy())

    def theta_function(self) -> FEFunction:
        return FEFunction(self.space, self.theta[0].copy())


@dataclass
class SimulationResult:
    state: SimulationState
    reports: list
    max_u: np.ndarray
    max_theta: np.ndarray


class StepContext:
    """Frozen data of one time step, shared by its wave and heat halves:
    the sound-speed and coefficient tables at theta^n, the history
    combinations (u_start, the extrapolation the wave step starts from,
    among them), and the parts of the wave system that do not change
    across fixed-point iterations.

    Those parts are stiff_frozen, the matrix of
    tau^2 a(u, q phi) + tau lead1 a(u, beta phi), made by one weighted
    stiffness assembly with the combined weight on the space's one matrix
    pattern, and sb_d1, the action a(delta1 u, beta phi_i), assembled as a
    load from grad_d1u, the gradient table of delta1 u that the Kuznetsov
    remainder reuses.  sources, if given, is called once, at t_{n+1}, for
    the step's (wave, heat) load vectors (see run_simulation), kept as
    f_load (zero when absent) and heat_load."""

    def __init__(self, state: SimulationState, scheme: TimeScheme, variant: EquationVariant,
                 model: TissueModel, sources: Callable | None = None):
        space = state.space
        tau = state.tau
        self.space = space
        self.tau = tau
        self.step_index = state.step + 1
        # The first step has two wave levels, u^0 and u^{-1}: Euler's depth.
        self.scheme = EULER if state.step == 0 else scheme
        self.variant = variant
        self.fev = space.values()
        self.mass = space.mass_matrix()
        self.interior = space.interior_dofs
        # The wave fixed point starts from the extrapolation of the history:
        # linear from the two levels of a run's first step, quadratic after.
        extrapolation = (2.0, -1.0) if len(state.u) == 2 else (3.0, -3.0, 1.0)
        self.u_start = _combine(extrapolation, state.u)

        theta_n = state.theta[0]
        theta_cell = self.fev.fe_values(theta_n)
        theta_grad = self.fev.fe_gradients(theta_n)
        self.speed = coef.SpeedTable(model, theta_cell)
        q_vals, dq = self.speed.q(derivative=True)
        b_vals, db = self.speed.beta(derivative=True)

        k_w, k_k = self.speed.k()
        self.k_cell = k_w if variant.tag == "westervelt" else k_k

        self.d1u = delta1(self.scheme, state.u)
        self.d2u = delta2(self.scheme, state.u)
        self.d1theta = delta1(self.scheme, state.theta)
        # tau^2 a(., q phi) + tau lead1 a(., beta phi) in one assembly: the
        # form is linear in the weight and its gradient.
        cq, cb = tau * tau, tau * self.scheme.lead1
        self.stiff_frozen = fem.assemble_weighted_stiffness(
            space, (cq * q_vals + cb * b_vals, (cq * dq + cb * db)[:, :, None] * theta_grad))
        # a(d1u, beta phi_i) as a load:
        # integral of beta grad d1u . grad phi_i + (grad d1u . grad beta) phi_i
        self.grad_d1u = self.fev.fe_gradients(self.d1u)
        d1u_dot_theta = fem._pointwise_dot(self.grad_d1u, theta_grad)
        self.sb_d1 = (fem._gradient_load(space, b_vals[:, :, None] * self.grad_d1u)
                      + fem.assemble_load(space, db * d1u_dot_theta))
        wave_load, self.heat_load = (None, None) if sources is None else sources(state.time + tau)
        self.f_load = np.zeros(space.n_dofs) if wave_load is None else wave_load

    def nonlinearity(self, u_vec: np.ndarray):
        """Quasilinear factor N1 and remainder N2 tables at the iterate."""
        fev = self.fev
        nt, nq = fev.points.shape[:2]
        if self.variant.linear:
            return np.ones((nt, nq)), np.zeros((nt, nq))
        ut_vec = (self.scheme.lead1 * u_vec - self.d1u) / self.tau
        if self.variant.tag == "westervelt":
            u_cell = fev.fe_values(u_vec)
            ut_cell = fev.fe_values(ut_vec)
            n1 = 1.0 + 2.0 * self.k_cell * u_cell
            n2 = 2.0 * self.k_cell * ut_cell * ut_cell
        else:
            ut_cell = fev.fe_values(ut_vec)
            n1 = 1.0 + 2.0 * self.k_cell * ut_cell
            gu = fev.fe_gradients(u_vec)
            gut = (self.scheme.lead1 * gu - self.grad_d1u) / self.tau
            n2 = 2.0 * fem._pointwise_dot(gu, gut)
        return n1, n2


class ChordBase:
    """The wave factor a run keeps across its steps, with what it was built
    from: the leading weight lead2, the n1 table of the iterate it was
    factored at (a step's extrapolated start, or a later iterate after a
    refresh) and the stiff_frozen data.  wave_step stores each factor it
    makes here and uses it from then on."""

    __slots__ = ("lead2", "n1", "stiff", "lu")

    def __init__(self):
        self.drop()

    def drop(self) -> None:
        self.lead2 = self.n1 = self.stiff = self.lu = None


def wave_step(ctx: StepContext, fp: FixedPointConfig, base: ChordBase | None = None):
    """Advance the wave field one step; returns (u_new, step info dict).

    The fixed point starts from ctx.u_start, the extrapolation of the wave
    history, on the interior dofs, and runs as a chord iteration: every
    iterate adds the correction B^{-1} (b(u) - A(u) u), where
    A(u) = lead2 M(n1(u)) + stiff_frozen is the interior system at the
    iterate (a sum of data arrays, see FESpace.interior_matrix) and B a
    factor of it at some iterate.

    `base` is the run's kept factor, if any, and its leading weight must
    match the step's to be used.  With no usable base, the first iterate
    factors A at the start and stores the factor in `base`.
    A base built from the n1 table of the start and the stiff_frozen data
    of this step, bit for bit, is that same factor.  Otherwise the base is
    stale, and when an increment exceeds _CHORD_REFRESH times the one
    before, the stale factor is dropped and the next iterate factors A at
    its own iterate, stores it and uses it from then on.

    The iteration stops when the relative L2 increment between iterates
    drops below fp.tol (absolute when the new iterate is zero), or as soon
    as the nonlinearity tables stop changing while n1 equals the table of
    a factor exact for this step, in which case the next correction would
    be rounding alone.  A DegeneracyWarning is issued while the factor's
    minimum lies below 0.1, and a DegeneracyError raised once it is no
    longer positive.  A non-finite increment or solve residual raises
    FloatingPointError at once, naming the step and the iterate.  The info
    dict counts the factorizations the step made.
    """
    space = ctx.space
    tau = ctx.tau
    idx = ctx.interior
    lead2 = ctx.scheme.lead2
    stiff = ctx.stiff_frozen.data
    if base is None:
        base = ChordBase()
    elif base.lead2 != lead2:
        base.drop()

    # The iterates hold the homogeneous Dirichlet values: the history's
    # boundary values (the rounding of a nodal interpolant) do not enter
    # the step.
    u_i = np.zeros(space.n_dofs)
    u_i[idx] = ctx.u_start[idx]
    n1, n2 = ctx.nonlinearity(u_i)
    lu = base.lu
    stale = lu is not None and not (np.array_equal(n1, base.n1)
                                    and np.array_equal(stiff, base.stiff))
    n1_min = float(n1.min())
    increments = []
    solves = []
    factorizations = 0
    base_rhs = tau * ctx.sb_d1 + (tau * tau) * ctx.f_load

    for it in range(1, fp.max_iter + 1):
        if n1_min <= 0.0:
            raise DegeneracyError(
                f"quasilinear factor lost positivity (min {n1_min:.3e}) at step {ctx.step_index}"
            )
        if n1_min < _N1_WARN:
            warnings.warn(
                f"quasilinear factor close to degenerate (min {n1_min:.3e})",
                DegeneracyWarning,
                stacklevel=2,
            )
        # b(u) - A(u) u, applying M(n1) through the quadrature it is
        # assembled with instead of assembling it
        mass_part = n1 * ctx.fev.fe_values(ctx.d2u - lead2 * u_i) - (tau * tau) * n2
        res = fem.assemble_load(space, mass_part) + base_rhs - ctx.stiff_frozen @ u_i
        if lu is None:
            lu = linalg.factorize(
                space.interior_matrix(lead2 * fem.assemble_mass(space, n1).data + stiff))
            base.lead2, base.n1, base.stiff, base.lu = lead2, n1, stiff, lu
            factorizations += 1
        dx, rel_res = lu.solve_with_report(res[idx])
        u_next = u_i.copy()
        u_next[idx] += dx
        solves.append(rel_res)

        norm_new = space.l2_norm(u_next)
        inc = space.l2_norm(u_next - u_i)
        rel = inc / norm_new if norm_new > 0.0 else inc
        increments.append(rel)
        if not (math.isfinite(rel) and math.isfinite(rel_res)):
            raise FloatingPointError(
                f"non-finite wave iterate {it} at step {ctx.step_index} "
                f"(relative increment {rel:.3e}, solve residual {rel_res:.3e})")
        if rel < fp.tol:
            break
        n1_next, n2_next = ctx.nonlinearity(u_next)
        n1_min = min(n1_min, float(n1_next.min()))
        if (not stale and np.array_equal(n1, base.n1)
                and np.array_equal(n1_next, base.n1) and np.array_equal(n2_next, n2)):
            # The factored operator was exact for the last update and still
            # is, and the remainder did not move: the next correction is the
            # solve's rounding, so the fixed point is reached.
            break
        if stale and it > 1 and rel > _CHORD_REFRESH * increments[-2]:
            # The kept factor stopped contracting: it is released, and the
            # next iterate factors the system at its own iterate.
            lu = None
            base.drop()
            stale = False
        u_i, n1, n2 = u_next, n1_next, n2_next
    else:
        raise FixedPointDivergenceError(fp.max_iter, increments[-1])
    return u_next, {"iterations": it, "increments": tuple(increments), "n1_min": n1_min,
                    "solves": tuple(solves), "factorizations": factorizations}


def heat_step(ctx: StepContext, u_new: np.ndarray, heat: HeatParams, factor_cache: dict):
    """Advance the temperature one step; returns (theta_new, the relative
    residual of its linear solve).

    The absorbed energy is evaluated from the new wave level, its discrete
    time derivative, and the previous temperature; the source is ctx.heat_load.
    The factorized heat matrix is kept in factor_cache, keyed by the scheme's
    leading weight; the cache holds one factor, so a BDF2 run's Euler factor
    serves its first step only.  A non-finite solution or solve residual
    raises FloatingPointError at once, naming the step.
    """
    space = ctx.space
    tau = ctx.tau
    eff = ctx.scheme
    idx = ctx.interior

    ut_new = (eff.lead1 * u_new - ctx.d1u) / tau
    u_cell = ctx.fev.fe_values(u_new)
    ut_cell = ctx.fev.fe_values(ut_new)
    q_cell = ctx.speed.absorbed_energy(ctx.variant, u_cell, ut_cell)

    load = fem.assemble_load(space, q_cell)
    if ctx.heat_load is not None:
        load = load + ctx.heat_load
    rhs = ctx.mass @ ctx.d1theta + tau * load

    key = eff.lead1
    if key not in factor_cache:
        factor_cache.clear()
        h_data = ((eff.lead1 + tau * heat.nu) * ctx.mass.data
                  + (tau * heat.kappa) * space.stiffness_matrix().data)
        factor_cache[key] = linalg.factorize(space.interior_matrix(h_data))

    x, rel_res = factor_cache[key].solve_with_report(rhs[idx])
    if not (math.isfinite(rel_res) and np.isfinite(x).all()):
        raise FloatingPointError(f"non-finite heat solve at step {ctx.step_index} "
                                 f"(solve residual {rel_res:.3e})")
    theta_new = np.zeros(space.n_dofs)
    theta_new[idx] = x
    return theta_new, rel_res


def _project(space: FESpace, data: dict, projection: str) -> list:
    """Coefficient vectors of the named initial data, in order.  Vectors
    are copied; ScalarFields are projected per `projection` ("ritz" or
    "nodal"), and the Ritz projections share one factorization, made only
    once every datum has been checked."""
    out = []
    ritz = []
    for name, item in data.items():
        if isinstance(item, np.ndarray):
            if item.shape != (space.n_dofs,):
                raise ValueError(f"initial coefficient vector {name} has the wrong length")
            out.append(item.astype(np.float64, copy=True))
        elif not isinstance(item, ScalarField):
            raise TypeError(f"unsupported initial data type {type(item).__name__} for {name}")
        elif projection == "ritz":
            if item.grad is None:
                raise ValueError(f"initial field {name} has no gradient, which the Ritz "
                                 "projection needs")
            ritz.append(len(out))
            out.append(item)
        else:
            out.append(fem.nodal_interpolate(space, item, 0.0).values)
    if ritz:
        for i, values in zip(ritz, fem._ritz_values(space, [out[i] for i in ritz], 0.0)):
            out[i] = values
    return out


def run_simulation(space: FESpace, *, scheme: TimeScheme, variant: EquationVariant,
                   model: TissueModel, heat: HeatParams, tau: float, n_steps: int,
                   u0, u1, theta0, projection: str = "ritz",
                   sources: Callable | None = None,
                   fp: FixedPointConfig = FixedPointConfig(),
                   snapshot_indices: Sequence[int] = (),
                   on_snapshot: Callable | None = None) -> SimulationResult:
    """Integrate the coupled system from t = 0 over n_steps steps of size tau
    (step_count turns a final time into a step count).

    Initial data are ScalarFields (projected per `projection`, "ritz" or
    "nodal") or coefficient vectors on the space.  The arguments are
    checked before any of them is projected.  Snapshot hooks receive
    (step_index, time, u_h, theta_h) with independent copies.

    sources maps a time t to the (wave load, heat load) vectors on the
    space, either None for no source, as is sources=None.  Each step's
    StepContext calls it exactly once, at t_{n+1}; fem.source_loads builds
    one from a point-table evaluator.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if not _is_int(n_steps) or n_steps < 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps!r}")
    if projection not in ("ritz", "nodal"):
        raise ValueError(f"unknown projection {projection!r} (expected 'ritz' or 'nodal')")
    indices = list(snapshot_indices)
    if not all(_is_int(s) and 0 <= s <= n_steps for s in indices):
        raise ValueError(f"snapshot indices must be integers in [0, {n_steps}], got {indices!r}")
    snapshots = set(indices)

    u0_vec, u1_vec, theta0_vec = _project(
        space, {"u0": u0, "u1": u1, "theta0": theta0}, projection)
    ghost = u0_vec - tau * u1_vec  # backfilled level u^{-1}

    state = SimulationState(space=space, tau=tau, step=0, time=0.0,
                            u=[u0_vec, ghost], theta=[theta0_vec])

    def emit(idx):
        if on_snapshot is not None and idx in snapshots:
            on_snapshot(idx, state.time, state.u_function(), state.theta_function())

    reports = []
    max_u = [float(np.abs(u0_vec).max())]
    max_theta = [float(np.abs(theta0_vec).max())]
    emit(0)
    wave_base = ChordBase()
    heat_factors: dict = {}

    for n in range(n_steps):
        try:
            ctx = StepContext(state, scheme, variant, model, sources)
            u_new, info = wave_step(ctx, fp, wave_base)
            heat_new = ctx.scheme.lead1 not in heat_factors
            theta_new, heat_res = heat_step(ctx, u_new, heat, heat_factors)
        except Exception as e:
            e.step_index = n + 1
            if hasattr(e, "add_note"):
                e.add_note(f"while advancing step {n + 1} of {n_steps}")
            raise

        state.u = [u_new] + state.u[:2]
        state.theta = [theta_new] + state.theta[:2]
        state.step = n + 1
        state.time = (n + 1) * tau
        step_scheme = ctx.scheme
        # The next context is built from the state alone; releasing this
        # one first keeps two steps' tables and matrices from coexisting.
        del ctx
        if n + 1 == n_steps or scheme.lead2 != step_scheme.lead2:
            wave_base.drop()  # no later step uses this factor

        reports.append(StepReport(
            index=n + 1,
            scheme_tag=step_scheme.tag,
            iterations=info["iterations"],
            n1_min=info["n1_min"],
            increments=info["increments"],
            wave_solves=info["solves"],
            heat_residual=heat_res,
            factorizations=info["factorizations"] + heat_new,
        ))
        max_u.append(float(np.abs(u_new).max()))
        max_theta.append(float(np.abs(theta_new).max()))
        emit(n + 1)

    return SimulationResult(state=state, reports=reports,
                            max_u=np.asarray(max_u), max_theta=np.asarray(max_theta))


def write_step_reports(reports: Sequence[StepReport], path) -> None:
    """Stream step reports as CSV.

    increment is the relative increment of the step's last iterate, and
    wave_residual the relative residual of its last linear wave solve, the
    last chord correction.  heat_residual is that of the heat solve, and
    factorizations the number of LU factorizations made for the step, wave
    and heat.  contraction is the last increment over the one before, the
    observed contraction ratio of the chord iteration; it is empty for a
    step that took one iterate.
    """
    lines = ["step,scheme,iterations,increment,n1_min,wave_residual,heat_residual,"
             "factorizations,contraction"]
    for r in reports:
        incs = r.increments
        contraction = f"{incs[-1] / incs[-2]:.17g}" if len(incs) > 1 else ""
        lines.append(
            f"{r.index},{r.scheme_tag},{r.iterations},{incs[-1]:.17g},"
            f"{r.n1_min:.17g},{r.wave_solves[-1]:.17g},{r.heat_residual:.17g},"
            f"{r.factorizations},{contraction}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
