"""Manufactured solutions and convergence studies on the unit square.

A smooth wave/temperature pair is substituted into the coupled system and
the residual is added as source terms, so the discrete solver can be
measured against a known exact solution.  The study driver runs a mesh
sequence, reports the energy-type and L2 errors at the final time, and
turns consecutive errors into observed convergence rates.

The energy-type error combines the pieces the scheme controls:

    E = |grad(u_t - d_tau u_h)| + |theta_t - d_tau theta_h| + |grad(theta - theta_h)|

all evaluated at the final time, with d_tau the scheme's backward
difference quotient.  The L2 error is |u - u_h| + |theta - theta_h|.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .coefficients import (HeatParams, LIVER_QUADRATIC, SpeedTable, TissueModel,
                           variant_by_name)
from .fem import FEFunction, FESpace, ScalarField, build_space, error_norms
from .mesh import _is_int, unit_square_cells, unit_square_mesh
from .stepping import (FixedPointConfig, SimulationState, _store_floats, delta1,
                       run_simulation, scheme_by_name, step_count)

__all__ = [
    "ManufacturedPair",
    "total_error",
    "ConvergenceConfig",
    "MeshRow",
    "StudyResult",
    "single_mesh_run",
    "convergence_study",
    "plateau_index",
]

_TWO_PI = 2.0 * math.pi
_FOUR_PI = 4.0 * math.pi


def _sines(freq, x):
    """sin(freq x1) and sin(freq x2) at the points x."""
    return np.sin(freq * x[..., 0]), np.sin(freq * x[..., 1])


def _separable_grad(amp, s1, c1, s2, c2):
    """Gradient of amp' sin(k x1) sin(k x2), with amp = amp' k."""
    return np.stack([amp * c1 * s2, amp * s1 * c2], axis=-1)


@dataclass(frozen=True)
class ManufacturedPair:
    """Separable exact pair on the unit square, zero on the boundary:

    u     = a1 sin(2 pi x1) sin(2 pi x2) exp(rate1 t)
    theta = a2 sin(4 pi x1) sin(4 pi x2) exp(-rate2 t)
    """

    a1: float = 1.0
    a2: float = 1e-4
    rate1: float = 1.0
    rate2: float = 0.5

    # -- wave field ----------------------------------------------------
    def u(self, x, t):
        s1, s2 = _sines(_TWO_PI, np.asarray(x, dtype=np.float64))
        return self.a1 * math.exp(self.rate1 * t) * s1 * s2

    def u_t(self, x, t):
        return self.rate1 * self.u(x, t)

    def grad_u(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        amp = self.a1 * math.exp(self.rate1 * t) * _TWO_PI
        s1, c1 = np.sin(_TWO_PI * x[..., 0]), np.cos(_TWO_PI * x[..., 0])
        s2, c2 = np.sin(_TWO_PI * x[..., 1]), np.cos(_TWO_PI * x[..., 1])
        return _separable_grad(amp, s1, c1, s2, c2)

    # -- temperature field ---------------------------------------------
    def theta(self, x, t):
        s1, s2 = _sines(_FOUR_PI, np.asarray(x, dtype=np.float64))
        return self.a2 * math.exp(-self.rate2 * t) * s1 * s2

    def theta_t(self, x, t):
        return -self.rate2 * self.theta(x, t)

    def grad_theta(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        amp = self.a2 * math.exp(-self.rate2 * t) * _FOUR_PI
        s1, c1 = np.sin(_FOUR_PI * x[..., 0]), np.cos(_FOUR_PI * x[..., 0])
        s2, c2 = np.sin(_FOUR_PI * x[..., 1]), np.cos(_FOUR_PI * x[..., 1])
        return _separable_grad(amp, s1, c1, s2, c2)

    # -- field wrappers for projection and error measurement ------------
    def u_field(self) -> ScalarField:
        return ScalarField(self.u, self.grad_u)

    def ut_field(self) -> ScalarField:
        return ScalarField(self.u_t, lambda x, t: self.rate1 * self.grad_u(x, t))

    def theta_field(self) -> ScalarField:
        return ScalarField(self.theta, self.grad_theta)

    def theta_t_field(self) -> ScalarField:
        return ScalarField(self.theta_t, lambda x, t: -self.rate2 * self.grad_theta(x, t))

    # -- source terms that make the pair solve the coupled system -------
    def sources(self, variant, model: TissueModel, heat: HeatParams):
        """Point-table evaluator of the (wave, heat) sources, for
        fem.source_loads: sources(...)(x) tabulates the sine profiles at
        the points x once per cell block, and the function it returns
        gives both sources at x for a time t from one u, one theta and one
        SpeedTable."""
        gradient_coupling = variant.tag == "kuznetsov" and not variant.linear

        def at_points(x):
            x = np.asarray(x, dtype=np.float64)
            s1, s2 = _sines(_TWO_PI, x)
            th1, th2 = _sines(_FOUR_PI, x)
            if gradient_coupling:
                c1, c2 = np.cos(_TWO_PI * x[..., 0]), np.cos(_TWO_PI * x[..., 1])

            # Each term is its own function, so its temporaries go before
            # the other's are made.
            def wave_term(u, speed, t):
                ut = self.rate1 * u
                utt = self.rate1 * ut
                # In place, but in the order of utt - q lap - b rate1 lap
                # (+ the nonlinear term): the plain expression's values.
                lap = -2.0 * _TWO_PI * _TWO_PI * u
                wave = utt - speed.q() * lap
                damping = speed.beta()
                damping *= self.rate1
                damping *= lap
                wave -= damping
                if not variant.linear:
                    k_w, k_k = speed.k()
                    if variant.tag == "westervelt":
                        energy = u * utt
                        energy += ut * ut
                        k_w *= 2.0
                        k_w *= energy
                        wave += k_w
                    else:
                        k_k *= 2.0
                        k_k *= ut
                        k_k *= utt
                        wave += k_k
                        amp = self.a1 * math.exp(self.rate1 * t) * _TWO_PI
                        g = _separable_grad(amp, s1, c1, s2, c2)
                        g2 = fem._pointwise_dot(g, g)
                        g2 *= 2.0 * self.rate1
                        wave += g2
                return wave

            def heat_term(u, th, speed):
                absorbed = speed.absorbed_energy(variant, u, self.rate1 * u)
                return (-self.rate2 * th - heat.kappa * (-2.0 * _FOUR_PI * _FOUR_PI * th)
                        + heat.nu * th - absorbed)

            def values(t):
                u = self.a1 * math.exp(self.rate1 * t) * s1 * s2
                th = self.a2 * math.exp(-self.rate2 * t) * th1 * th2
                speed = SpeedTable(model, th)
                return wave_term(u, speed, t), heat_term(u, th, speed)

            return values

        return at_points


def plateau_index(rates, drop: float = 0.5) -> int | None:
    """First index where the observed rate falls more than `drop` below its
    predecessor: a fixed error floor (the other discretization parameter)
    has taken over.  None when the sequence is clean."""
    rates = np.asarray(rates)
    for i in range(1, len(rates)):
        if rates[i] < rates[i - 1] - drop:
            return int(i)
    return None


def total_error(state: SimulationState, pair: ManufacturedPair, scheme) -> tuple[float, float]:
    """(energy-type error, L2 error) against the exact pair at state.time."""
    space = state.space
    t = state.time
    tau = state.tau

    dtu = (scheme.lead1 * state.u[0] - delta1(scheme, state.u[1:])) / tau
    dtheta = (scheme.lead1 * state.theta[0] - delta1(scheme, state.theta[1:])) / tau

    _, h1_dtu = error_norms(FEFunction(space, dtu), pair.ut_field(), t)
    l2_dtheta, _ = error_norms(FEFunction(space, dtheta), pair.theta_t_field(), t)
    l2_theta, h1_theta = error_norms(FEFunction(space, state.theta[0]), pair.theta_field(), t)
    l2_u, _ = error_norms(FEFunction(space, state.u[0]), pair.u_field(), t)

    e_tau = h1_dtu + l2_dtheta + h1_theta
    e_l2 = l2_u + l2_theta
    return e_tau, e_l2


@dataclass(frozen=True)
class ConvergenceConfig:
    variant: str = "westervelt"
    scheme: str = "euler"
    degree: int = 1
    meshes: tuple = (8, 16, 32, 64)
    tau: float = 1.0 / 128.0
    final_time: float = 1.0
    fp_tol: float = 1e-10
    fp_max_iter: int = 100
    model: TissueModel = LIVER_QUADRATIC
    heat: HeatParams = field(default_factory=lambda: HeatParams(kappa=1.0, nu=1e-5))
    pair: ManufacturedPair = field(default_factory=ManufacturedPair)

    def __post_init__(self):
        _store_floats(self, "tau", "final_time")
        variant_by_name(self.variant)
        scheme_by_name(self.scheme)
        if not _is_int(self.degree) or self.degree not in (1, 2, 3):
            raise ValueError(f"degree must be the integer 1, 2 or 3, got {self.degree!r}")
        if not (isinstance(self.meshes, (tuple, list)) and all(map(_is_int, self.meshes))):
            raise ValueError(f"meshes must be integers (subdivision counts), got {self.meshes!r}")
        if len(self.meshes) < 2:
            raise ValueError("a convergence study needs at least two meshes")
        if any(n < 1 for n in self.meshes):
            raise ValueError("mesh subdivision counts must be positive")
        if len(set(self.meshes)) != len(self.meshes):
            raise ValueError(f"mesh subdivision counts must be distinct, got {list(self.meshes)}")
        for n in self.meshes:
            unit_square_cells(n)
        n_steps = step_count(self.final_time, self.tau)
        # total_error takes the scheme's first difference of the last state,
        # which needs len(d1) levels before the newest.
        levels = len(scheme_by_name(self.scheme).d1)
        if n_steps < levels:
            raise ValueError(f"a {self.scheme} study needs at least {levels} steps for its "
                             f"error norm, got {n_steps} (final_time / tau)")
        FixedPointConfig(tol=self.fp_tol, max_iter=self.fp_max_iter)


@dataclass(frozen=True)
class MeshRow:
    n: int
    h: float
    e_tau: float
    e_l2: float
    max_fp_iterations: int


def single_mesh_run(config: ConvergenceConfig, n: int) -> MeshRow:
    """Run the manufactured problem on one n x n unit-square mesh."""
    mesh = unit_square_mesh(n)
    space = build_space(mesh, config.degree)
    pair = config.pair
    variant = variant_by_name(config.variant)
    scheme = scheme_by_name(config.scheme)

    result = run_simulation(
        space,
        scheme=scheme,
        variant=variant,
        model=config.model,
        heat=config.heat,
        tau=config.tau,
        n_steps=step_count(config.final_time, config.tau),
        u0=pair.u_field(),
        u1=pair.ut_field(),
        theta0=pair.theta_field(),
        projection="ritz",
        sources=fem.source_loads(space, pair.sources(variant, config.model, config.heat)),
        fp=FixedPointConfig(tol=config.fp_tol, max_iter=config.fp_max_iter),
    )
    e_tau, e_l2 = total_error(result.state, pair, scheme)
    max_it = max(r.iterations for r in result.reports)
    return MeshRow(n=int(n), h=mesh.h_max, e_tau=e_tau, e_l2=e_l2, max_fp_iterations=max_it)


def _study_worker(payload):
    config, n = payload
    return single_mesh_run(config, n)


@dataclass
class StudyResult:
    config: ConvergenceConfig
    rows: list

    @property
    def rates_e_tau(self) -> np.ndarray:
        return self._rates([r.e_tau for r in self.rows])

    @property
    def rates_l2(self) -> np.ndarray:
        return self._rates([r.e_l2 for r in self.rows])

    def _rates(self, errors) -> np.ndarray:
        hs = [r.h for r in self.rows]
        out = []
        for i in range(1, len(errors)):
            out.append(math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]))
        return np.asarray(out)

    def _rates_of(self, which: str) -> np.ndarray:
        if which == "e_tau":
            return self.rates_e_tau
        if which == "l2":
            return self.rates_l2
        raise ValueError(f"unknown error {which!r} (expected 'e_tau' or 'l2')")

    def plateau_index(self, drop: float = 0.5, which: str = "e_tau") -> int | None:
        return plateau_index(self._rates_of(which), drop)

    def pre_plateau_rates(self, drop: float = 0.5, which: str = "e_tau") -> np.ndarray:
        rates = self._rates_of(which)
        idx = plateau_index(rates, drop)
        return rates if idx is None else rates[:idx]

    def to_csv(self, path) -> None:
        re, rl = self.rates_e_tau, self.rates_l2
        lines = ["h,E_tau,L2_error,rate_E,rate_L2"]
        for i, r in enumerate(self.rows):
            tail = (f"{re[i - 1]:.17g},{rl[i - 1]:.17g}" if i > 0 else ",")
            lines.append(f"{r.h:.17g},{r.e_tau:.17g},{r.e_l2:.17g},{tail}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_plot_data(self, path) -> None:
        """Log-log pairs for plotting the energy error against h."""
        lines = ["log10_h,log10_E_tau"]
        lines.extend(f"{math.log10(r.h):.17g},{math.log10(r.e_tau):.17g}" for r in self.rows)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def convergence_study(config: ConvergenceConfig, jobs: int = 1) -> StudyResult:
    """Run the mesh sequence, optionally spreading meshes over processes.

    Results are ordered exactly as config.meshes regardless of jobs, so a
    study is reproducible byte for byte."""
    meshes = list(config.meshes)
    if not _is_int(jobs) or jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    if jobs == 1 or len(meshes) == 1:
        rows = [single_mesh_run(config, n) for n in meshes]
    else:
        payloads = [(config, n) for n in meshes]
        with ProcessPoolExecutor(max_workers=min(jobs, len(meshes))) as pool:
            rows = list(pool.map(_study_worker, payloads))
    return StudyResult(config=config, rows=rows)
