"""Manufactured solutions: boundary conformity, finite-difference oracles
for every hand-coded derivative and source term, error measurement, and the
convergence-study bookkeeping."""
import math

import numpy as np
import pytest

from thermofem import (
    EULER,
    KUZNETSOV,
    LIVER_QUADRATIC,
    WESTERVELT,
    ConvergenceConfig,
    FEFunction,
    HeatParams,
    LINEAR_WAVE,
    ScalarField,
    SimulationState,
    StudyResult,
    absorption_weights,
    build_space,
    convergence_study,
    error_norms,
    nodal_interpolate,
    unit_square_mesh,
)
from thermofem import coefficients, fem
from thermofem.coefficients import SpeedTable
from thermofem.mms import ManufacturedPair, MeshRow, plateau_index, single_mesh_run, total_error

HEAT = HeatParams(kappa=1.0, nu=1e-5)

# Central-difference step sizes, balanced per derivative order so that
# truncation and rounding each stay a few orders below the 1e-5 target.
DT1 = 1e-6   # first time derivative
DT2 = 1e-4   # second time difference
H1 = 1e-6    # first space derivative
H2 = 1e-4    # pure second space difference
HM = 1e-3    # space step inside the mixed time-space stencil
DTM = 1e-4   # time step of the mixed stencil


def fd_t(f, x, t, dt=DT1):
    return (f(x, t + dt) - f(x, t - dt)) / (2.0 * dt)


def fd_tt(f, x, t, dt=DT2):
    return (f(x, t + dt) - 2.0 * f(x, t) + f(x, t - dt)) / (dt * dt)


def fd_grad(f, x, t, h=H1):
    cols = []
    for i in range(2):
        xp = x.copy()
        xp[..., i] += h
        xm = x.copy()
        xm[..., i] -= h
        cols.append((f(xp, t) - f(xm, t)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def fd_lap(f, x, t, h=H2):
    out = -4.0 * f(x, t)
    for i in range(2):
        xp = x.copy()
        xp[..., i] += h
        xm = x.copy()
        xm[..., i] -= h
        out = out + f(xp, t) + f(xm, t)
    return out / (h * h)


def fd_lap_dt(f, x, t):
    # d/dt of the discrete Laplacian: one central difference per axis.
    return (fd_lap(f, x, t + DTM, h=HM) - fd_lap(f, x, t - DTM, h=HM)) / (2.0 * DTM)


def fd_grad_dt(f, x, t, h=1e-5, dt=1e-5):
    return (fd_grad(f, x, t + dt, h=h) - fd_grad(f, x, t - dt, h=h)) / (2.0 * dt)


def assert_matches(exact, approx, rel=1e-5):
    """Relative agreement in the vector 2-norm over the sample set, plus a
    pointwise check scaled by the sample RMS (plain relative error is
    meaningless on the solution's nodal lines)."""
    exact = np.asarray(exact, dtype=np.float64).ravel()
    approx = np.asarray(approx, dtype=np.float64).ravel()
    norm = np.linalg.norm(exact)
    assert norm > 0.0
    assert np.linalg.norm(approx - exact) <= rel * norm
    scale = norm / math.sqrt(exact.size)
    np.testing.assert_array_less(np.abs(approx - exact), rel * (np.abs(exact) + scale))


@pytest.fixture
def samples(rng):
    x = rng.uniform(0.0, 1.0, size=(1000, 2))
    t = rng.uniform(0.05, 1.0, size=1000)
    return x, t


def evaluate(fn, x, t):
    return np.array([fn(x[i], t[i]) for i in range(len(t))])


class TestBoundaryConformity:
    def test_fields_vanish_on_boundary(self, rng):
        pair = ManufacturedPair()
        s = rng.uniform(0.0, 1.0, size=50)
        edges = np.concatenate([
            np.stack([s, np.zeros(50)], axis=-1),
            np.stack([s, np.ones(50)], axis=-1),
            np.stack([np.zeros(50), s], axis=-1),
            np.stack([np.ones(50), s], axis=-1),
        ])
        assert edges.shape == (200, 2)
        for t in (0.0, 0.37, 1.0):
            u_scale = pair.a1 * math.exp(pair.rate1 * t)
            th_scale = pair.a2 * math.exp(-pair.rate2 * t)
            assert np.all(np.abs(pair.u(edges, t)) <= 1e-12 * u_scale)
            assert np.all(np.abs(pair.theta(edges, t)) <= 1e-12 * th_scale)


class TestDerivativeOracles:
    """Every hand-coded derivative against a central-difference oracle built
    only from the closed-form primitives u(x,t) and theta(x,t)."""

    pair = ManufacturedPair()

    def test_u_time_derivatives(self, samples):
        x, t = samples
        assert_matches([self.pair.u_t(x[i], t[i]) for i in range(1000)],
                       [fd_t(self.pair.u, x[i], t[i]) for i in range(1000)])

    def test_u_space_derivatives(self, samples):
        x, t = samples
        assert_matches(self.pair.grad_u(x, 0.3), fd_grad(self.pair.u, x, 0.3))

    def test_theta_derivatives(self, samples):
        x, t = samples
        assert_matches([self.pair.theta_t(x[i], t[i]) for i in range(1000)],
                       [fd_t(self.pair.theta, x[i], t[i]) for i in range(1000)])
        assert_matches(self.pair.grad_theta(x, 0.7), fd_grad(self.pair.theta, x, 0.7))


def source_values(pair, variant, model, x, t):
    """(wave, heat) sources of the pair at the points x and time t, from the
    evaluator that a run tabulates on its quadrature points."""
    return pair.sources(variant, model, HEAT)(x)(t)


def wave_oracle(pair, variant, model, x, t):
    u = pair.u(x, t)
    ut = fd_t(pair.u, x, t)
    utt = fd_tt(pair.u, x, t)
    lap = fd_lap(pair.u, x, t)
    lap_ut = fd_lap_dt(pair.u, x, t)
    speed = SpeedTable(model, pair.theta(x, t))
    q = speed.q()
    b = speed.beta()
    out = utt - q * lap - b * lap_ut
    k_w, k_k = speed.k()
    if variant.tag == "westervelt":
        out = out + 2.0 * k_w * (u * utt + ut * ut)
    else:
        gu = fd_grad(pair.u, x, t)
        gut = fd_grad_dt(pair.u, x, t)
        out = out + 2.0 * k_k * ut * utt + 2.0 * np.einsum("...e,...e->...", gu, gut)
    return out


def heat_oracle(pair, variant, model, heat, x, t):
    th = pair.theta(x, t)
    u = pair.u(x, t)
    ut = fd_t(pair.u, x, t)
    a1, a2 = absorption_weights(variant, model, th)
    return (fd_t(pair.theta, x, t) - heat.kappa * fd_lap(pair.theta, x, t)
            + heat.nu * th - a1 * u * u - a2 * ut * ut)


class TestSourceOracles:
    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_wave_term(self, variant, samples):
        pair = ManufacturedPair()
        x, t = samples
        exact = evaluate(
            lambda xi, ti: source_values(pair, variant, LIVER_QUADRATIC, xi, ti)[0], x, t)
        oracle = evaluate(
            lambda xi, ti: wave_oracle(pair, variant, LIVER_QUADRATIC, xi, ti), x, t)
        assert_matches(exact, oracle)

    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_heat_term(self, variant, samples):
        pair = ManufacturedPair()
        x, t = samples
        exact = evaluate(
            lambda xi, ti: source_values(pair, variant, LIVER_QUADRATIC, xi, ti)[1], x, t)
        oracle = evaluate(
            lambda xi, ti: heat_oracle(pair, variant, LIVER_QUADRATIC, HEAT, xi, ti), x, t)
        assert_matches(exact, oracle)

    def test_wave_term_survives_on_boundary(self, rng):
        # u vanishes on the wall but its normal derivative does not, so the
        # Kuznetsov gradient coupling keeps the source nonzero there.
        pair = ManufacturedPair()
        s = rng.uniform(0.05, 0.45, size=20)
        edge = np.stack([np.zeros(20), s], axis=-1)
        vals, _ = source_values(pair, KUZNETSOV, LIVER_QUADRATIC, edge, 0.5)
        oracle = wave_oracle(pair, KUZNETSOV, LIVER_QUADRATIC, edge, 0.5)
        assert np.all(np.abs(vals) > 0.0)
        assert_matches(vals, oracle)

    def test_zero_wave_amplitude_zeroes_wave_term(self, rng):
        pair = ManufacturedPair(a1=0.0)
        x = rng.uniform(0.0, 1.0, size=(50, 2))
        wave, _ = source_values(pair, WESTERVELT, LIVER_QUADRATIC, x, 0.4)
        assert np.all(wave == 0.0)

    def test_zero_amplitudes_zero_heat_term(self, rng):
        pair = ManufacturedPair(a1=0.0, a2=0.0)
        x = rng.uniform(0.0, 1.0, size=(50, 2))
        _, heat = source_values(pair, WESTERVELT, LIVER_QUADRATIC, x, 0.4)
        assert np.all(heat == 0.0)

    def test_heat_term_decays_without_wave(self, rng):
        # With no acoustic field the source inherits theta's e^{-rate2 t}
        # envelope.
        pair = ManufacturedPair(a1=0.0)
        x = rng.uniform(0.0, 1.0, size=(200, 2))
        values = pair.sources(WESTERVELT, LIVER_QUADRATIC, HEAT)(x)
        envelope = (pair.rate2 + HEAT.kappa * 2.0 * (4 * math.pi) ** 2 + HEAT.nu) * pair.a2
        for t in (0.0, 2.0, 5.0):
            assert np.max(np.abs(values(t)[1])) <= envelope * math.exp(-pair.rate2 * t)


TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


def written_out_sources(pair, variant, model, heat, x, t):
    """(wave, heat) sources evaluated from scratch, in the product order of
    ManufacturedPair, so a tabulated profile must reproduce them bit for bit."""
    s1, s2 = np.sin(TWO_PI * x[..., 0]), np.sin(TWO_PI * x[..., 1])
    u = pair.a1 * math.exp(pair.rate1 * t) * s1 * s2
    th = (pair.a2 * math.exp(-pair.rate2 * t)
          * np.sin(FOUR_PI * x[..., 0]) * np.sin(FOUR_PI * x[..., 1]))
    ut = pair.rate1 * u
    utt = pair.rate1 * ut
    speed = SpeedTable(model, th)
    lap = -2.0 * TWO_PI * TWO_PI * u
    wave = utt - speed.q() * lap - speed.beta() * pair.rate1 * lap
    k_w, k_k = speed.k()
    if variant is WESTERVELT:
        wave = wave + 2.0 * k_w * (u * utt + ut * ut)
    elif variant is KUZNETSOV:
        c1, c2 = np.cos(TWO_PI * x[..., 0]), np.cos(TWO_PI * x[..., 1])
        amp = pair.a1 * math.exp(pair.rate1 * t) * TWO_PI
        g = np.stack([amp * c1 * s2, amp * s1 * c2], axis=-1)
        wave = wave + 2.0 * k_k * ut * utt + 2.0 * pair.rate1 * np.einsum("...e,...e->...", g, g)
    a1, a2 = absorption_weights(variant, model, th)
    absorbed = a1 * u * u + a2 * ut * ut
    heat_src = (-pair.rate2 * th - heat.kappa * (-2.0 * FOUR_PI * FOUR_PI * th)
                + heat.nu * th - absorbed)
    return wave, heat_src


class TestTabulatedProfiles:
    """The sine profiles are tabulated once per run; every evaluation must
    still equal the formula, bit for bit, and so must the loads."""

    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV, LINEAR_WAVE],
                             ids=["w", "k", "linear"])
    def test_sources_bit_identical_on_tables(self, variant):
        pair = ManufacturedPair(a1=0.8, a2=2e-4, rate1=1.3, rate2=0.4)
        evaluator = pair.sources(variant, LIVER_QUADRATIC, HEAT)
        for n, times in ((3, (0.0, 0.3, 0.7)), (4, (0.2, 0.9))):
            space = build_space(unit_square_mesh(n), 2)
            pts = space.values(space.error_degree).points.reshape(-1, 2)
            values = evaluator(pts)
            loads = fem.source_loads(space, evaluator)
            for t in times:
                want = written_out_sources(pair, variant, LIVER_QUADRATIC, HEAT, pts, t)
                got_loads = loads(t)
                shape = space.values(space.error_degree).points.shape[:2]
                for got, expected, load in zip(values(t), want, got_loads):
                    assert np.array_equal(got, expected)
                    assert np.array_equal(load, fem.assemble_load(
                        space, expected.reshape(shape), quad_degree=space.error_degree))

    def test_mutated_writable_points_are_not_stale(self, rng):
        # Nothing is kept per point array: an evaluator applied to an array
        # after it was overwritten sees the new points.
        pair = ManufacturedPair()
        evaluator = pair.sources(WESTERVELT, LIVER_QUADRATIC, HEAT)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        evaluator(pts)(0.5)
        pts[:] = rng.uniform(0.0, 1.0, size=(40, 2))
        want = written_out_sources(pair, WESTERVELT, LIVER_QUADRATIC, HEAT, pts, 0.5)
        for got, expected in zip(evaluator(pts)(0.5), want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_one_speed_table_per_step(self, variant, monkeypatch):
        # Both loads of a step come from one evaluation of the speed
        # polynomial.
        space = build_space(unit_square_mesh(3), 1)
        loads = fem.source_loads(space, ManufacturedPair().sources(variant, LIVER_QUADRATIC,
                                                                   HEAT))
        calls = []
        speed_of_sound = coefficients.speed_of_sound
        monkeypatch.setattr(coefficients, "speed_of_sound",
                            lambda *args: calls.append(1) or speed_of_sound(*args))
        wave, heat = loads(0.3)
        assert wave.shape == heat.shape == (space.n_dofs,)
        assert len(calls) == 1


class TestTotalError:
    def test_zero_pair_zero_state(self):
        space = build_space(unit_square_mesh(4), 1)
        z = np.zeros(space.n_dofs)
        state = SimulationState(space=space, tau=0.1, step=2, time=0.2,
                                u=[z, z.copy()], theta=[z.copy(), z.copy()])
        e_tau, e_l2 = total_error(state, ManufacturedPair(a1=0.0, a2=0.0), EULER)
        assert e_tau == 0.0
        assert e_l2 == 0.0

    def test_interpolant_state_bounded_by_component_oracles(self):
        # Load the state with nodal interpolants of the exact pair; the
        # triangle inequality bounds E_tau by separately measured
        # difference-quotient and interpolation errors, and the L2 error
        # equals the sum of the interpolation L2 errors.
        pair = ManufacturedPair()
        space = build_space(unit_square_mesh(16), 2)
        tau = 1.0 / 64.0
        t1 = 3 * tau
        t0 = t1 - tau

        u1 = nodal_interpolate(space, pair.u_field(), t1)
        u0 = nodal_interpolate(space, pair.u_field(), t0)
        th1 = nodal_interpolate(space, pair.theta_field(), t1)
        th0 = nodal_interpolate(space, pair.theta_field(), t0)
        state = SimulationState(space=space, tau=tau, step=3, time=t1,
                                u=[u1.values, u0.values],
                                theta=[th1.values, th0.values])
        e_tau, e_l2 = total_error(state, pair, EULER)
        assert e_tau > 0.0
        assert e_l2 > 0.0

        zero = FEFunction(space, np.zeros(space.n_dofs))

        def dq_field(f, gf):
            # analytic error of the backward difference quotient at t1
            return ScalarField(
                lambda x, t: (f(x, t1) - f(x, t0)) / tau,
                lambda x, t: (gf(x, t1) - gf(x, t0)) / tau)

        _, dq_u_h1 = error_norms(zero, ScalarField(
            lambda x, t: pair.u_t(x, t1) - (pair.u(x, t1) - pair.u(x, t0)) / tau,
            lambda x, t: pair.grad_u(x, t1) * pair.rate1
            - (pair.grad_u(x, t1) - pair.grad_u(x, t0)) / tau), 0.0)
        dq_th_l2, _ = error_norms(zero, ScalarField(
            lambda x, t: pair.theta_t(x, t1) - (pair.theta(x, t1) - pair.theta(x, t0)) / tau), 0.0)

        iu1_l2, iu1_h1 = error_norms(u1, pair.u_field(), t1)
        iu0_l2, iu0_h1 = error_norms(u0, pair.u_field(), t0)
        ith1_l2, ith1_h1 = error_norms(th1, pair.theta_field(), t1)
        ith0_l2, ith0_h1 = error_norms(th0, pair.theta_field(), t0)

        bound = (dq_u_h1 + (iu1_h1 + iu0_h1) / tau
                 + dq_th_l2 + (ith1_l2 + ith0_l2) / tau
                 + ith1_h1)
        assert e_tau <= bound * (1.0 + 1e-9)
        assert e_l2 == pytest.approx(iu1_l2 + ith1_l2, rel=1e-12)

    def test_single_dof_perturbation_is_lipschitz(self):
        # |E_tau(theta + eps phi_j) - E_tau(theta)| is at most eps times the
        # basis function's own norms, weighted as they enter the error.
        pair = ManufacturedPair()
        space = build_space(unit_square_mesh(8), 1)
        tau = 0.125
        z = np.zeros(space.n_dofs)
        th = nodal_interpolate(space, pair.theta_field(), tau).values
        state = SimulationState(space=space, tau=tau, step=1, time=tau,
                                u=[z, z.copy()], theta=[th, np.zeros_like(th)])
        base, _ = total_error(state, pair, EULER)

        j = int(space.interior_dofs[7])
        eps = 1e-3
        m_jj = space.mass_matrix().to_dense()[j, j]
        k_jj = space.stiffness_matrix().to_dense()[j, j]
        lipschitz = (EULER.lead1 / tau) * math.sqrt(m_jj) + math.sqrt(k_jj)

        perturbed = th.copy()
        perturbed[j] += eps
        state.theta = [perturbed, np.zeros_like(th)]
        shifted, _ = total_error(state, pair, EULER)
        assert abs(shifted - base) <= eps * lipschitz * (1.0 + 1e-9)


class TestPlateauDetector:
    def test_detects_drop(self):
        assert plateau_index([2.9, 3.0, 1.2]) == 2
        assert plateau_index([3.0, 2.4]) == 1

    def test_ignores_gentle_decline(self):
        assert plateau_index([1.0, 0.9, 0.95]) is None
        assert plateau_index([2.0]) is None
        assert plateau_index([]) is None

    def test_custom_drop(self):
        assert plateau_index([3.0, 2.6], drop=0.3) == 1
        assert plateau_index([3.0, 2.6], drop=0.5) is None


def synthetic_study(hs, e_tau, e_l2):
    cfg = ConvergenceConfig(meshes=tuple(round(1 / h) for h in hs))
    rows = [MeshRow(n=round(1 / h), h=h, e_tau=et, e_l2=el, max_fp_iterations=1)
            for h, et, el in zip(hs, e_tau, e_l2)]
    return StudyResult(config=cfg, rows=rows)


class TestStudyBookkeeping:
    def test_rates_recover_exact_powers(self):
        hs = [1 / 8, 1 / 16, 1 / 32]
        study = synthetic_study(hs, [3.0 * h for h in hs], [0.5 * h * h for h in hs])
        np.testing.assert_allclose(study.rates_e_tau, [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(study.rates_l2, [2.0, 2.0], rtol=1e-12)

    def test_pre_plateau_rates(self):
        hs = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
        errors = [h**3 for h in hs]
        errors[-1] = errors[-2] / 2.0  # flattens to first order
        study = synthetic_study(hs, errors, errors)
        assert study.plateau_index() == 2
        np.testing.assert_allclose(study.pre_plateau_rates(), [3.0, 3.0], rtol=1e-12)

    def test_rate_name_selects_error_or_is_rejected(self):
        hs = [1 / 8, 1 / 16, 1 / 32]
        study = synthetic_study(hs, [3.0 * h for h in hs], [0.5 * h * h for h in hs])
        np.testing.assert_allclose(study.pre_plateau_rates(which="e_tau"), [1.0, 1.0], rtol=1e-12)
        np.testing.assert_allclose(study.pre_plateau_rates(which="l2"), [2.0, 2.0], rtol=1e-12)
        for which in ("E_tau", "L2", "h1"):
            with pytest.raises(ValueError, match="e_tau"):
                study.plateau_index(which=which)
            with pytest.raises(ValueError, match="e_tau"):
                study.pre_plateau_rates(which=which)

    def test_csv_format_and_determinism(self, tmp_path):
        hs = [1 / 8, 1 / 16]
        study = synthetic_study(hs, [0.25, 0.125], [0.01, 0.0025])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        study.to_csv(p1)
        study.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().split("\n")
        assert lines[0] == "h,E_tau,L2_error,rate_E,rate_L2"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[3] == "" and first[4] == ""
        second = lines[2].split(",")
        assert float(second[3]) == pytest.approx(1.0)
        assert float(second[4]) == pytest.approx(2.0)

    def test_plot_data(self, tmp_path):
        hs = [1 / 8, 1 / 16]
        study = synthetic_study(hs, [0.25, 0.125], [0.01, 0.0025])
        path = tmp_path / "plot.csv"
        study.write_plot_data(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "log10_h,log10_E_tau"
        x0, y0 = map(float, lines[1].split(","))
        assert x0 == pytest.approx(math.log10(1 / 8))
        assert y0 == pytest.approx(math.log10(0.25))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConvergenceConfig(variant="burgers")
        with pytest.raises(ValueError):
            ConvergenceConfig(scheme="leapfrog")
        with pytest.raises(ValueError):
            ConvergenceConfig(degree=4)
        with pytest.raises(ValueError):
            ConvergenceConfig(meshes=(8,))
        with pytest.raises(ValueError):
            ConvergenceConfig(meshes=(0, 8))
        with pytest.raises(ValueError, match="distinct"):
            ConvergenceConfig(meshes=(2, 2, 2))  # no rate between equal meshes
        with pytest.raises(ValueError, match="tau"):
            ConvergenceConfig(tau=-1.0)
        with pytest.raises(ValueError, match="multiple"):
            ConvergenceConfig(tau=0.3, final_time=1.0)
        with pytest.raises(ValueError, match="tolerance"):
            ConvergenceConfig(fp_tol=5.0)
        with pytest.raises(ValueError, match="max_iter"):
            ConvergenceConfig(fp_max_iter=0)

    @pytest.mark.parametrize("meshes", [(2.7, 4), (2.0, 4), (True, 4), (2, np.int64(4))],
                             ids=repr)
    def test_non_int_mesh_counts_rejected(self, meshes):
        # 2.7 would run as n = 2, and True as n = 1.
        with pytest.raises(ValueError, match="must be integers"):
            ConvergenceConfig(meshes=meshes, tau=0.25, final_time=0.5)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True], ids=repr)
    def test_non_int_iteration_cap_rejected(self, max_iter):
        # 2.5 would fail only in the first wave step, inside range().
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            ConvergenceConfig(meshes=(2, 4), tau=0.25, final_time=0.5, fp_max_iter=max_iter)

    @pytest.mark.parametrize("degree", [2.0, 1.0, True, np.int64(2)], ids=repr)
    def test_non_int_degree_rejected(self, degree):
        # 2.0 and True equal a valid degree; the run would fail only inside
        # build_space.
        with pytest.raises(ValueError, match="degree must be the integer 1, 2 or 3"):
            ConvergenceConfig(degree=degree, meshes=(2, 4), tau=0.25, final_time=0.5)

    @pytest.mark.parametrize("variant,scheme", [("kuznetsov", "euler"), ("westervelt", "bdf2")])
    def test_study_calls_no_einsum(self, variant, scheme, monkeypatch):
        # Every element kernel is a GEMM against a per-rule table; an einsum
        # would work out its contraction path again on every call.
        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum called by a study")

        monkeypatch.setattr(np, "einsum", einsum)
        cfg = ConvergenceConfig(variant=variant, scheme=scheme, meshes=(2, 4), tau=0.125,
                                final_time=0.375)
        assert [row.n for row in convergence_study(cfg).rows] == [2, 4]

    def test_parallel_study_matches_serial(self):
        cfg = ConvergenceConfig(meshes=(2, 4), tau=0.25, final_time=0.5)
        serial = convergence_study(cfg, jobs=1)
        parallel = convergence_study(cfg, jobs=2)
        assert [r.n for r in serial.rows] == [2, 4]
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b  # bit-identical dataclasses
        # 1.5 used to raise TypeError from the process pool, True to run
        # as jobs=1.
        for jobs in (0, 1.5, 2.0, True, "2"):
            with pytest.raises(ValueError, match="jobs must be a positive integer"):
                convergence_study(cfg, jobs=jobs)

    def test_single_mesh_run_reports_positive_errors(self):
        cfg = ConvergenceConfig(meshes=(4, 8), tau=0.25, final_time=0.5)
        row = single_mesh_run(cfg, 4)
        assert row.n == 4
        assert row.h == pytest.approx(math.sqrt(2.0) / 4.0)
        assert row.e_tau > 0.0
        assert row.e_l2 > 0.0
        assert row.max_fp_iterations >= 1


class TestSchemeTimeOrder:
    """Halving tau on a fixed fine space reduces the error at the scheme's
    design order; the space is chosen fine enough that the spatial floor
    stays out of the measured range."""

    def rate(self, scheme, degree, taus):
        errors = []
        for tau in taus:
            cfg = ConvergenceConfig(variant="westervelt", scheme=scheme,
                                    degree=degree, meshes=(16, 32), tau=tau,
                                    final_time=0.5)
            errors.append(single_mesh_run(cfg, 32).e_tau)
        return math.log2(errors[0] / errors[1])

    def test_euler_first_order_in_time(self):
        assert self.rate("euler", 2, (1 / 8, 1 / 16)) == pytest.approx(1.0, abs=0.3)

    def test_bdf2_second_order_in_time(self):
        assert self.rate("bdf2", 3, (1 / 8, 1 / 16)) == pytest.approx(2.0, abs=0.3)
