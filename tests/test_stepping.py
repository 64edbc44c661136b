"""Time integration: difference-operator algebra, dissipativity of the
implicit steps, fixed-point behavior, and the simulation driver."""
import numpy as np
import pytest

from thermofem import (
    BDF2,
    EULER,
    KUZNETSOV,
    LINEAR_WAVE,
    LIVER_QUADRATIC,
    WESTERVELT,
    DegeneracyError,
    DegeneracyWarning,
    FixedPointConfig,
    HeatParams,
    ScalarField,
    SimulationState,
    StepContext,
    TissueModel,
    build_space,
    run_simulation,
    scheme_by_name,
    unit_square_mesh,
)
from thermofem import FixedPointDivergenceError, fem, linalg, stepping
from thermofem.coefficients import SpeedTable
from thermofem.mms import ManufacturedPair
from thermofem.stepping import (
    ChordBase,
    delta1,
    delta2,
    heat_step,
    step_count,
    wave_step,
    write_step_reports,
)

# Constant sound speed: q and beta do not depend on theta, so the wave
# equation decouples from the temperature.
CONSTANT_MEDIUM = TissueModel(speed_coeffs=(2.0,), ambient=37.0, density=1000.0,
                              b_over_2a=5.0, frequency=1.0)

SINE_INITIAL = ScalarField(
    lambda x, t: np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
    lambda x, t: np.pi * np.stack(
        [np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])], axis=-1))
SINE_VELOCITY = ScalarField(
    lambda x, t: np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
    lambda x, t: np.pi * np.stack(
        [2.0 * np.cos(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]),
         np.sin(2 * np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])], axis=-1))


def small_space(n=8, degree=1):
    return build_space(unit_square_mesh(n), degree)


def interior_vector(space, rng, scale=1.0):
    vec = np.zeros(space.n_dofs)
    vec[space.interior_dofs] = scale * rng.normal(size=space.interior_dofs.size)
    return vec


def count_factorizations(monkeypatch):
    """Record the size of every LU factorization made from here on."""
    calls = []
    real = linalg.factorize

    def counting(a):
        calls.append(a.shape[0])
        return real(a)

    monkeypatch.setattr(linalg, "factorize", counting)
    return calls


def picard_wave_step(ctx, max_iter=60):
    """Reference fixed point for the wave step: rebuild and solve the
    interior system densely at every iterate until it stops moving."""
    space, tau, ix = ctx.space, ctx.tau, ctx.interior
    u = ctx.u_start.copy()
    for _ in range(max_iter):
        n1, n2 = ctx.nonlinearity(u)
        m_n1 = fem.assemble_mass(space, n1)
        a = (ctx.scheme.lead2 * m_n1.to_dense() + ctx.stiff_frozen.to_dense())[np.ix_(ix, ix)]
        rhs = (m_n1 @ ctx.d2u + tau * ctx.sb_d1 + tau * tau * ctx.f_load
               - tau * tau * fem.assemble_load(space, n2))
        u_new = np.zeros(space.n_dofs)
        u_new[ix] = np.linalg.solve(a, rhs[ix])
        if space.l2_norm(u_new - u) <= 1e-15 * space.l2_norm(u_new):
            return u_new
        u = u_new
    raise AssertionError("reference Picard loop did not settle")


def fresh_factor_run(space, scheme, variant, model, heat, tau, n_steps, u0, u1, theta0):
    """Reference run from coefficient vectors that factors the wave system
    afresh in every step: wave_step without a kept base."""
    state = SimulationState(space=space, tau=tau, u=[u0.copy(), u0 - tau * u1],
                            theta=[theta0.copy()])
    cache: dict = {}
    for n in range(n_steps):
        ctx = StepContext(state, scheme, variant, model)
        u_new, _ = wave_step(ctx, FixedPointConfig())
        theta_new, _ = heat_step(ctx, u_new, heat, cache)
        state.u = [u_new] + state.u[:2]
        state.theta = [theta_new] + state.theta[:2]
        state.step, state.time = n + 1, (n + 1) * tau
    return state


def zero_state(space, tau, levels=2):
    # A run has two wave levels at its first step, three from then on.
    z = np.zeros(space.n_dofs)
    return SimulationState(space=space, tau=tau, step=levels - 2,
                           u=[z.copy() for _ in range(levels)], theta=[z.copy()])


class TestSchemes:
    def test_weights(self):
        assert (EULER.lead1, EULER.lead2, EULER.d1, EULER.d2) == (1.0, 1.0, (1.0,), (2.0, -1.0))
        assert (BDF2.lead1, BDF2.lead2, BDF2.d1, BDF2.d2) == (1.5, 2.0, (2.0, -0.5),
                                                              (5.0, -4.0, 1.0))

    def test_combinations_equal_written_out_expressions(self, rng):
        # The weighted sums reproduce the schemes' literal history
        # combinations bit for bit, signed zeros included.
        h = [rng.standard_normal(64) for _ in range(3)]
        for level in h:
            level[:16] = rng.choice([0.0, -0.0], size=16)
        pairs = [
            (delta1(EULER, h), np.asarray(h[0], dtype=np.float64)),
            (delta2(EULER, h), 2.0 * h[0] - h[1]),
            (delta1(BDF2, h), 2.0 * h[0] - 0.5 * h[1]),
            (delta2(BDF2, h), 5.0 * h[0] - 4.0 * h[1] + h[2]),
        ]
        for got, expected in pairs:
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_lookup(self):
        assert scheme_by_name("euler") is EULER
        assert scheme_by_name("bdf2") is BDF2
        with pytest.raises(ValueError, match="leapfrog"):
            scheme_by_name("leapfrog")

    def test_insufficient_history(self):
        x = np.ones(3)
        with pytest.raises(ValueError):
            delta1(EULER, [])
        with pytest.raises(ValueError):
            delta1(BDF2, [x])
        with pytest.raises(ValueError):
            delta2(EULER, [x])
        with pytest.raises(ValueError):
            delta2(BDF2, [x, x])


class TestDifferenceExactness:
    """The discrete derivatives (lead*a^{n+1} - delta)/tau^k applied to
    samples of a polynomial in time must reproduce its true derivatives:
    first differences on the schemes' design order, second differences on
    quadratics for both schemes."""

    def sample(self, poly, n, tau, count, rng):
        # history levels a^n, a^{n-1}, ... as vectors with random spatial profile
        profile = rng.normal(size=5)
        levels = [np.polyval(poly, k * tau) * profile for k in range(n, n - count, -1)]
        return profile, levels

    @pytest.mark.parametrize("scheme", [EULER, BDF2], ids=["euler", "bdf2"])
    def test_constants(self, scheme, rng):
        profile, levels = self.sample([4.2], 5, 0.1, len(scheme.d2), rng)
        new = 4.2 * profile
        d1 = (scheme.lead1 * new - delta1(scheme, levels)) / 0.1
        d2 = (scheme.lead2 * new - delta2(scheme, levels)) / 0.01
        np.testing.assert_allclose(d1, 0.0, atol=1e-12)
        np.testing.assert_allclose(d2, 0.0, atol=1e-12)

    @pytest.mark.parametrize("scheme", [EULER, BDF2], ids=["euler", "bdf2"])
    def test_first_difference_exact_on_linears(self, scheme, rng):
        tau, n = 0.125, 7
        poly = [3.0, -1.5]  # 3t - 1.5
        profile, levels = self.sample(poly, n, tau, len(scheme.d2), rng)
        new = np.polyval(poly, (n + 1) * tau) * profile
        d1 = (scheme.lead1 * new - delta1(scheme, levels)) / tau
        np.testing.assert_allclose(d1, 3.0 * profile, rtol=1e-12, atol=1e-13)

    def test_bdf2_first_difference_exact_on_quadratics(self, rng):
        tau, n = 0.125, 4
        poly = [2.0, -1.0, 0.5]  # 2t^2 - t + 0.5
        profile, levels = self.sample(poly, n, tau, len(BDF2.d2), rng)
        t_new = (n + 1) * tau
        new = np.polyval(poly, t_new) * profile
        d1 = (BDF2.lead1 * new - delta1(BDF2, levels)) / tau
        np.testing.assert_allclose(d1, (4.0 * t_new - 1.0) * profile, rtol=1e-12)

    @pytest.mark.parametrize("scheme", [EULER, BDF2], ids=["euler", "bdf2"])
    def test_second_difference_exact_on_quadratics(self, scheme, rng):
        tau, n = 0.25, 6
        poly = [1.75, 0.3, -2.0]
        profile, levels = self.sample(poly, n, tau, len(scheme.d2), rng)
        new = np.polyval(poly, (n + 1) * tau) * profile
        d2 = (scheme.lead2 * new - delta2(scheme, levels)) / tau**2
        np.testing.assert_allclose(d2, 2 * 1.75 * profile, rtol=1e-11)

    def test_euler_first_difference_is_backward(self, rng):
        hist = [rng.normal(size=4)]
        np.testing.assert_allclose(delta1(EULER, hist), hist[0])


class TestFixedPointConfig:
    def test_defaults(self):
        fp = FixedPointConfig()
        assert fp.tol == 1e-10
        assert fp.max_iter == 100

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3])
    def test_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            FixedPointConfig(tol=tol)

    def test_bad_max_iter(self):
        with pytest.raises(ValueError):
            FixedPointConfig(max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 2.0, True, "3"], ids=repr)
    def test_non_int_max_iter_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            FixedPointConfig(max_iter=max_iter)


class TestWaveStep:
    def test_zero_history_zero_source(self):
        space = small_space(4)
        state = zero_state(space, tau=0.01)
        u_new, info = wave_step(StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC),
                                FixedPointConfig())
        assert np.all(u_new == 0.0)
        assert info["iterations"] == 1

    @pytest.mark.parametrize("scheme_name", ["euler", "bdf2"])
    def test_linear_regime_single_iteration(self, scheme_name):
        space = small_space(8)
        result = run_simulation(
            space, scheme=scheme_by_name(scheme_name), variant=LINEAR_WAVE,
            model=CONSTANT_MEDIUM, heat=HeatParams(1.0, 1e-5), tau=0.05,
            n_steps=6, u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=SINE_INITIAL,
            projection="nodal")
        assert all(rep.iterations == 1 for rep in result.reports)
        assert all(rep.n1_min == 1.0 for rep in result.reports)

    @pytest.mark.parametrize("scheme_name", ["euler", "bdf2"])
    @pytest.mark.parametrize("data", ["zero", "linear"])
    def test_stationary_tables_take_one_iterate_and_one_factor(self, data, scheme_name,
                                                               monkeypatch):
        # The nonlinearity tables and the frozen stiffness never move here,
        # so each step takes one chord correction from its start, with a
        # kept wave factor that is exact.  The wave system is factored once
        # per leading weight lead2 (a BDF2 run's Euler factor serves its
        # first step only), and so is the heat system per leading weight
        # lead1.  The states are bit-identical to those of a fresh wave
        # factor per step.
        space = small_space(6)
        z = np.zeros(space.n_dofs)
        if data == "zero":
            kwargs = dict(variant=WESTERVELT, model=LIVER_QUADRATIC, u0=z, u1=z, theta0=z)
        else:
            kwargs = dict(variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                          u0=fem.nodal_interpolate(space, SINE_INITIAL).values,
                          u1=fem.nodal_interpolate(space, SINE_VELOCITY).values,
                          theta0=fem.nodal_interpolate(space, SINE_INITIAL).values)
        scheme = scheme_by_name(scheme_name)
        heat = HeatParams(1.0, 1e-5)
        expected = fresh_factor_run(space, scheme, heat=heat, tau=0.05, n_steps=4, **kwargs)
        calls = count_factorizations(monkeypatch)
        result = run_simulation(space, scheme=scheme, heat=heat, tau=0.05, n_steps=4, **kwargs)
        assert [rep.iterations for rep in result.reports] == [1, 1, 1, 1]
        wave = [1, 0, 0, 0] if scheme_name == "euler" else [1, 1, 0, 0]
        heat_factors = [1, 0, 0, 0] if scheme_name == "euler" else [1, 1, 0, 0]
        assert ([rep.factorizations for rep in result.reports]
                == [w + h for w, h in zip(wave, heat_factors)])
        assert len(calls) == sum(rep.factorizations for rep in result.reports)
        for got, want in zip(result.state.u + result.state.theta, expected.u + expected.theta):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", [EULER, BDF2])
    def test_first_iterate_from_a_fresh_factor_solves_the_system_at_u_n(self, scheme, rng):
        # A linear step: one correction from the extrapolated start with the
        # factor of A at it is the solution of A u = b, which vanishes on
        # the boundary even where the history levels do not.
        space = small_space(6)
        tau = 0.05
        state = zero_state(space, tau, levels=3)
        state.u = [rng.normal(size=space.n_dofs) for _ in range(3)]
        state.theta = [interior_vector(space, rng) for _ in range(2)]
        x1 = space.values().points[..., 0]
        ctx = StepContext(state, scheme, LINEAR_WAVE, CONSTANT_MEDIUM,
                          lambda t: (fem.assemble_load(space, 1.0 + x1), None))
        u_new, info = wave_step(ctx, FixedPointConfig())
        assert info["iterations"] == 1 and info["factorizations"] == 1

        ix = space.interior_dofs
        m = space.mass_matrix()
        a = (ctx.scheme.lead2 * m.to_dense() + ctx.stiff_frozen.to_dense())[np.ix_(ix, ix)]
        b = m @ ctx.d2u + tau * ctx.sb_d1 + tau * tau * ctx.f_load
        expected = np.zeros(space.n_dofs)
        expected[ix] = np.linalg.solve(a, b[ix])
        assert np.abs(u_new - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.all(u_new[space.boundary_dofs] == 0.0)

    @pytest.mark.parametrize("levels", [2, 3])
    def test_iteration_starts_from_extrapolated_history(self, levels, rng):
        # The first nonlinearity tables are those of the extrapolation
        # 2u^n - u^{n-1} (two levels) or 3u^n - 3u^{n-1} + u^{n-2} (three),
        # on the interior dofs only, even where the history is nonzero on
        # the boundary.
        space = small_space(4)
        state = zero_state(space, tau=0.05, levels=levels)
        state.u = [rng.normal(scale=0.01, size=space.n_dofs) for _ in range(levels)]
        ctx = StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC)
        starts = []
        nonlinearity = ctx.nonlinearity

        def recording(u_vec):
            starts.append(u_vec.copy())
            return nonlinearity(u_vec)

        ctx.nonlinearity = recording
        wave_step(ctx, FixedPointConfig())
        h = state.u
        expected = 2.0 * h[0] - h[1] if levels == 2 else 3.0 * h[0] - 3.0 * h[1] + h[2]
        ix = space.interior_dofs
        assert np.array_equal(starts[0][ix], expected[ix])
        assert np.all(starts[0][space.boundary_dofs] == 0.0)

    def test_extrapolated_start_takes_two_iterates_on_smooth_data(self):
        # The BDF2/P2 manufactured run: from the extrapolated start every
        # step meets the increment test at its second iterate, the least
        # the test allows; started from u^n, later steps took a third.
        pair = ManufacturedPair()
        heat = HeatParams(1.0, 1e-5)
        space = small_space(4, degree=2)
        result = run_simulation(
            space, scheme=BDF2, variant=WESTERVELT, model=LIVER_QUADRATIC, heat=heat,
            tau=1.0 / 32, n_steps=8, u0=pair.u_field(), u1=pair.ut_field(),
            theta0=pair.theta_field(),
            sources=fem.source_loads(space, pair.sources(WESTERVELT, LIVER_QUADRATIC, heat)))
        assert [rep.iterations for rep in result.reports] == [2] * 8

    def test_nonlinear_step_factors_once_and_matches_picard(self, monkeypatch):
        # k_W = 1: the quasilinear factor 1 + 2u moves by tens of percent.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0, b_over_2a=0.0)
        space = small_space(6)
        state = zero_state(space, tau=0.05)
        state.u[0] = 0.2 * fem.nodal_interpolate(space, SINE_INITIAL).values
        state.u[1] = state.u[0] - 0.05 * fem.nodal_interpolate(space, SINE_VELOCITY).values
        ctx = StepContext(state, EULER, WESTERVELT, model)

        calls = count_factorizations(monkeypatch)
        u_new, info = wave_step(ctx, FixedPointConfig(tol=1e-14))
        assert calls == [space.interior_dofs.size]
        assert info["iterations"] > 3
        assert len(info["solves"]) == info["iterations"]

        expected = picard_wave_step(ctx)
        assert np.abs(u_new - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_kept_factor_matches_fresh_factors_over_a_run(self, monkeypatch):
        # The model of the test above: n1 moves from step to step, so every
        # step after the first of its leading weight runs on a stale base.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0, b_over_2a=0.0)
        space = small_space(6)
        kwargs = dict(variant=WESTERVELT, model=model, heat=HeatParams(1.0, 1e-5), tau=0.05,
                      n_steps=6, u0=0.2 * fem.nodal_interpolate(space, SINE_INITIAL).values,
                      u1=fem.nodal_interpolate(space, SINE_VELOCITY).values,
                      theta0=np.zeros(space.n_dofs))
        expected = fresh_factor_run(space, BDF2, **kwargs)
        calls = count_factorizations(monkeypatch)
        result = run_simulation(space, scheme=BDF2, **kwargs)
        factorizations = [rep.factorizations for rep in result.reports]
        # Euler's step 1, then BDF2's first step: a wave and a heat factor each
        assert factorizations[:2] == [2, 2]
        assert 0 in factorizations[2:]  # a step on the kept factor
        assert len(calls) == sum(factorizations)
        for got, want in zip(result.state.u, expected.u):
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_frequent_refreshes_cost_no_more_than_fresh_factors(self, monkeypatch):
        # The model of the tests above with a refresh ratio that fires on
        # most stale steps: each new factor is made once, by its step, so
        # the run makes at most the fresh-factor count (a wave factor per
        # step plus the Euler and BDF2 heat factors).
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0, b_over_2a=0.0)
        space = small_space(6)
        monkeypatch.setattr(stepping, "_CHORD_REFRESH", 0.1)
        calls = count_factorizations(monkeypatch)
        n_steps = 6
        result = run_simulation(
            space, scheme=BDF2, variant=WESTERVELT, model=model, heat=HeatParams(1.0, 1e-5),
            tau=0.05, n_steps=n_steps, u0=0.2 * fem.nodal_interpolate(space, SINE_INITIAL).values,
            u1=fem.nodal_interpolate(space, SINE_VELOCITY).values, theta0=np.zeros(space.n_dofs))
        assert len(calls) == sum(rep.factorizations for rep in result.reports)
        assert len(calls) <= n_steps + 2

    def test_stalled_stale_factor_is_refreshed(self, monkeypatch):
        # A base factored at rest (n1 = 1) used where n1 = 3: its chord
        # correction grows instead of contracting.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0, b_over_2a=0.0)
        space = small_space(4)

        def context(level):
            state = zero_state(space, tau=0.01)
            state.u[0][space.interior_dofs] = level
            state.u[1][:] = state.u[0]
            return StepContext(state, EULER, WESTERVELT, model)

        def rest_base():
            base = ChordBase()
            wave_step(context(0.0), FixedPointConfig(), base)
            assert base.lu is not None and base.lead2 == EULER.lead2
            return base

        fp = FixedPointConfig(tol=1e-13)
        expected, _ = wave_step(context(1.0), fp)
        u_new, info = wave_step(context(1.0), fp, rest_base())
        assert info["increments"][1] > info["increments"][0]
        assert info["factorizations"] == 1
        assert np.abs(u_new - expected).max() <= 1e-12 * np.abs(expected).max()

        monkeypatch.setattr(stepping, "_CHORD_REFRESH", np.inf)
        with pytest.raises(FixedPointDivergenceError):
            wave_step(context(1.0), fp, rest_base())

    def test_non_finite_wave_load_stops_at_first_iterate(self):
        space = small_space(4)
        bad = np.full(space.n_dofs, np.nan)
        with pytest.raises(FloatingPointError, match="wave iterate 1 at step 3") as exc:
            run_simulation(
                space, scheme=BDF2, variant=WESTERVELT, model=LIVER_QUADRATIC,
                heat=HeatParams(1.0, 1e-5), tau=0.05, n_steps=5, u0=SINE_INITIAL,
                u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="nodal",
                sources=lambda t: (bad if t == 3 * 0.05 else None, None))
        assert exc.value.step_index == 3

    def test_single_euler_step_matches_hand_solution(self):
        # One interior vertex: the step reduces to a scalar equation
        #   (M + tau^2 q K + tau b K) u1 = M (2 u0 - ghost) + tau b K u0
        # with ghost = u0 - tau v0, all coefficients frozen at theta = 0.
        space = small_space(2)
        assert space.interior_dofs.size == 1
        i = int(space.interior_dofs[0])
        a, b = 0.7, -0.3
        u0 = np.zeros(space.n_dofs)
        u0[i] = a
        v0 = np.zeros(space.n_dofs)
        v0[i] = b
        tau = 0.01

        result = run_simulation(
            space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
            heat=HeatParams(1.0, 0.0), tau=tau, n_steps=1,
            u0=u0, u1=v0, theta0=np.zeros(space.n_dofs))

        m = space.mass_matrix().to_dense()[i, i]
        k = space.stiffness_matrix().to_dense()[i, i]
        q = 4.0
        beta = float(SpeedTable(CONSTANT_MEDIUM, 0.0).beta())
        expected = (m * (a + tau * b) + tau * beta * k * a) / (
            m + tau * tau * q * k + tau * beta * k)
        assert result.state.u[0][i] == pytest.approx(expected, rel=1e-12)

    def test_degenerate_quasilinear_factor_raises(self):
        # k_W = 1, so u = -5 drives 1 + 2 k_W u far below zero.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0,
                            b_over_2a=0.0)
        space = small_space(4)
        state = zero_state(space, tau=0.01)
        state.u[0][space.interior_dofs] = -5.0
        with pytest.raises(DegeneracyError):
            wave_step(StepContext(state, EULER, WESTERVELT, model), FixedPointConfig())

    def test_near_degenerate_factor_warns(self):
        # k_W = 1 and u = -0.46 at rest: 1 + 2 k_W u starts at 0.08, below
        # the warning level 0.1, yet stays positive through the step.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0,
                            b_over_2a=0.0)
        space = small_space(4)
        state = zero_state(space, tau=0.01)
        state.u[0][space.interior_dofs] = -0.46
        state.u[1][:] = state.u[0]  # zero discrete velocity
        with pytest.warns(DegeneracyWarning):
            _, info = wave_step(StepContext(state, EULER, WESTERVELT, model),
                                FixedPointConfig())
        assert 0.0 < info["n1_min"] < 0.1

    def test_divergence_reports_last_increment(self):
        # One iteration cannot meet the tolerance for genuinely nonlinear data.
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0,
                            b_over_2a=0.0)
        space = small_space(4)
        state = zero_state(space, tau=0.1)
        state.u[0][space.interior_dofs] = 0.4
        from thermofem import FixedPointDivergenceError
        with pytest.raises(FixedPointDivergenceError) as exc:
            wave_step(StepContext(state, EULER, WESTERVELT, model),
                      FixedPointConfig(tol=1e-14, max_iter=1))
        assert exc.value.iterations == 1
        assert exc.value.increment > 0.0

    def test_fixed_point_behavior_on_smooth_data(self):
        # Manufactured regime on a coarse mesh: few iterations, and the
        # increment sequence within each step decreases monotonically.
        pair = ManufacturedPair()
        space = small_space(8)
        result = run_simulation(
            space, scheme=EULER, variant=KUZNETSOV, model=LIVER_QUADRATIC,
            heat=HeatParams(1.0, 1e-5), tau=1.0 / 128, n_steps=16,
            u0=pair.u_field(), u1=pair.ut_field(), theta0=pair.theta_field(),
            sources=fem.source_loads(space, pair.sources(KUZNETSOV, LIVER_QUADRATIC,
                                                         HeatParams(1.0, 1e-5))))
        for rep in result.reports:
            assert rep.iterations <= 10
            incs = rep.increments
            assert all(incs[j + 1] < incs[j] for j in range(len(incs) - 1))


class TestStepContext:
    @staticmethod
    def context(scheme, variant, rng, degree=1):
        # tau = 1e-3 makes tau^2 q and tau beta comparable for liver tissue,
        # so both weights and their theta gradients show in the sums.
        space = small_space(6, degree)
        levels = len(scheme.d2)
        state = zero_state(space, tau=1e-3, levels=levels)
        state.u = [interior_vector(space, rng, scale=0.1) for _ in range(levels)]
        state.theta = [interior_vector(space, rng, scale=5.0) for _ in range(levels - 1)]
        return state, StepContext(state, scheme, variant, LIVER_QUADRATIC)

    @pytest.mark.parametrize("scheme", [EULER, BDF2], ids=["euler", "bdf2"])
    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_frozen_parts_match_two_assemblies(self, scheme, variant, rng):
        state, ctx = self.context(scheme, variant, rng)
        assert ctx.scheme is scheme
        space, tau = ctx.space, ctx.tau
        theta_grad = ctx.fev.fe_gradients(state.theta[0])
        q_vals, dq = ctx.speed.q(derivative=True)
        b_vals, db = ctx.speed.beta(derivative=True)
        s_q = fem.assemble_weighted_stiffness(space, (q_vals, dq[:, :, None] * theta_grad))
        s_b = fem.assemble_weighted_stiffness(space, (b_vals, db[:, :, None] * theta_grad))

        expected = (tau * tau) * s_q.to_dense() + (tau * scheme.lead1) * s_b.to_dense()
        got = ctx.stiff_frozen.to_dense()
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
        expected = s_b @ ctx.d1u
        assert np.abs(ctx.sb_d1 - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("scheme", [EULER, BDF2], ids=["euler", "bdf2"])
    def test_kuznetsov_remainder_matches_gradients_of_ut(self, scheme, rng):
        _, ctx = self.context(scheme, KUZNETSOV, rng, degree=2)
        u = interior_vector(ctx.space, rng, scale=0.1)
        _, n2 = ctx.nonlinearity(u)
        ut = (scheme.lead1 * u - ctx.d1u) / ctx.tau
        expected = 2.0 * np.einsum("cqe,cqe->cq", ctx.fev.fe_gradients(u),
                                   ctx.fev.fe_gradients(ut))
        assert np.abs(n2 - expected).max() <= 1e-12 * np.abs(expected).max()


class TestEnergyDecay:
    def test_linear_wave_energy_nonincreasing(self):
        # E^n = 0.5 ||(u^n - u^{n-1}) / tau||_M^2 + (q/2) |u^n|_K^2 must not
        # grow under implicit Euler with constant coefficients and no source.
        space = small_space(8)
        tau = 0.01
        collected = {}
        run_simulation(
            space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
            heat=HeatParams(1.0, 0.0), tau=tau, n_steps=50,
            u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=np.zeros(space.n_dofs),
            projection="nodal",
            snapshot_indices=range(51),
            on_snapshot=lambda idx, t, u, th: collected.update({idx: u.values}))
        assert len(collected) == 51

        mass = space.mass_matrix()
        stiff = space.stiffness_matrix()
        q = 4.0

        def energy(u_now, u_prev):
            d = (u_now - u_prev) / tau
            return 0.5 * float(d @ (mass @ d)) + 0.5 * q * float(u_now @ (stiff @ u_now))

        energies = [energy(collected[k], collected[k - 1]) for k in range(1, 51)]
        assert energies[0] > 0.0
        for e_prev, e_next in zip(energies, energies[1:]):
            assert e_next <= e_prev * (1.0 + 1e-12)


class TestHeatStep:
    def test_zero_stays_zero(self):
        space = small_space(4)
        state = zero_state(space, tau=0.01)
        ctx = StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC)
        theta_new, _ = heat_step(ctx, np.zeros(space.n_dofs), HeatParams(1.0, 1e-5), {})
        assert np.all(theta_new == 0.0)

    def test_l2_contraction_over_random_states(self, rng):
        # Implicit Euler with no absorbed energy is unconditionally
        # dissipative; check 100 random temperature states reusing one
        # factorization.
        space = small_space(8)
        tau = 0.05
        heat = HeatParams(0.7, 0.3)
        cache: dict = {}
        u_zero = np.zeros(space.n_dofs)
        for _ in range(100):
            state = zero_state(space, tau=tau)
            state.theta = [interior_vector(space, rng)]
            ctx = StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC)
            theta_new, _ = heat_step(ctx, u_zero, heat, cache)
            assert space.l2_norm(theta_new) <= space.l2_norm(state.theta[0]) * (1 + 1e-12)
        assert len(cache) == 1

    def test_matches_dense_oracle(self, rng):
        # Same system assembled through the public fem interface and solved
        # densely with numpy.
        space = small_space(4)
        tau = 0.02
        heat = HeatParams(0.9, 0.2)
        state = zero_state(space, tau=tau)
        state.u[0] = interior_vector(space, rng, scale=0.3)
        state.theta = [interior_vector(space, rng, scale=0.5)]
        u_new = interior_vector(space, rng, scale=0.3)
        x1 = space.values().points[..., 0]

        def g_load(t):
            return fem.assemble_load(space, (1.0 + x1) * (1.0 + t))

        ctx = StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC, lambda t: (None, g_load(t)))
        theta_new, _ = heat_step(ctx, u_new, heat, {})

        from thermofem import absorption_weights
        fev = space.values()
        theta_cell = fev.fe_values(state.theta[0])
        ut_new = (u_new - state.u[0]) / tau
        a1, a2 = absorption_weights(WESTERVELT, LIVER_QUADRATIC, theta_cell)
        q_cell = (a1 * fev.fe_values(u_new) ** 2 + a2 * fev.fe_values(ut_new) ** 2)
        load = fem.assemble_load(space, q_cell) + g_load(tau)
        mass = space.mass_matrix()
        rhs = mass @ state.theta[0] + tau * load
        h_dense = ((1.0 + tau * heat.nu) * mass.to_dense()
                   + tau * heat.kappa * space.stiffness_matrix().to_dense())
        ix = space.interior_dofs
        expected = np.linalg.solve(h_dense[np.ix_(ix, ix)], rhs[ix])
        np.testing.assert_allclose(theta_new[ix], expected, rtol=1e-10, atol=1e-14)

    def test_cache_keeps_the_current_weight_only(self):
        # A BDF2 run's second step evicts the Euler factor of its first.
        space = small_space(4)
        cache: dict = {}
        z = np.zeros(space.n_dofs)
        for levels in (2, 3):
            state = zero_state(space, tau=0.01, levels=levels)
            state.theta = [z] * (levels - 1)
            heat_step(StepContext(state, BDF2, WESTERVELT, LIVER_QUADRATIC), z,
                      HeatParams(1.0, 1e-5), cache)
        assert list(cache) == [BDF2.lead1]

    def test_factor_cache_reuse_is_exact(self, rng):
        space = small_space(4)
        state = zero_state(space, tau=0.01)
        state.theta = [interior_vector(space, rng)]
        u_zero = np.zeros(space.n_dofs)
        ctx = StepContext(state, EULER, WESTERVELT, LIVER_QUADRATIC)
        fresh, _ = heat_step(ctx, u_zero, HeatParams(1.0, 1e-5), {})
        cache: dict = {}
        first, _ = heat_step(ctx, u_zero, HeatParams(1.0, 1e-5), cache)
        again, _ = heat_step(ctx, u_zero, HeatParams(1.0, 1e-5), cache)
        np.testing.assert_array_equal(first, again)
        np.testing.assert_array_equal(first, fresh)

    def test_non_finite_heat_load_stops_at_its_step(self):
        space = small_space(4)
        bad = np.full(space.n_dofs, np.nan)
        with pytest.raises(FloatingPointError, match="heat solve at step 3") as exc:
            run_simulation(
                space, scheme=EULER, variant=WESTERVELT, model=LIVER_QUADRATIC,
                heat=HeatParams(1.0, 1e-5), tau=0.05, n_steps=5, u0=SINE_INITIAL,
                u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="nodal",
                sources=lambda t: (None, bad if t == 3 * 0.05 else None))
        assert exc.value.step_index == 3


class TestRunSimulation:
    @pytest.mark.parametrize("scheme_name", ["euler", "bdf2"])
    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_zero_data_stays_zero(self, scheme_name, variant):
        space = small_space(4)
        z = np.zeros(space.n_dofs)
        result = run_simulation(
            space, scheme=scheme_by_name(scheme_name), variant=variant,
            model=LIVER_QUADRATIC, heat=HeatParams(1.0, 1e-5), tau=0.1,
            n_steps=5, u0=z, u1=z, theta0=z)
        assert np.all(result.state.u[0] == 0.0)
        assert np.all(result.state.theta[0] == 0.0)
        assert np.all(result.max_u == 0.0)
        assert np.all(result.max_theta == 0.0)
        assert all(rep.iterations == 1 for rep in result.reports)

    @pytest.mark.parametrize("scheme_name", ["euler", "bdf2"])
    @pytest.mark.parametrize("variant", [WESTERVELT, KUZNETSOV], ids=["w", "k"])
    def test_step_loop_calls_no_einsum(self, scheme_name, variant, monkeypatch):
        # A fresh space, so its tables are built under the patch too.
        def einsum(*args, **kwargs):
            raise AssertionError("np.einsum called by a run")

        monkeypatch.setattr(np, "einsum", einsum)
        space = small_space(4)
        result = run_simulation(
            space, scheme=scheme_by_name(scheme_name), variant=variant,
            model=LIVER_QUADRATIC, heat=HeatParams(1.0, 1e-5), tau=0.02, n_steps=3,
            u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="ritz")
        assert len(result.reports) == 3
        assert all(rep.iterations > 1 for rep in result.reports)

    def test_bdf2_startup_uses_euler_once(self):
        space = small_space(4)
        result = run_simulation(
            space, scheme=BDF2, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
            heat=HeatParams(1.0, 0.0), tau=0.05, n_steps=3,
            u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=np.zeros(space.n_dofs),
            projection="nodal")
        assert [rep.scheme_tag for rep in result.reports] == ["euler", "bdf2", "bdf2"]

    def test_deterministic_repetition(self):
        space = small_space(6)

        def run():
            return run_simulation(
                space, scheme=BDF2, variant=WESTERVELT, model=LIVER_QUADRATIC,
                heat=HeatParams(1.0, 1e-5), tau=0.02, n_steps=4,
                u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=SINE_INITIAL,
                projection="ritz")

        first, second = run(), run()
        np.testing.assert_array_equal(first.state.u[0], second.state.u[0])
        np.testing.assert_array_equal(first.state.theta[0], second.state.theta[0])
        assert [r.iterations for r in first.reports] == [r.iterations for r in second.reports]
        assert [r.increments for r in first.reports] == [r.increments for r in second.reports]

    def test_ritz_projections_share_one_factorization(self, monkeypatch):
        space = small_space(6)
        tau = 0.05
        seen = {}

        def hook(idx, t, u, theta):
            seen.update(factorizations=len(calls), u=u.values, theta=theta.values)

        calls = count_factorizations(monkeypatch)
        result = run_simulation(
            space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
            heat=HeatParams(1.0, 0.0), tau=tau, n_steps=1, u0=SINE_INITIAL,
            u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="ritz",
            snapshot_indices=[0], on_snapshot=hook)
        assert seen["factorizations"] == 1
        u0 = fem.ritz_projection(space, SINE_INITIAL).values
        u1 = fem.ritz_projection(space, SINE_VELOCITY).values
        assert np.array_equal(seen["u"], u0)
        assert np.array_equal(seen["theta"], u0)
        assert np.array_equal(result.state.u[2], u0 - tau * u1)

    def test_sources_called_once_per_step_at_new_time(self):
        space = small_space(3)
        times = []

        def sources(t):
            times.append(t)
            return None, None

        tau = 0.125
        run_simulation(space, scheme=BDF2, variant=WESTERVELT, model=LIVER_QUADRATIC,
                       heat=HeatParams(1.0, 1e-5), tau=tau, n_steps=4, u0=SINE_INITIAL,
                       u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="nodal",
                       sources=sources)
        assert times == [(k + 1) * tau for k in range(4)]

    def test_absent_load_equals_zero_load(self, rng):
        space = small_space(4)
        f = interior_vector(space, rng, scale=50.0)
        g = interior_vector(space, rng, scale=0.5)
        zero = np.zeros(space.n_dofs)

        def run(wave, heat):
            return run_simulation(
                space, scheme=BDF2, variant=KUZNETSOV, model=LIVER_QUADRATIC,
                heat=HeatParams(1.0, 1e-5), tau=0.05, n_steps=3, u0=SINE_INITIAL,
                u1=SINE_VELOCITY, theta0=SINE_INITIAL, projection="nodal",
                sources=lambda t: (None if wave is None else (1.0 + t) * wave,
                                   None if heat is None else (1.0 - t) * heat)).state

        for absent, explicit in (((f, None), (f, zero)), ((None, g), (zero, g))):
            a, b = run(*absent), run(*explicit)
            assert np.array_equal(a.u[0], b.u[0])
            assert np.array_equal(a.theta[0], b.theta[0])
            assert np.any(a.u[0] != 0.0) and np.any(a.theta[0] != 0.0)

    def test_final_time_must_divide(self):
        # A run's length is a step count; step_count derives it from a
        # final time and rejects one that tau does not divide.
        with pytest.raises(ValueError, match="multiple"):
            step_count(1.0, 0.3)
        assert step_count(1.0, 0.25) == 4
        space = small_space(2)
        z = np.zeros(space.n_dofs)
        result = run_simulation(space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                                heat=HeatParams(1.0, 0.0), u0=z, u1=z, theta0=z, tau=0.25,
                                n_steps=step_count(1.0, 0.25))
        assert result.state.step == 4
        assert result.state.time == pytest.approx(1.0)

    def test_argument_validation(self):
        space = small_space(2)
        z = np.zeros(space.n_dofs)
        kwargs = dict(scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                      heat=HeatParams(1.0, 0.0), u0=z, u1=z, theta0=z)
        with pytest.raises(ValueError):
            run_simulation(space, tau=-0.1, n_steps=1, **kwargs)
        with pytest.raises(ValueError):
            run_simulation(space, tau=0.1, n_steps=1, snapshot_indices=[5], **kwargs)

    def test_initial_data_validation(self):
        space = small_space(2)
        z = np.zeros(space.n_dofs)
        kwargs = dict(scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                      heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=1)
        with pytest.raises(ValueError, match="length"):
            run_simulation(space, u0=np.zeros(3), u1=z, theta0=z, **kwargs)
        with pytest.raises(TypeError):
            run_simulation(space, u0="not a field", u1=z, theta0=z, **kwargs)
        with pytest.raises(ValueError, match="projection"):
            run_simulation(space, u0=SINE_INITIAL, u1=z, theta0=z,
                           projection="collocation", **kwargs)

    def test_gradient_less_field_fails_before_ritz_factorization(self, monkeypatch):
        space = small_space(4)
        calls = count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="theta0 has no gradient"):
            run_simulation(
                space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=2, u0=SINE_INITIAL,
                u1=SINE_VELOCITY, theta0=ScalarField(SINE_INITIAL.fn), projection="ritz")
        assert calls == []

    def test_bad_snapshot_index_fails_before_projection(self, monkeypatch):
        space = small_space(4)
        calls = count_factorizations(monkeypatch)
        # 1.5 used to become step 1 and True step 1.
        for indices in ([-1], [3], [1.5], [True]):
            with pytest.raises(ValueError, match="snapshot"):
                run_simulation(
                    space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                    heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=2, u0=SINE_INITIAL,
                    u1=SINE_VELOCITY, theta0=SINE_INITIAL, snapshot_indices=indices)
        assert calls == []

    # True used to run one step.
    @pytest.mark.parametrize("n_steps", [-3, 0, 2.5, True])
    def test_bad_step_count_fails_before_compute(self, n_steps, monkeypatch):
        space = small_space(4)
        calls = count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="n_steps"):
            run_simulation(
                space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=n_steps, u0=SINE_INITIAL,
                u1=SINE_VELOCITY, theta0=SINE_INITIAL)
        assert calls == []

    def test_unknown_projection_fails_before_compute(self, monkeypatch):
        # Vector data are never projected, so only an up-front check sees it.
        space = small_space(4)
        z = np.zeros(space.n_dofs)
        calls = count_factorizations(monkeypatch)
        with pytest.raises(ValueError, match="projection"):
            run_simulation(
                space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
                heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=2, u0=z, u1=z, theta0=z,
                projection="bogus")
        assert calls == []

    def test_snapshot_hook_receives_copies(self):
        space = small_space(4)
        seen = []

        def hook(idx, t, u, theta):
            seen.append((idx, t, u.values.copy(), theta.values.copy()))
            u.values[:] = np.nan  # must not corrupt the running state

        result = run_simulation(
            space, scheme=EULER, variant=LINEAR_WAVE, model=CONSTANT_MEDIUM,
            heat=HeatParams(1.0, 0.0), tau=0.1, n_steps=4,
            u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=np.zeros(space.n_dofs),
            projection="nodal", snapshot_indices=[0, 2, 4], on_snapshot=hook)
        assert [s[0] for s in seen] == [0, 2, 4]
        assert seen[1][1] == pytest.approx(0.2)
        assert np.all(np.isfinite(result.state.u[0]))

    def test_failing_step_is_identified(self):
        model = TissueModel(speed_coeffs=(1.0,), ambient=0.0, density=1.0,
                            b_over_2a=0.0)
        space = small_space(4)
        big = np.zeros(space.n_dofs)
        big[space.interior_dofs] = -5.0
        with pytest.raises(DegeneracyError) as exc:
            run_simulation(space, scheme=EULER, variant=WESTERVELT, model=model,
                           heat=HeatParams(1.0, 0.0), tau=0.01, n_steps=3,
                           u0=big, u1=np.zeros(space.n_dofs),
                           theta0=np.zeros(space.n_dofs))
        assert exc.value.step_index == 1

    def test_report_csv_roundtrip(self, tmp_path):
        space = small_space(4)
        result = run_simulation(
            space, scheme=BDF2, variant=WESTERVELT, model=LIVER_QUADRATIC,
            heat=HeatParams(1.0, 1e-5), tau=0.05, n_steps=3,
            u0=SINE_INITIAL, u1=SINE_VELOCITY, theta0=SINE_INITIAL)
        path = tmp_path / "steps.csv"
        write_step_reports(result.reports, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("step,scheme,iterations,increment,n1_min,wave_residual,"
                            "heat_residual,factorizations,contraction")
        assert len(lines) == 4
        rows = [line.split(",") for line in lines[1:]]
        first = rows[0]
        assert first[0] == "1"
        assert first[1] == "euler"
        assert float(first[3]) < 1e-10
        assert [int(row[-2]) for row in rows] == [rep.factorizations for rep in result.reports]
        for row, rep in zip(rows, result.reports):
            incs = rep.increments
            assert len(incs) > 1
            assert float(row[-1]) == incs[-1] / incs[-2]

    def test_report_csv_leaves_contraction_empty_after_one_iterate(self, tmp_path):
        report = stepping.StepReport(index=1, scheme_tag="euler", iterations=1, n1_min=1.0,
                                     increments=(0.0,), wave_solves=(1e-16,),
                                     heat_residual=0.0, factorizations=2)
        path = tmp_path / "steps.csv"
        write_step_reports([report], path)
        assert path.read_text().splitlines()[1] == "1,euler,1,0,1,9.9999999999999998e-17,0,2,"
