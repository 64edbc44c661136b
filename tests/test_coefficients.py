"""Coefficient laws: frozen arithmetic oracles and algebraic identities."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermofem import (
    KUZNETSOV,
    LINEAR_WAVE,
    LIVER_QUADRATIC,
    LIVER_QUINTIC,
    WESTERVELT,
    DegeneracyError,
    EquationVariant,
    HeatParams,
    TissueModel,
    absorption_weights,
    derived_heat_params,
    speed_of_sound,
    variant_by_name,
)
from thermofem import coefficients
from thermofem.coefficients import SpeedTable

# Speed of sound at zero fluctuation (absolute temperature 37 C), frozen
# from extended-precision decimal evaluation of the two polynomial laws.
QUADRATIC_SPEED_AT_REST = 1675.355539
QUINTIC_SPEED_AT_REST = 1596.505110284185

# Temperature range on which both shipped laws must stay positive.
SAFE_THETA = st.floats(min_value=-10.0, max_value=50.0)


class TestSpeedOfSound:
    def test_quadratic_at_rest(self):
        c = speed_of_sound(LIVER_QUADRATIC, 0.0)
        assert c == pytest.approx(1675.3555, abs=1e-3)
        assert c == pytest.approx(QUADRATIC_SPEED_AT_REST, rel=1e-12)

    def test_quintic_at_rest(self):
        c = speed_of_sound(LIVER_QUINTIC, 0.0)
        assert c == pytest.approx(QUINTIC_SPEED_AT_REST, rel=1e-12)

    def test_constant_law_is_flat(self):
        model = TissueModel(speed_coeffs=(1529.3,))
        assert speed_of_sound(model, -model.ambient) == pytest.approx(1529.3)
        assert speed_of_sound(model, 100.0) == pytest.approx(1529.3)

    def test_vectorized_evaluation(self):
        thetas = np.linspace(-5.0, 30.0, 17)
        c = speed_of_sound(LIVER_QUINTIC, thetas)
        assert c.shape == thetas.shape
        for i, t in enumerate(thetas):
            assert c[i] == pytest.approx(float(speed_of_sound(LIVER_QUINTIC, t)))

    @given(theta=SAFE_THETA)
    def test_horner_matches_power_sum(self, theta):
        s = theta + LIVER_QUINTIC.ambient
        naive = sum(ck * s**k for k, ck in enumerate(LIVER_QUINTIC.speed_coeffs))
        assert speed_of_sound(LIVER_QUINTIC, theta) == pytest.approx(naive, rel=1e-12)

    def test_nonpositive_speed_raises(self):
        with pytest.raises(DegeneracyError):
            speed_of_sound(TissueModel(speed_coeffs=(-1.0,)), 0.0)

    def test_degeneracy_at_extreme_temperature(self):
        # c = 10 - s turns negative past s = 10.
        model = TissueModel(speed_coeffs=(10.0, -1.0), ambient=0.0)
        assert speed_of_sound(model, 5.0) == pytest.approx(5.0)
        with pytest.raises(DegeneracyError):
            speed_of_sound(model, 20.0)

    def test_degeneracy_detected_inside_array(self):
        model = TissueModel(speed_coeffs=(10.0, -1.0), ambient=0.0)
        with pytest.raises(DegeneracyError):
            speed_of_sound(model, np.array([1.0, 5.0, 20.0]))


class TestQAndBeta:
    def test_q_is_squared_speed(self):
        q = SpeedTable(LIVER_QUADRATIC, 0.0).q()
        assert q == pytest.approx(QUADRATIC_SPEED_AT_REST**2, rel=1e-12)

    def test_beta_at_rest(self):
        # 2 * alpha * c^3 / omega^2 with alpha = 4.5e-6 and omega = 2*pi.
        expected = 2.0 * 4.5e-6 * QUADRATIC_SPEED_AT_REST**3 / (2.0 * math.pi) ** 2
        assert SpeedTable(LIVER_QUADRATIC, 0.0).beta() == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1072.0220795632843, rel=1e-12)

    def test_beta_scales_inversely_with_frequency(self):
        base = TissueModel(speed_coeffs=LIVER_QUADRATIC.speed_coeffs, frequency=1.0)
        for freq in (10.0, 250.0, 1.0e5):
            scaled = TissueModel(speed_coeffs=base.speed_coeffs, frequency=freq)
            assert SpeedTable(scaled, 3.0).beta() == pytest.approx(
                SpeedTable(base, 3.0).beta() / freq, rel=1e-12
            )

    def test_q_continuity(self):
        thetas = np.linspace(-5.0, 30.0, 401)
        jump = np.abs(SpeedTable(LIVER_QUINTIC, thetas + 1e-9).q()
                      - SpeedTable(LIVER_QUINTIC, thetas).q())
        assert np.max(jump) <= 1e-3

    @pytest.mark.parametrize("model", [LIVER_QUADRATIC, LIVER_QUINTIC], ids=["quadratic", "quintic"])
    def test_positive_on_physical_range(self, model):
        thetas = np.linspace(-10.0, 50.0, 2001)
        speed = SpeedTable(model, thetas)
        assert np.all(speed.q() > 0.0)
        assert np.all(speed.beta() > 0.0)

    # Step size balances truncation against cancellation: q ~ 2.4e6 makes
    # h = 1e-6 differences lose seven digits to rounding.
    @pytest.mark.parametrize("theta", [-5.0, 0.0, 10.0, 25.0])
    def test_q_derivative_matches_finite_difference(self, theta):
        _, dq = SpeedTable(LIVER_QUINTIC, theta, slope=True).q(derivative=True)
        h = 1e-4
        fd = (SpeedTable(LIVER_QUINTIC, theta + h).q()
              - SpeedTable(LIVER_QUINTIC, theta - h).q()) / (2 * h)
        assert dq == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("theta", [-5.0, 0.0, 10.0, 25.0])
    def test_beta_derivative_matches_finite_difference(self, theta):
        _, db = SpeedTable(LIVER_QUINTIC, theta, slope=True).beta(derivative=True)
        h = 1e-4
        fd = (SpeedTable(LIVER_QUINTIC, theta + h).beta()
              - SpeedTable(LIVER_QUINTIC, theta - h).beta()) / (2 * h)
        assert db == pytest.approx(fd, rel=1e-6)

    def test_derivative_of_constant_law_is_zero(self):
        model = TissueModel(speed_coeffs=(1529.3,))
        _, dq = SpeedTable(model, 5.0, slope=True).q(derivative=True)
        assert dq == 0.0


class TestKCoefficients:
    def test_values_at_rest(self):
        k_w, k_k = SpeedTable(LIVER_QUADRATIC, 0.0).k()
        q0 = QUADRATIC_SPEED_AT_REST**2
        assert k_w == pytest.approx(6.0 / (1050.0 * q0), rel=1e-12)
        assert k_k == pytest.approx(5.0 / q0, rel=1e-12)

    def test_linear_medium_limit(self):
        model = TissueModel(speed_coeffs=(1500.0,), b_over_2a=0.0)
        k_w, k_k = SpeedTable(model, 0.0).k()
        assert k_w == pytest.approx(1.0 / (1050.0 * 1500.0**2), rel=1e-12)
        assert k_k == 0.0

    @given(theta=SAFE_THETA)
    def test_kk_times_q_is_nonlinearity_ratio(self, theta):
        speed = SpeedTable(LIVER_QUINTIC, theta)
        _, k_k = speed.k()
        q = speed.q()
        assert k_k * q == pytest.approx(LIVER_QUINTIC.b_over_2a, rel=1e-12)


class TestModuleLevelLaws:
    def test_equal_to_speed_table_methods(self):
        # Each builds one SpeedTable per call; the benchmark's coefficient
        # span wraps them.
        theta = np.linspace(-5.0, 30.0, 11)
        speed = SpeedTable(LIVER_QUINTIC, theta, slope=True)
        pairs = [
            (coefficients.q_of_theta(LIVER_QUINTIC, theta, derivative=True), speed.q(True)),
            (coefficients.beta_of_theta(LIVER_QUINTIC, theta, derivative=True), speed.beta(True)),
            (coefficients.k_coefficients(LIVER_QUINTIC, theta), speed.k()),
            (absorption_weights(WESTERVELT, LIVER_QUINTIC, theta),
             speed.absorption_weights(WESTERVELT)),
        ]
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)


class TestVariants:
    def test_registry(self):
        assert variant_by_name("westervelt") is WESTERVELT
        assert variant_by_name("kuznetsov") is KUZNETSOV
        assert variant_by_name("linear") is LINEAR_WAVE

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="burgers"):
            variant_by_name("burgers")

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            EquationVariant("burgers")

    def test_gradient_coupling_switch(self):
        assert LINEAR_WAVE.linear
        assert not WESTERVELT.linear and not KUZNETSOV.linear


class TestAbsorbedEnergy:
    def test_zero_fields_give_zero(self):
        for variant in (WESTERVELT, KUZNETSOV):
            assert SpeedTable(LIVER_QUADRATIC, 0.0).absorbed_energy(variant, 0.0, 0.0) == 0.0

    def test_kuznetsov_unit_pressure(self):
        got = SpeedTable(LIVER_QUADRATIC, 0.0).absorbed_energy(KUZNETSOV, 1.0, 123.0)
        expected = 1050.0 * 4.5e-6 / QUADRATIC_SPEED_AT_REST
        assert got == pytest.approx(expected, rel=1e-12)

    def test_kuznetsov_ignores_velocity(self):
        _, a2 = absorption_weights(KUZNETSOV, LIVER_QUINTIC, 0.0)
        assert np.all(a2 == 0.0)

    @pytest.mark.parametrize("theta", [0.0, 7.5, 20.0])
    def test_westervelt_weights(self, theta):
        a1, a2 = absorption_weights(WESTERVELT, LIVER_QUADRATIC, theta)
        c = speed_of_sound(LIVER_QUADRATIC, theta)
        q = c * c
        beta = SpeedTable(LIVER_QUADRATIC, theta).beta()
        rho = LIVER_QUADRATIC.density
        assert a1 == pytest.approx(LIVER_QUADRATIC.absorption / c / (2 * rho), rel=1e-12)
        assert a2 == pytest.approx(2 * beta / (q * q) / (2 * rho), rel=1e-12)

    def test_westervelt_u2_weight_vs_kuznetsov(self):
        # The pressure-squared weights differ by exactly 1 / (2 rho^2).
        rho = LIVER_QUADRATIC.density
        w1, _ = absorption_weights(WESTERVELT, LIVER_QUADRATIC, 4.0)
        k1, _ = absorption_weights(KUZNETSOV, LIVER_QUADRATIC, 4.0)
        assert w1 == pytest.approx(k1 / (2 * rho * rho), rel=1e-12)

    def test_quadratic_form(self, rng):
        u = rng.normal(size=64)
        u_t = rng.normal(size=64)
        theta = rng.uniform(-5.0, 30.0, size=64)
        a1, a2 = absorption_weights(WESTERVELT, LIVER_QUINTIC, theta)
        got = SpeedTable(LIVER_QUINTIC, theta).absorbed_energy(WESTERVELT, u, u_t)
        np.testing.assert_allclose(got, a1 * u * u + a2 * u_t * u_t, rtol=1e-13)


class TestHeatParams:
    def test_derived_defaults(self):
        params = derived_heat_params()
        assert params.kappa == pytest.approx(0.512 / 3780000.0, rel=1e-15)
        assert params.nu == pytest.approx(1030.0 * 3620.0 / 3780000.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            HeatParams(kappa=0.0, nu=0.0)
        with pytest.raises(ValueError):
            HeatParams(kappa=1.0, nu=-1e-3)
        with pytest.raises(ValueError):
            derived_heat_params(heat_capacity=0.0)

    def test_verification_overrides_construct(self):
        params = HeatParams(kappa=1.0, nu=1e-5)
        assert params.kappa == 1.0
        assert params.nu == 1e-5


class TestTissueModelValidation:
    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValueError):
            TissueModel(speed_coeffs=())

    def test_nonpositive_density_rejected(self):
        with pytest.raises(ValueError):
            TissueModel(speed_coeffs=(1500.0,), density=0.0)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            TissueModel(speed_coeffs=(1500.0,), frequency=-1.0)

    def test_absorption_and_omega(self):
        assert LIVER_QUINTIC.absorption == pytest.approx(0.45, rel=1e-15)
        assert LIVER_QUINTIC.omega == pytest.approx(2.0 * math.pi * 1.0e5, rel=1e-15)
        assert LIVER_QUADRATIC.absorption == pytest.approx(4.5e-6, rel=1e-15)
