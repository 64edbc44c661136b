"""Tissue-dependent coefficient laws for the coupled wave/heat system.

The speed of sound c is a polynomial in the absolute temperature
(fluctuation theta plus ambient level), evaluated by Horner's rule.  From
it derive the squared speed q = c^2, the damping coefficient
beta = 2 * alpha * c^3 / omega^2 with absorption alpha = 4.5e-6 * f and
angular frequency omega = 2*pi*f, and the nonlinearity coefficients of the
two model variants: k_W = (1 + B/2A) / (rho * q) for the pressure-form
equation (Westervelt) and k_K = (B/2A) / q for the velocity-potential form
(Kuznetsov).  A SpeedTable holds c and c' on one temperature table, so
the laws needed on the same table share one polynomial evaluation.

The heat equation theta_t - kappa * lap(theta) + nu * theta = Q is driven
by the absorbed acoustic energy Q, a variant-dependent quadratic form
alpha1(theta) * u^2 + alpha2(theta) * u_t^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegeneracyError",
    "TissueModel",
    "EquationVariant",
    "WESTERVELT",
    "KUZNETSOV",
    "LINEAR_WAVE",
    "variant_by_name",
    "HeatParams",
    "LIVER_QUADRATIC",
    "LIVER_QUINTIC",
    "speed_of_sound",
    "SpeedTable",
    "q_of_theta",
    "beta_of_theta",
    "k_coefficients",
    "absorption_weights",
    "derived_heat_params",
]

ABSORPTION_PER_HZ = 4.5e-6  # Np/m per hertz of source frequency


class DegeneracyError(ValueError):
    """A coefficient left its admissible range (e.g. nonpositive speed)."""


@dataclass(frozen=True)
class TissueModel:
    """Medium description.

    speed_coeffs are polynomial coefficients of c in the absolute
    temperature, ascending order; ambient is the resting temperature in
    degrees Celsius; density in kg/m^3; b_over_2a the nonlinearity ratio
    B/2A; frequency the source frequency in Hz.
    """

    speed_coeffs: tuple
    ambient: float = 37.0
    density: float = 1050.0
    b_over_2a: float = 5.0
    frequency: float = 1.0

    def __post_init__(self):
        if len(self.speed_coeffs) == 0:
            raise ValueError("speed polynomial needs at least one coefficient")
        # Written as "not > 0" so that NaN fails too.
        if not self.density > 0:
            raise ValueError("density must be positive")
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")

    @property
    def absorption(self) -> float:
        return ABSORPTION_PER_HZ * self.frequency

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency


def _horner(coeffs, s):
    acc = np.zeros_like(s) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * s + c
    return acc


def _horner_derivative(coeffs, s):
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    if not dcoeffs:
        return np.zeros_like(s)
    return _horner(dcoeffs, s)


def speed_of_sound(model: TissueModel, theta) -> np.ndarray:
    """c(theta), polynomial in the absolute temperature theta + ambient."""
    theta = np.asarray(theta, dtype=np.float64)
    c = _horner(model.speed_coeffs, theta + model.ambient)
    if np.any(c <= 0.0):
        worst = float(np.min(c))
        raise DegeneracyError(f"speed of sound became nonpositive (min {worst:.3e})")
    return c


def _dspeed(model: TissueModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    return _horner_derivative(model.speed_coeffs, theta + model.ambient)


class SpeedTable:
    """The sound speed c, its square q = c^2 and the slope c' on one
    temperature table; c' is evaluated once, on the first derivative
    request.

    Every law below is a function of c, q and c', so a caller that needs
    several of them on the same table evaluates the polynomial and the
    square once here.  The module-level functions of theta build a table
    per call; the benchmark's coefficient-table span wraps them.
    """

    __slots__ = ("model", "_theta", "c", "c2", "_dc")

    def __init__(self, model: TissueModel, theta):
        self.model = model
        self._theta = theta
        self.c = speed_of_sound(model, theta)
        self.c2 = self.c * self.c
        self._dc = None

    @property
    def dc(self) -> np.ndarray:
        """The slope c'(theta)."""
        if self._dc is None:
            self._dc = _dspeed(self.model, self._theta)
            self._theta = None  # theta serves only to make the slope
        return self._dc

    def q(self, derivative: bool = False):
        """Squared speed q = c^2, the table's own array (not to be modified
        in place); optionally also dq/dtheta = 2 c c'."""
        if not derivative:
            return self.c2
        return self.c2, 2.0 * self.c * self.dc

    def beta(self, derivative: bool = False):
        """Damping beta = 2 * alpha * c^3 / omega^2; optionally d(beta)/dtheta."""
        scale = 2.0 * self.model.absorption / (self.model.omega * self.model.omega)
        b = scale * self.c2 * self.c
        if not derivative:
            return b
        return b, 3.0 * scale * self.c2 * self.dc

    def k(self) -> tuple[np.ndarray, np.ndarray]:
        """Nonlinearity coefficients (k_W, k_K)."""
        k_w = (1.0 + self.model.b_over_2a) / (self.model.density * self.c2)
        k_k = self.model.b_over_2a / self.c2
        return k_w, k_k

    def absorption_weights(self, variant: EquationVariant):
        """Coefficients (a1, a2) of the absorbed energy Q = a1 u^2 + a2 u_t^2."""
        c = self.c
        model = self.model
        if variant.tag == "westervelt":
            a1 = model.absorption / c / (2.0 * model.density)
            a2 = 2.0 * self.beta() / (self.c2 * self.c2) / (2.0 * model.density)
            return a1, a2
        a1 = model.density * model.absorption / c
        return a1, np.zeros_like(c)

    def absorbed_energy(self, variant: EquationVariant, u, u_t):
        """Absorbed acoustic energy Q(u, u_t, theta) driving the heat equation."""
        u = np.asarray(u, dtype=np.float64)
        u_t = np.asarray(u_t, dtype=np.float64)
        a1, a2 = self.absorption_weights(variant)
        return a1 * u * u + a2 * u_t * u_t


def q_of_theta(model: TissueModel, theta, derivative: bool = False):
    """Squared speed q = c^2; optionally also dq/dtheta = 2 c c'."""
    return SpeedTable(model, theta).q(derivative)


def beta_of_theta(model: TissueModel, theta, derivative: bool = False):
    """Damping beta = 2 * alpha * c^3 / omega^2; optionally d(beta)/dtheta."""
    return SpeedTable(model, theta).beta(derivative)


def k_coefficients(model: TissueModel, theta) -> tuple[np.ndarray, np.ndarray]:
    """Nonlinearity coefficients (k_W, k_K) at the given temperature."""
    return SpeedTable(model, theta).k()


@dataclass(frozen=True)
class EquationVariant:
    """Selects the wave model: which nonlinearity is active (the Kuznetsov
    one carries the gradient coupling term (|grad u|^2)_t), whether the
    linear regime switches it off, and the shape of the absorbed energy Q."""

    tag: str
    linear: bool = False

    def __post_init__(self):
        if self.tag not in ("westervelt", "kuznetsov"):
            raise ValueError(f"unknown variant tag {self.tag!r}")


WESTERVELT = EquationVariant("westervelt")
KUZNETSOV = EquationVariant("kuznetsov")
# Linear regime: both nonlinearity coefficients and the gradient coupling
# are switched off; the absorbed energy keeps its variant form.
LINEAR_WAVE = EquationVariant("westervelt", linear=True)

_VARIANTS = {"westervelt": WESTERVELT, "kuznetsov": KUZNETSOV, "linear": LINEAR_WAVE}


def variant_by_name(name: str) -> EquationVariant:
    try:
        return _VARIANTS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name such as a list
        raise ValueError(f"unknown equation variant {name!r} "
                         f"(expected one of {sorted(_VARIANTS)})") from None


def absorption_weights(variant: EquationVariant, model: TissueModel, theta):
    """Coefficients (a1, a2) of the absorbed energy Q = a1 u^2 + a2 u_t^2."""
    return SpeedTable(model, theta).absorption_weights(variant)


@dataclass(frozen=True)
class HeatParams:
    """Normalized heat-equation parameters: diffusivity and perfusion."""

    kappa: float
    nu: float

    def __post_init__(self):
        if not self.kappa > 0:  # NaN fails too
            raise ValueError("kappa must be positive")
        if not self.nu >= 0:
            raise ValueError("nu must be nonnegative")


def derived_heat_params(conductivity: float = 0.512, density: float = 1050.0,
                        heat_capacity: float = 3600.0, blood_density: float = 1030.0,
                        blood_heat_capacity: float = 3620.0) -> HeatParams:
    """Heat parameters from tissue and blood constants:
    kappa = k_a / (rho_a C_a), nu = rho_b C_b / (rho_a C_a)."""
    volumetric = density * heat_capacity
    if volumetric <= 0:
        raise ValueError("density and heat capacity must be positive")
    return HeatParams(kappa=conductivity / volumetric,
                      nu=blood_density * blood_heat_capacity / volumetric)


# Quadratic speed law used by the verification harness (frequency 1 Hz).
LIVER_QUADRATIC = TissueModel(
    speed_coeffs=(1529.3, 1.6856, 6.1131e-2),
    ambient=37.0,
    density=1050.0,
    b_over_2a=5.0,
    frequency=1.0,
)

# Quintic speed law used by the physical scenarios (frequency 100 kHz).
LIVER_QUINTIC = TissueModel(
    speed_coeffs=(1529.3, 1.6856, 6.1131e-2, -2.2967e-3, 2.2657e-5, -7.1795e-8),
    ambient=37.0,
    density=1050.0,
    b_over_2a=5.0,
    frequency=1.0e5,
)
