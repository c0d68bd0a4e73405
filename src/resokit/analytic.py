"""Closed-form modal models.

Clamped-clamped flexural beam:

    f_n = A_n * sqrt(E/rho) * d / L^2,   A_n = lambda_n^2 / (2*pi*sqrt(12))

with lambda_n the n-th root of cos(l)*cosh(l) = 1 and d the cross-section
dimension along the vibration axis. The d/L^2 form is the dimensionally
consistent Euler-Bernoulli result for a rectangular section.

In-plane (wine-glass family) disk modes: lowest root of the traction-free
circular-disk characteristic equation for angular order n, a 2x2 Bessel
determinant in x = w*R/c_L and y = w*R/c_T with plane-stress wave speeds

    c_L = sqrt(E / (rho*(1-nu^2))),  c_T = sqrt(E / (2*rho*(1+nu))).

Boundary matrix (sigma_rr = 0, sigma_rt = 0 at r = R, derived from the
Helmholtz potential formulation; row scalings irrelevant for the root):

    M11 = (1-nu)*(n^2*Jn(x) - x*Jn'(x)) - x^2*Jn(x)
    M12 = n*(1-nu)*(y*Jn'(y) - Jn(y))
    M21 = 2*n*(Jn(x) - x*Jn'(x))
    M22 = (y^2 - 2*n^2)*Jn(y) + 2*y*Jn'(y)

For n = 0 this reduces to the classical radial-mode equation
x*J0(x)/J1(x) = 1 - nu, which was used as a correctness anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import jv, jvp

from .core import (BeamGeometry, DiskGeometry, Material, ModeResult,
                   VibrationAxis)
from .errors import InvariantError, RootSearchError, SingularDrivePointError

# quadrature order for mode-shape integrals (smooth integrands, machine accurate)
_GAUSS_ORDER = 200


@dataclass(frozen=True)
class BeamModeCoefficient:
    """Eigenvalue data for one clamped-clamped flexural harmonic."""

    mode_order: int
    lambda_n: float
    a_n: float

    def __post_init__(self):
        if self.mode_order < 1:
            raise InvariantError("mode_order must be >= 1")
        # residual of cos(l)*cosh(l) = 1, evaluated in the well-scaled form
        resid = math.cos(self.lambda_n) - 1.0 / math.cosh(self.lambda_n)
        if abs(resid) > 1e-9:
            raise InvariantError(
                f"lambda_n={self.lambda_n!r} does not solve cos(l)*cosh(l)=1")
        a_expected = self.lambda_n**2 / (2 * math.pi * math.sqrt(12.0))
        if abs(self.a_n - a_expected) > 1e-9 * a_expected:
            raise InvariantError("a_n must equal lambda_n^2/(2*pi*sqrt(12))")


@lru_cache(maxsize=None)
def beam_mode_coefficient(n: int) -> BeamModeCoefficient:
    """Clamped-clamped eigenvalue lambda_n and frequency coefficient A_n."""
    if n < 1:
        raise InvariantError(f"mode order must be >= 1, got {n}")
    # roots of cos(l) = sech(l); the k-th root lies near (k + 1/2)*pi
    lo, hi = (n + 0.3) * math.pi, (n + 0.7) * math.pi
    f = lambda l: math.cos(l) - 1.0 / math.cosh(l)
    lam = brentq(f, lo, hi, rtol=8 * np.finfo(float).eps)
    return BeamModeCoefficient(n, lam, lam**2 / (2 * math.pi * math.sqrt(12.0)))


def beam_mode_frequency(geom: BeamGeometry, mat: Material, n: int = 1) -> float:
    """Flexural resonance frequency (Hz) of mode n."""
    c = beam_mode_coefficient(n)
    return c.a_n * math.sqrt(mat.youngs_modulus / mat.density) \
        * geom.flexural_dimension / geom.length**2


def beam_length_for_frequency(f: float, flexural_dim: float, mat: Material) -> float:
    """Length (m) whose fundamental flexural mode resonates at f (Hz),
    beam_mode_frequency solved for L."""
    c = beam_mode_coefficient(1)
    return math.sqrt(c.a_n * math.sqrt(mat.youngs_modulus / mat.density)
                     * flexural_dim / f)


def beam_lumped_arrays(length, width, thickness, vibration_axis: VibrationAxis,
                       mat: Material):
    """Arrays (f, m_eff, k_eff) of the fundamental mode driven at mid-span,
    over arrays of beam dimensions: beam_mode_result's lumped fields
    elementwise. The operation order and the `**` (libm pow, as
    np.float_power) are the scalar functions', so every element is bitwise
    equal to theirs."""
    flex = width if vibration_axis is VibrationAxis.IN_PLANE else thickness
    f = beam_mode_coefficient(1).a_n * math.sqrt(mat.youngs_modulus / mat.density) \
        * flex / np.float_power(length, 2)
    m_eff = mat.density * (width * thickness) * length * _beam_shape_integral(1, 0.5)
    w0 = 2 * math.pi * f
    return f, m_eff, w0 * w0 * m_eff


def beam_mode_shape(n: int, xi):
    """Clamped-clamped mode shape at normalized coordinate(s) xi in [0, 1].

    Standard normalization (unit generalized coordinate), not unit maximum.
    """
    lam = beam_mode_coefficient(n).lambda_n
    xi = np.asarray(xi, dtype=float)
    s = (math.cosh(lam) - math.cos(lam)) / (math.sinh(lam) - math.sin(lam))
    return (np.cosh(lam * xi) - np.cos(lam * xi)
            - s * (np.sinh(lam * xi) - np.sin(lam * xi)))


def _gauss_nodes(a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    return 0.5 * (b - a) * x + 0.5 * (b + a), 0.5 * (b - a) * w


@lru_cache(maxsize=None)
def _beam_shape_integral(n: int, drive_point: float) -> float:
    """int(phi_n^2) / phi_n(drive_point)^2 over the unit span (cached)."""
    if not 0.0 < drive_point < 1.0:
        raise InvariantError(f"drive_point must be in (0, 1), got {drive_point}")
    phi_d = float(beam_mode_shape(n, drive_point))
    xi, w = _gauss_nodes(0.0, 1.0)
    phi = beam_mode_shape(n, xi)
    peak = float(np.max(np.abs(phi)))
    if abs(phi_d) < 1e-6 * peak:
        raise SingularDrivePointError(
            f"drive_point {drive_point} is a node of mode {n}")
    return float(np.sum(w * phi**2)) / phi_d**2


def beam_effective_params(geom: BeamGeometry, mat: Material, n: int = 1,
                          drive_point: float = 0.5):
    """Effective (mass, stiffness) of mode n referred to the drive point.

    m_eff = rho*A*L * int(phi^2) / phi(drive_point)^2, k_eff = w_n^2 * m_eff.
    """
    m_total = mat.density * geom.cross_section_area * geom.length
    m_eff = m_total * _beam_shape_integral(n, drive_point)
    w0 = 2 * math.pi * beam_mode_frequency(geom, mat, n)
    return m_eff, w0 * w0 * m_eff


def beam_mode_result(geom: BeamGeometry, mat: Material, n: int = 1,
                     drive_point: float = 0.5, samples: int = 201) -> ModeResult:
    """Bundle frequency, effective parameters and a shape sampled at
    `samples` points (none when samples = 0)."""
    f = beam_mode_frequency(geom, mat, n)
    m_eff, k_eff = beam_effective_params(geom, mat, n, drive_point)
    shape = ()
    if samples:
        phi = beam_mode_shape(n, np.linspace(0.0, 1.0, samples))
        shape = tuple(phi / np.max(np.abs(phi)))
    return ModeResult(frequency=f, mode_order=n, effective_mass=m_eff,
                      effective_stiffness=k_eff, mode_shape=shape)


# ---------------------------------------------------------------------------
# in-plane disk modes

def plane_stress_wave_speeds(mat: Material):
    """(c_L, c_T) for plane-stress in-plane vibration."""
    c_l = math.sqrt(mat.youngs_modulus / (mat.density * (1 - mat.poisson_ratio**2)))
    c_t = math.sqrt(mat.youngs_modulus / (2 * mat.density * (1 + mat.poisson_ratio)))
    return c_l, c_t


def disk_boundary_matrix(n: int, nu: float, x, y) -> np.ndarray:
    """Traction-free boundary matrix for angular order n (see module docs).

    x and y may be arrays of one shape S; the result then has shape (2, 2, *S).
    """
    m11 = (1 - nu) * (n * n * jv(n, x) - x * jvp(n, x)) - x * x * jv(n, x)
    m12 = n * (1 - nu) * (y * jvp(n, y) - jv(n, y))
    m21 = 2 * n * (jv(n, x) - x * jvp(n, x))
    m22 = (y * y - 2 * n * n) * jv(n, y) + 2 * y * jvp(n, y)
    return np.array([[m11, m12], [m21, m22]])


@lru_cache(maxsize=None)
def _disk_dimensionless_root(n: int, nu: float) -> float:
    """Lowest root y = w*R/c_T of the order-n characteristic equation.

    Dimensionless, so the result is geometry-independent; frequencies scale
    exactly as 1/R and are thickness-independent.
    """
    if n < 2:
        raise InvariantError(f"angular order must be >= 2, got {n}")
    # wave-speed ratio depends only on nu: c_T/c_L = sqrt((1-nu)/2)
    ct_over_cl = math.sqrt((1 - nu) / 2.0)

    def det(y):
        """Boundary-matrix determinant at y (a float or an array)."""
        m = disk_boundary_matrix(n, nu, y * ct_over_cl, y)
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    # Rayleigh-quotient upper bound from the polynomial trial field
    # u_r = (r/R)^(n-1) cos(n t), u_t = -(r/R)^(n-1) sin(n t):
    # w_RQ = 2*sqrt(n*(n-1)) * c_T / R, i.e. y_RQ = 2*sqrt(n*(n-1)).
    y_rq = 2.0 * math.sqrt(n * (n - 1))
    lo, hi = 0.1 * y_rq, 10.0 * y_rq
    ys = np.linspace(lo, hi, 4001)
    vals = det(ys)
    # first sample that is a root or opens a sign change
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    if hits.size:
        i = hits[0]
        if vals[i] == 0.0:
            return float(ys[i])
        return brentq(det, ys[i], ys[i + 1], rtol=1e-12)
    raise RootSearchError(
        f"no characteristic root for angular order {n} in window "
        f"[{lo:.3g}, {hi:.3g}] around the Rayleigh-quotient guess {y_rq:.3g}")


def disk_wineglass_frequency(geom: DiskGeometry, mat: Material, n: int = 2) -> float:
    """Lowest in-plane resonance (Hz) of angular order n (n=2: wine-glass)."""
    _, c_t = plane_stress_wave_speeds(mat)
    y = _disk_dimensionless_root(n, mat.poisson_ratio)
    return y * c_t / (2 * math.pi * geom.radius)


def disk_radius_for_frequency(f: float, mat: Material) -> float:
    """Radius (m) whose wine-glass (n = 2) mode resonates at f (Hz),
    disk_wineglass_frequency solved for R."""
    _, c_t = plane_stress_wave_speeds(mat)
    y = _disk_dimensionless_root(2, mat.poisson_ratio)
    return y * c_t / (2 * math.pi * f)


def _disk_unit_fields(n: int, nu: float):
    """Dimensionless radial profiles (u_r, u_t) on the unit disk.

    Angular dependence is cos(n t) for u_r and sin(n t) for u_t; radial
    coordinate rho = r/R in (0, 1].
    """
    y = _disk_dimensionless_root(n, nu)
    x = y * math.sqrt((1 - nu) / 2.0)
    m = disk_boundary_matrix(n, nu, x, y)
    # null vector of the (numerically) singular boundary matrix
    if abs(m[0, 0]) + abs(m[0, 1]) >= abs(m[1, 0]) + abs(m[1, 1]):
        a, b = -m[0, 1], m[0, 0]
    else:
        a, b = -m[1, 1], m[1, 0]

    def u_r(rho):
        rho = np.asarray(rho, dtype=float)
        return a * x * jvp(n, x * rho) + b * n * jv(n, y * rho) / rho

    def u_t(rho):
        rho = np.asarray(rho, dtype=float)
        return -a * n * jv(n, x * rho) / rho - b * y * jvp(n, y * rho)

    return u_r, u_t


@lru_cache(maxsize=None)
def _disk_meff_coefficient(n: int, nu: float) -> float:
    """m_eff / (rho * t * R^2), rim-radial-antinode normalization (cached)."""
    u_r, u_t = _disk_unit_fields(n, nu)
    rho, wts = _gauss_nodes(0.0, 1.0)
    integral = float(np.sum(wts * (u_r(rho)**2 + u_t(rho)**2) * rho))
    rim = float(u_r(1.0))
    return math.pi * integral / rim**2


def disk_effective_params(geom: DiskGeometry, mat: Material, n: int = 2):
    """Effective (mass, stiffness) referred to the rim radial antinode.

    m_eff = rho*t*pi * int((u_r^2 + u_t^2) r dr) / u_r(R)^2 by Gauss-Legendre
    quadrature of the analytic mode fields; k_eff = w^2 * m_eff.
    """
    m_eff = _disk_meff_coefficient(n, mat.poisson_ratio) \
        * mat.density * geom.thickness * geom.radius**2
    w0 = 2 * math.pi * disk_wineglass_frequency(geom, mat, n)
    return m_eff, w0 * w0 * m_eff


def disk_lumped_arrays(radius, thickness, mat: Material):
    """Arrays (f, m_eff, k_eff) of the wine-glass (n = 2) mode over arrays of
    disk dimensions: disk_mode_result's lumped fields elementwise, bitwise
    equal to them (same operation order, `**` as np.float_power)."""
    _, c_t = plane_stress_wave_speeds(mat)
    f = _disk_dimensionless_root(2, mat.poisson_ratio) * c_t / (2 * math.pi * radius)
    m_eff = _disk_meff_coefficient(2, mat.poisson_ratio) \
        * mat.density * thickness * np.float_power(radius, 2)
    w0 = 2 * math.pi * f
    return f, m_eff, w0 * w0 * m_eff


def disk_mode_result(geom: DiskGeometry, mat: Material, n: int = 2,
                     samples: int = 201) -> ModeResult:
    """ModeResult for the order-n disk mode.

    mode_shape samples the radial displacement profile u_r(r) at the
    angular antinode at `samples` radii (none when samples = 0), normalized
    to unit maximum.
    """
    f = disk_wineglass_frequency(geom, mat, n)
    m_eff, k_eff = disk_effective_params(geom, mat, n)
    shape = ()
    if samples:
        u_r, _ = _disk_unit_fields(n, mat.poisson_ratio)
        prof = u_r(np.linspace(1.0 / samples, 1.0, samples))
        shape = tuple(prof / np.max(np.abs(prof)))
    return ModeResult(frequency=f, mode_order=n, effective_mass=m_eff,
                      effective_stiffness=k_eff, mode_shape=shape)
