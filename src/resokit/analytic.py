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
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .core import BeamGeometry, DiskGeometry, Material, ModeResult, _derived
from .errors import InvariantError, RootSearchError, SingularDrivePointError

# quadrature order for mode-shape integrals (smooth integrands, machine accurate)
_GAUSS_ORDER = 200


class BeamModeCoefficient(NamedTuple):
    """Eigenvalue data for one clamped-clamped flexural harmonic."""

    mode_order: int
    lambda_n: float
    a_n: float


def _brentq(f, a: float, b: float, rtol: float) -> float:
    """Root of f in [a, b] by Brent's method (Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4).

    A statement-for-statement port of scipy.optimize.brentq (its
    Zeros/brentq.c) with xtol = 2e-12 and at most 100 iterations, so the
    root is bitwise the one brentq returns. Raises RootSearchError when
    f(a) and f(b) have the same sign, f is NaN, or the iteration does not
    converge.
    """
    xtol = 2e-12

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise RootSearchError(f"function value at x={x!r} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise RootSearchError(
            f"no sign change over [{a!r}, {b!r}]: f = {fpre!r}, {fcur!r}")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RootSearchError(f"Brent iteration did not converge on [{a!r}, {b!r}]")


@lru_cache(maxsize=None)
def beam_mode_coefficient(n: int) -> BeamModeCoefficient:
    """Clamped-clamped eigenvalue lambda_n and frequency coefficient A_n.

    Raises RootSearchError if the root found does not solve cos(l)*cosh(l) = 1.
    """
    if n < 1:
        raise InvariantError(f"mode order must be >= 1, got {n}")
    # roots of cos(l) = sech(l); the k-th root lies near (k + 1/2)*pi
    lo, hi = (n + 0.3) * math.pi, (n + 0.7) * math.pi
    f = lambda l: math.cos(l) - 1.0 / math.cosh(l)
    lam = _brentq(f, lo, hi, rtol=8 * np.finfo(float).eps)
    if not abs(f(lam)) <= 1e-9:
        raise RootSearchError(f"lambda_n={lam!r} does not solve cos(l)*cosh(l)=1")
    return BeamModeCoefficient(n, lam, lam**2 / (2 * math.pi * math.sqrt(12.0)))


# The kernels below (and those of fab, transduction and design) take floats
# or arrays and write `**` as np.float_power (libm pow, as Python's float
# `**`; numpy's array x**2 is x*x): the public functions call them on floats
# and convert back to float, optimize's search calls them on arrays.

def _beam_frequency(n: int, length, flex, mat: Material):
    """f_n = A_n * sqrt(E/rho) * d / L^2, d the flexural dimension flex."""
    return beam_mode_coefficient(n).a_n * math.sqrt(mat.youngs_modulus / mat.density) \
        * flex / np.float_power(length, 2)


def _beam_length(f, flex, mat: Material):
    """_beam_frequency of the fundamental solved for L."""
    return np.sqrt(beam_mode_coefficient(1).a_n
                   * math.sqrt(mat.youngs_modulus / mat.density) * flex / f)


def _beam_lumped(n: int, drive_point: float, length, width, thickness, flex,
                 mat: Material):
    """(f, m_eff, k_eff) of beam mode n referred to drive_point:
    m_eff = rho*A*L * int(phi^2) / phi(drive_point)^2, k_eff = w_n^2 * m_eff."""
    f = _beam_frequency(n, length, flex, mat)
    m_eff = mat.density * (width * thickness) * length * _beam_shape_integral(n, drive_point)
    w0 = 2 * math.pi * f
    return f, m_eff, w0 * w0 * m_eff


def beam_mode_frequency(geom: BeamGeometry, mat: Material, n: int = 1) -> float:
    """Flexural resonance frequency (Hz) of mode n."""
    return _derived("beam frequency", _beam_frequency, n, geom.length,
                    geom.flexural_dimension, mat)


def beam_length_for_frequency(f: float, flexural_dim: float, mat: Material) -> float:
    """Length (m) whose fundamental flexural mode resonates at f (Hz),
    beam_mode_frequency solved for L."""
    return _derived("beam length", _beam_length, f, flexural_dim, mat)


def beam_mode_shape(n: int, xi):
    """Clamped-clamped mode shape at normalized coordinate(s) xi in [0, 1].

    Standard normalization (unit generalized coordinate), not unit maximum.
    """
    lam = beam_mode_coefficient(n).lambda_n
    xi = np.asarray(xi, dtype=float)
    s = (math.cosh(lam) - math.cos(lam)) / (math.sinh(lam) - math.sin(lam))
    return (np.cosh(lam * xi) - np.cos(lam * xi)
            - s * (np.sinh(lam * xi) - np.sin(lam * xi)))


@cache
def _gauss_legendre():
    """Read-only Gauss-Legendre nodes and weights of order _GAUSS_ORDER on
    [-1, 1], computed once per process (leggauss(200) takes milliseconds)."""
    x, w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_nodes(a: float, b: float):
    x, w = _gauss_legendre()
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
    m = beam_mode_result(geom, mat, n, drive_point, samples=0)
    return m.effective_mass, m.effective_stiffness


def beam_mode_result(geom: BeamGeometry, mat: Material, n: int = 1,
                     drive_point: float = 0.5, samples: int = 201) -> ModeResult:
    """Bundle frequency, effective parameters and a shape sampled at
    `samples` points (none when samples = 0)."""
    f, m_eff, k_eff = _derived("beam f, m_eff, k_eff", _beam_lumped, n, drive_point, geom.length,
                               geom.width, geom.thickness, geom.flexural_dimension, mat)
    shape = ()
    if samples:
        phi = beam_mode_shape(n, np.linspace(0.0, 1.0, samples))
        shape = phi / np.max(np.abs(phi))
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
    from scipy.special import jv
    # Jn'(z) = (J(n-1, z) - J(n+1, z)) / 2, formed as scipy's jvp forms it,
    # so each order is evaluated once per argument
    jx, jy = jv(n, x), jv(n, y)
    dx = (jv(n - 1, x) - jv(n + 1, x)) / 2.0
    dy = (jv(n - 1, y) - jv(n + 1, y)) / 2.0
    m11 = (1 - nu) * (n * n * jx - x * dx) - x * x * jx
    m12 = n * (1 - nu) * (y * dy - jy)
    m21 = 2 * n * (jx - x * dx)
    m22 = (y * y - 2 * n * n) * jy + 2 * y * dy
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
    # first sample that is a root or opens a sign change, scanned in ten
    # segments of 400 intervals: the lowest root lies in the first one for
    # n = 2..8 and nu = 0..0.49, and the determinant is elementwise, so the
    # samples equal those of one whole-window scan
    for start in range(0, 4000, 400):
        seg = ys[start:start + 401]
        vals = det(seg)
        hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
        if hits.size:
            i = hits[0]
            if vals[i] == 0.0:
                return float(seg[i])
            return _brentq(det, seg[i], seg[i + 1], rtol=1e-12)
    raise RootSearchError(
        f"no characteristic root for angular order {n} in window "
        f"[{lo:.3g}, {hi:.3g}] around the Rayleigh-quotient guess {y_rq:.3g}")


def _disk_frequency(n: int, radius, mat: Material):
    """f = y_n * c_T / (2*pi*R), y_n the dimensionless characteristic root."""
    _, c_t = plane_stress_wave_speeds(mat)
    return _disk_dimensionless_root(n, mat.poisson_ratio) * c_t / (2 * math.pi * radius)


def _disk_lumped(n: int, radius, thickness, mat: Material):
    """(f, m_eff, k_eff) of the order-n mode referred to the rim radial
    antinode: m_eff = coefficient * rho*t*R^2, k_eff = w^2 * m_eff."""
    f = _disk_frequency(n, radius, mat)
    m_eff = _disk_meff_coefficient(n, mat.poisson_ratio) \
        * mat.density * thickness * np.float_power(radius, 2)
    w0 = 2 * math.pi * f
    return f, m_eff, w0 * w0 * m_eff


def disk_wineglass_frequency(geom: DiskGeometry, mat: Material, n: int = 2) -> float:
    """Lowest in-plane resonance (Hz) of angular order n (n=2: wine-glass)."""
    return _derived("disk frequency", _disk_frequency, n, geom.radius, mat)


def disk_radius_for_frequency(f: float, mat: Material) -> float:
    """Radius (m) whose wine-glass (n = 2) mode resonates at f (Hz): the law
    f = y*c_T/(2*pi*R) is its own inverse in f and R."""
    return _derived("disk radius", _disk_frequency, 2, f, mat)


def _disk_unit_fields(n: int, nu: float):
    """Dimensionless radial profiles (u_r, u_t) on the unit disk.

    Angular dependence is cos(n t) for u_r and sin(n t) for u_t; radial
    coordinate rho = r/R in (0, 1].
    """
    from scipy.special import jv, jvp
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
    m = disk_mode_result(geom, mat, n, samples=0)
    return m.effective_mass, m.effective_stiffness


def disk_mode_result(geom: DiskGeometry, mat: Material, n: int = 2,
                     samples: int = 201) -> ModeResult:
    """ModeResult for the order-n disk mode.

    mode_shape samples the radial displacement profile u_r(r) at the
    angular antinode at `samples` radii (none when samples = 0), normalized
    to unit maximum.
    """
    f, m_eff, k_eff = _derived("disk f, m_eff, k_eff", _disk_lumped, n, geom.radius,
                               geom.thickness, mat)
    shape = ()
    if samples:
        u_r, _ = _disk_unit_fields(n, mat.poisson_ratio)
        prof = u_r(np.linspace(1.0 / samples, 1.0, samples))
        shape = prof / np.max(np.abs(prof))
    return ModeResult(frequency=f, mode_order=n, effective_mass=m_eff,
                      effective_stiffness=k_eff, mode_shape=shape)
