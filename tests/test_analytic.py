import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import with_pow_ties
from resokit import analytic
from resokit.analytic import (BeamModeCoefficient, beam_effective_params,
                              beam_length_for_frequency, beam_mode_coefficient,
                              beam_mode_frequency, beam_mode_result,
                              beam_mode_shape, disk_boundary_matrix,
                              disk_effective_params, disk_mode_result,
                              disk_radius_for_frequency,
                              disk_wineglass_frequency,
                              plane_stress_wave_speeds)
from resokit.core import BeamGeometry, DiskGeometry, Material, VibrationAxis
from resokit.errors import InvariantError, RootSearchError, SingularDrivePointError

# frozen from the reference data table for clamped-clamped flexure
LAMBDA_TABLE = {1: 4.730041, 2: 7.853205, 3: 10.995608}


class TestBeamCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lambda_matches_table(self, n):
        c = beam_mode_coefficient(n)
        assert c.lambda_n == pytest.approx(LAMBDA_TABLE[n], abs=5e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_characteristic_residual(self, n):
        lam = beam_mode_coefficient(n).lambda_n
        assert abs(math.cos(lam) * math.cosh(lam) - 1.0) <= 1e-9 * math.cosh(lam)

    def test_a_n_definition(self):
        c = beam_mode_coefficient(1)
        assert c.a_n == pytest.approx(c.lambda_n**2 / (2 * math.pi * math.sqrt(12)),
                                      rel=1e-15)

    def test_bad_root_rejected(self, monkeypatch):
        # a root search that returns a non-root fails the postcondition
        monkeypatch.setattr(analytic, "_brentq", lambda *args, **kwargs: 4.5)
        with pytest.raises(RootSearchError, match="does not solve"):
            beam_mode_coefficient.__wrapped__(1)   # past the cache

    def test_plain_record(self):
        c = beam_mode_coefficient(2)
        assert c == BeamModeCoefficient(2, c.lambda_n, c.a_n)
        assert tuple(c) == (2, c.lambda_n, c.a_n)

    def test_bad_order(self):
        with pytest.raises(InvariantError):
            beam_mode_coefficient(0)


class TestFiguresOutOfRange:
    """A figure of absurd but finite dimensions that overflows or underflows
    is an InvariantError, not a numpy warning and an inf or 0."""

    def test_beam(self, silicon):
        huge = BeamGeometry(1e300, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE)  # L^2 = inf
        with pytest.raises(InvariantError, match="beam frequency must be finite"):
            beam_mode_frequency(huge, silicon)
        with pytest.raises(InvariantError, match="beam f, m_eff, k_eff"):
            beam_mode_result(huge, silicon, samples=0)

    def test_disk(self, silicon):
        tiny = DiskGeometry(1e-320, 1e-321)   # f = y*c_T/(2*pi*R) = inf
        with pytest.raises(InvariantError, match="disk frequency must be finite"):
            disk_wineglass_frequency(tiny, silicon)
        with pytest.raises(InvariantError, match="disk f, m_eff, k_eff"):
            disk_mode_result(tiny, silicon, samples=0)

    def test_inverse_laws(self, silicon):
        with pytest.raises(InvariantError, match="disk radius"):
            disk_radius_for_frequency(1e-320, silicon)
        with pytest.raises(InvariantError, match="beam length"):
            beam_length_for_frequency(1e-320, 1e300, silicon)


class TestBeamFrequency:
    def test_reference_beam_within_10pct_of_38p8mhz(self, ref_beam, silicon):
        # 10 x 0.46 x 0.4 um silicon beam, in-plane fundamental
        f = beam_mode_frequency(ref_beam, silicon, 1)
        assert f == pytest.approx(38.8e6, rel=0.10)
        # regression pin for the default constants
        assert f == pytest.approx(40.270080306768e6, rel=1e-9)

    def test_double_length_quarters_frequency(self, ref_beam, silicon):
        longer = dataclasses.replace(ref_beam, length=2 * ref_beam.length)
        assert beam_mode_frequency(longer, silicon) == \
            beam_mode_frequency(ref_beam, silicon) / 4.0

    def test_out_of_plane_width_independent(self, silicon):
        g1 = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.OUT_OF_PLANE)
        g2 = dataclasses.replace(g1, width=2 * g1.width)
        assert beam_mode_frequency(g1, silicon) == beam_mode_frequency(g2, silicon)

    def test_harmonic_ratio(self, ref_beam, silicon):
        l1 = beam_mode_coefficient(1).lambda_n
        l2 = beam_mode_coefficient(2).lambda_n
        r = beam_mode_frequency(ref_beam, silicon, 2) / beam_mode_frequency(ref_beam, silicon, 1)
        assert r == pytest.approx((l2 / l1) ** 2, rel=1e-12)

    def test_monotone_in_material(self, ref_beam):
        rng = np.random.default_rng(42)
        for _ in range(20):
            e = rng.uniform(50e9, 400e9)
            rho = rng.uniform(1000, 8000)
            base = Material(youngs_modulus=e, density=rho, poisson_ratio=0.25)
            stiffer = Material(youngs_modulus=e * 1.3, density=rho, poisson_ratio=0.25)
            denser = Material(youngs_modulus=e, density=rho * 1.3, poisson_ratio=0.25)
            f = beam_mode_frequency(ref_beam, base)
            assert beam_mode_frequency(ref_beam, stiffer) > f
            assert beam_mode_frequency(ref_beam, denser) < f

    def test_uniform_scale_inverse(self, ref_beam, silicon):
        s = 2.0
        scaled = BeamGeometry(ref_beam.length * s, ref_beam.width * s,
                              ref_beam.thickness * s, ref_beam.vibration_axis)
        assert beam_mode_frequency(scaled, silicon) == \
            pytest.approx(beam_mode_frequency(ref_beam, silicon) / s, rel=1e-12)


class TestInverseLaws:
    @pytest.mark.parametrize("f", [10e6, 38.4e6, 153.6e6, 2e9])
    @pytest.mark.parametrize("axis", list(VibrationAxis))
    def test_beam_length_round_trip(self, silicon, f, axis):
        d = 0.46e-6
        length = beam_length_for_frequency(f, d, silicon)
        geom = (BeamGeometry(length, d, 0.2e-6, axis) if axis is VibrationAxis.IN_PLANE
                else BeamGeometry(length, 0.2e-6, d, axis))
        assert beam_mode_frequency(geom, silicon) == pytest.approx(f, rel=1e-12)

    @pytest.mark.parametrize("f", [38.4e6, 153.6e6, 644e6, 2e9])
    @pytest.mark.parametrize("material", ["silicon", "polysilicon"])
    def test_disk_radius_round_trip(self, f, material):
        from resokit.core import load_material
        mat = load_material(material)
        radius = disk_radius_for_frequency(f, mat)
        geom = DiskGeometry(radius, radius / 10)
        assert disk_wineglass_frequency(geom, mat) == pytest.approx(f, rel=1e-12)


class TestGaussNodes:
    def test_leggauss_runs_once_per_process(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        analytic._gauss_legendre.cache_clear()
        try:
            # cold shape integrals: arguments no other test caches
            analytic._beam_shape_integral(2, 0.3125)
            analytic._beam_shape_integral(3, 0.3125)
            analytic._disk_meff_coefficient(3, 0.3125)
            analytic._gauss_nodes(-1.0, 2.0)
        finally:
            analytic._gauss_legendre.cache_clear()
        assert calls == [analytic._GAUSS_ORDER]

    def test_cached_nodes_read_only(self):
        for a in analytic._gauss_legendre():
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (0.25, 0.5)])
    def test_nodes_bitwise_equal_to_fresh_leggauss(self, a, b):
        x, w = np.polynomial.legendre.leggauss(analytic._GAUSS_ORDER)
        got_x, got_w = analytic._gauss_nodes(a, b)
        assert np.array_equal(got_x, 0.5 * (b - a) * x + 0.5 * (b + a))
        assert np.array_equal(got_w, 0.5 * (b - a) * w)
        assert got_x.flags.writeable and got_w.flags.writeable


class TestBeamEffectiveParams:
    def test_against_quadrature_oracle(self, ref_beam, silicon):
        # independent adaptive-quadrature oracle for the shape integral
        lam = beam_mode_coefficient(1).lambda_n
        sigma = (math.cosh(lam) - math.cos(lam)) / (math.sinh(lam) - math.sin(lam))

        def phi(x):
            return (math.cosh(lam * x) - math.cos(lam * x)
                    - sigma * (math.sinh(lam * x) - math.sin(lam * x)))

        integral, err = quad(lambda x: phi(x) ** 2, 0.0, 1.0,
                             epsabs=1e-13, epsrel=1e-13)
        ratio_oracle = integral / phi(0.5) ** 2
        assert err < 1e-12

        m_eff, k_eff = beam_effective_params(ref_beam, silicon, 1, 0.5)
        m_total = silicon.density * ref_beam.cross_section_area * ref_beam.length
        assert m_eff / m_total == pytest.approx(ratio_oracle, rel=1e-9)
        # the classical midpoint value
        assert m_eff / m_total == pytest.approx(0.3965, abs=5e-4)

    def test_stiffness_definition(self, ref_beam, silicon):
        m_eff, k_eff = beam_effective_params(ref_beam, silicon, 1, 0.5)
        w0 = 2 * math.pi * beam_mode_frequency(ref_beam, silicon, 1)
        assert k_eff == pytest.approx(w0**2 * m_eff, rel=1e-12)

    def test_node_drive_point_rejected(self, ref_beam, silicon):
        # the midpoint is a node of mode 2
        with pytest.raises(SingularDrivePointError):
            beam_effective_params(ref_beam, silicon, 2, 0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_drive_point_domain(self, ref_beam, silicon, bad):
        with pytest.raises(InvariantError):
            beam_effective_params(ref_beam, silicon, 1, bad)

    def test_mode_result_bundles(self, ref_beam, silicon):
        mr = beam_mode_result(ref_beam, silicon, 1)
        assert mr.frequency == beam_mode_frequency(ref_beam, silicon, 1)
        assert max(abs(v) for v in mr.mode_shape) == pytest.approx(1.0, abs=1e-12)
        assert mr.mode_order == 1

    @pytest.mark.parametrize("n,drive_point", [(1, 0.5), (2, 0.3), (3, 0.5)])
    def test_mode_shape_is_sampled_profile(self, ref_beam, silicon, n, drive_point):
        phi = beam_mode_shape(n, np.linspace(0.0, 1.0, 201))
        mr = beam_mode_result(ref_beam, silicon, n, drive_point)
        assert mr.mode_shape == tuple(float(v) for v in phi / np.max(np.abs(phi)))
        assert beam_mode_result(ref_beam, silicon, n, drive_point, samples=0).mode_shape == ()

    def test_mode_shape_clamped_ends(self):
        phi = beam_mode_shape(1, np.array([0.0, 1.0]))
        assert np.allclose(phi, 0.0, atol=1e-9)


class TestDiskFrequency:
    def test_reference_disk_within_10pct_of_644mhz(self, ref_disk, silicon):
        f = disk_wineglass_frequency(ref_disk, silicon, 2)
        assert f == pytest.approx(644e6, rel=0.10)
        # regression pin for the default constants
        assert f == pytest.approx(662.2337781170e6, rel=1e-9)

    def test_radial_mode_reduction_anchor(self):
        # n=0 entries must reduce to x*J0(x)/J1(x) = 1 - nu
        from scipy.special import jv
        nu = 0.3
        x = 1.9
        m = disk_boundary_matrix(0, nu, x, 2.5)
        # first row, first column is the radial condition (second column is 0)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0
        expected = (1 - nu) * (-x * (-jv(1, x))) - x**2 * jv(0, x)
        assert m[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_scale_inverse_exact(self, ref_disk, silicon):
        scaled = DiskGeometry(ref_disk.radius * 2, ref_disk.thickness * 2)
        assert disk_wineglass_frequency(scaled, silicon) == \
            disk_wineglass_frequency(ref_disk, silicon) / 2.0

    def test_scale_inverse_generic(self, ref_disk, silicon):
        s = 3.7
        scaled = DiskGeometry(ref_disk.radius * s, ref_disk.thickness * s)
        assert disk_wineglass_frequency(scaled, silicon) == \
            pytest.approx(disk_wineglass_frequency(ref_disk, silicon) / s, rel=1e-12)

    def test_thickness_independent(self, ref_disk, silicon):
        thicker = DiskGeometry(ref_disk.radius, 2 * ref_disk.thickness)
        assert disk_wineglass_frequency(thicker, silicon) == \
            disk_wineglass_frequency(ref_disk, silicon)

    def test_determinant_residual_at_root(self, ref_disk, silicon):
        nu = silicon.poisson_ratio
        c_l, c_t = plane_stress_wave_speeds(silicon)
        f = disk_wineglass_frequency(ref_disk, silicon, 2)
        w = 2 * math.pi * f

        def det(omega):
            x = omega * ref_disk.radius / c_l
            y = omega * ref_disk.radius / c_t
            m = disk_boundary_matrix(2, nu, x, y)
            return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

        # residual must be far below the determinant scale over the bracket
        y_rq = 2 * math.sqrt(2.0)
        w_rq = y_rq * c_t / ref_disk.radius
        scale = max(abs(det(w_)) for w_ in np.linspace(0.1 * w_rq, 10 * w_rq, 200))
        assert abs(det(w)) < 1e-9 * scale

    def test_bad_order(self, ref_disk, silicon):
        with pytest.raises(InvariantError):
            disk_wineglass_frequency(ref_disk, silicon, 1)

    def test_monotone_in_material(self, ref_disk):
        rng = np.random.default_rng(7)
        for _ in range(10):
            e = rng.uniform(50e9, 400e9)
            rho = rng.uniform(1000, 8000)
            base = Material(youngs_modulus=e, density=rho, poisson_ratio=0.28)
            stiffer = Material(youngs_modulus=e * 1.2, density=rho, poisson_ratio=0.28)
            denser = Material(youngs_modulus=e, density=rho * 1.2, poisson_ratio=0.28)
            f = disk_wineglass_frequency(ref_disk, base)
            assert disk_wineglass_frequency(ref_disk, stiffer) > f
            assert disk_wineglass_frequency(ref_disk, denser) < f


class TestDiskEffectiveParams:
    def test_stiffness_definition(self, ref_disk, silicon):
        m_eff, k_eff = disk_effective_params(ref_disk, silicon, 2)
        w0 = 2 * math.pi * disk_wineglass_frequency(ref_disk, silicon, 2)
        assert k_eff == pytest.approx(w0**2 * m_eff, rel=1e-12)

    def test_less_than_total_mass(self, ref_disk, silicon):
        m_eff, _ = disk_effective_params(ref_disk, silicon, 2)
        m_total = silicon.density * math.pi * ref_disk.radius**2 * ref_disk.thickness
        assert 0 < m_eff < m_total

    def test_golden_value(self, ref_disk, silicon):
        # recorded once after cross-validation against the FEM mass integral
        m_eff, _ = disk_effective_params(ref_disk, silicon, 2)
        assert m_eff == pytest.approx(1.3541552221026e-14, rel=1e-9)

    def test_mode_result(self, ref_disk, silicon):
        mr = disk_mode_result(ref_disk, silicon, 2)
        assert mr.mode_order == 2
        assert max(abs(v) for v in mr.mode_shape) == pytest.approx(1.0, abs=1e-12)


class TestUnsampledModes:
    """samples=0 gives the same lumped mode with no sampled shape."""

    @pytest.mark.parametrize("which", ["beam", "disk"])
    def test_lumped_values_unchanged(self, which, ref_beam, ref_disk, silicon):
        make, geom = ((beam_mode_result, ref_beam) if which == "beam"
                      else (disk_mode_result, ref_disk))
        sampled, bare = make(geom, silicon), make(geom, silicon, samples=0)
        assert len(sampled.mode_shape) == 201
        assert bare.mode_shape == ()
        assert (bare.frequency, bare.effective_mass, bare.effective_stiffness) == (
            sampled.frequency, sampled.effective_mass, sampled.effective_stiffness)


def _loop_disk_root(n, nu):
    """Reference: the characteristic-root bracket scanned one sample at a time."""
    ratio = math.sqrt((1 - nu) / 2.0)

    def det(y):
        m = disk_boundary_matrix(n, nu, y * ratio, y)
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    y_rq = 2.0 * math.sqrt(n * (n - 1))
    ys = np.linspace(0.1 * y_rq, 10.0 * y_rq, 4001)
    vals = np.array([det(v) for v in ys])
    for i in range(len(ys) - 1):
        if vals[i] == 0.0:
            return ys, vals, float(ys[i])
        if vals[i] * vals[i + 1] < 0:
            return ys, vals, brentq(det, ys[i], ys[i + 1], rtol=1e-12)
    raise AssertionError("no root")


class TestVectorizedDiskRoot:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("nu", [0.15, 0.22, 0.28, 0.35])
    def test_bitwise_equal_to_loop(self, n, nu):
        ys, vals, root = _loop_disk_root(n, nu)
        m = disk_boundary_matrix(n, nu, ys * math.sqrt((1 - nu) / 2.0), ys)
        assert m.shape == (2, 2, 4001)
        assert np.array_equal(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], vals)
        assert analytic._disk_dimensionless_root(n, nu) == root


def _jv(n, z):
    """Jn(z) from the module's kernel, called for orders n-1, n, n+1 as the
    module calls it (the node count depends on the largest order)."""
    return analytic._bessel_j((n - 1, n, n + 1), z)[1]


def _jvp(n, z):
    """Jn'(z) = (J(n-1, z) - J(n+1, z)) / 2 from the module's kernel."""
    j = analytic._bessel_j((n - 1, n, n + 1), z)
    return (j[0] - j[2]) / 2.0


def _kernel_boundary_matrix(n, nu, x, y):
    """Reference: the boundary matrix written with Jn and Jn' as in the
    module docs, 13 Bessel evaluations per point."""
    m11 = (1 - nu) * (n * n * _jv(n, x) - x * _jvp(n, x)) - x * x * _jv(n, x)
    m12 = n * (1 - nu) * (y * _jvp(n, y) - _jv(n, y))
    m21 = 2 * n * (_jv(n, x) - x * _jvp(n, x))
    m22 = (y * y - 2 * n * n) * _jv(n, y) + 2 * y * _jvp(n, y)
    return np.array([[m11, m12], [m21, m22]])


def _scipy_boundary_matrix(n, nu, x, y):
    """The same formula with scipy's jv and jvp."""
    from scipy.special import jv, jvp
    m11 = (1 - nu) * (n * n * jv(n, x) - x * jvp(n, x)) - x * x * jv(n, x)
    m12 = n * (1 - nu) * (y * jvp(n, y) - jv(n, y))
    m21 = 2 * n * (jv(n, x) - x * jvp(n, x))
    m22 = (y * y - 2 * n * n) * jv(n, y) + 2 * y * jvp(n, y)
    return np.array([[m11, m12], [m21, m22]])


class TestBoundaryMatrix:
    @pytest.mark.parametrize("n", range(7))
    def test_equals_jvp_formula(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(0.01, 60.0, (2, 3000))
        nu = float(rng.uniform(0.05, 0.45))
        m = disk_boundary_matrix(n, nu, x, y)
        assert np.array_equal(m, _kernel_boundary_matrix(n, nu, x, y))
        for xi, yi in zip(x[:20].tolist(), y[:20].tolist()):
            assert np.array_equal(disk_boundary_matrix(n, nu, xi, yi),
                                  _kernel_boundary_matrix(n, nu, xi, yi))
        # entries are up to ~y^2 in size: compare on that scale
        ref = _scipy_boundary_matrix(n, nu, x, y)
        assert np.all(np.abs(m - ref) <= 1e-14 * (1.0 + x * x + y * y))


def _scipy_root(n, nu):
    """Reference: the characteristic root by scipy's jv, jvp and brentq over
    the module's scan window."""
    ratio = math.sqrt((1 - nu) / 2.0)

    def det(y):
        m = _scipy_boundary_matrix(n, nu, y * ratio, y)
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    y_rq = 2.0 * math.sqrt(n * (n - 1))
    ys = np.linspace(0.1 * y_rq, 10.0 * y_rq, 4001)
    vals = det(ys)
    i = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))[0]
    return brentq(det, ys[i], ys[i + 1], rtol=1e-12)


def _unit_fields(n, nu, y, jv, jvp, matrix):
    """Reference: the unit-disk fields (u_r, u_t) of the order-n mode at
    characteristic root y, written with the Bessel functions and boundary
    matrix given."""
    x = y * math.sqrt((1 - nu) / 2.0)
    m = matrix(n, nu, x, y)
    if abs(m[0, 0]) + abs(m[0, 1]) >= abs(m[1, 0]) + abs(m[1, 1]):
        a, b = -m[0, 1], m[0, 0]
    else:
        a, b = -m[1, 1], m[1, 0]
    return (lambda rho: a * x * jvp(n, x * rho) + b * n * jv(n, y * rho) / rho,
            lambda rho: -a * n * jv(n, x * rho) / rho - b * y * jvp(n, y * rho))


def _meff_coefficient(u_r, u_t):
    rho, wts = analytic._gauss_nodes(0.0, 1.0)
    integral = float(np.sum(wts * (u_r(rho)**2 + u_t(rho)**2) * rho))
    return math.pi * integral / float(u_r(1.0))**2


def _scipy_fields(n, nu):
    from scipy.special import jv, jvp
    return _unit_fields(n, nu, _scipy_root(n, nu), jv, jvp, _scipy_boundary_matrix)


class TestBesselDerivative:
    """One Jn, Jn' helper serves the boundary matrix and the mode fields, as
    the kernel's (J(n-1) - J(n+1)) / 2, within rounding of scipy's jvp."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_jvp(self, n):
        from scipy.special import jv, jvp
        z = np.random.default_rng(n).uniform(0.0, 60.0, 100_000)
        jn, dn = analytic._jv_and_prime(n, z)
        j = analytic._bessel_j((n - 1, n, n + 1), z)
        assert np.array_equal(jn, j[1])
        assert np.array_equal(dn, (j[0] - j[2]) / 2.0)
        assert np.max(np.abs(jn - jv(n, z))) <= 4e-15
        assert np.max(np.abs(dn - jvp(n, z))) <= 4e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("nu", [0.0, 0.17, 0.28, 0.45])
    def test_fields_and_meff_coefficient_unchanged(self, n, nu):
        ref_r, ref_t = _unit_fields(n, nu, analytic._disk_dimensionless_root(n, nu),
                                    _jv, _jvp, _kernel_boundary_matrix)
        grid = np.linspace(1e-3, 1.0, 2001)
        u_r, u_t = analytic._disk_unit_fields(n, nu)(grid)
        assert np.array_equal(u_r, ref_r(grid))
        assert np.array_equal(u_t, ref_t(grid))
        assert analytic._disk_meff_coefficient(n, nu) == _meff_coefficient(ref_r, ref_t)
        samples = np.linspace(1.0 / 201, 1.0, 201)
        shape = analytic._disk_shape(n, nu, 201)
        assert np.array_equal(shape, ref_r(samples) / np.max(np.abs(ref_r(samples))))


class TestScipyReference:
    """Roots, m_eff coefficients and shapes stay within rounding of the
    values scipy's Bessel functions give, over the orders and Poisson
    ratios the library uses."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_roots(self, n):
        for nu in np.linspace(0.0, 0.49, 15).tolist():
            assert analytic._disk_dimensionless_root(n, nu) == \
                pytest.approx(_scipy_root(n, nu), rel=1e-14, abs=0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_meff_and_shape(self, n):
        for nu in np.linspace(0.0, 0.49, 8).tolist():
            sp_r, sp_t = _scipy_fields(n, nu)
            assert analytic._disk_meff_coefficient(n, nu) == \
                pytest.approx(_meff_coefficient(sp_r, sp_t), rel=1e-14, abs=0)
            samples = np.linspace(1.0 / 201, 1.0, 201)
            sp_shape = sp_r(samples) / np.max(np.abs(sp_r(samples)))
            assert np.max(np.abs(analytic._disk_shape(n, nu, 201) - sp_shape)) <= 2e-13


class TestBesselKernel:
    """analytic._bessel_j: the trapezoid rule of Bessel's integral."""

    def test_against_scipy(self):
        from scipy.special import jv
        rng = np.random.default_rng(5)
        z = np.concatenate([rng.uniform(-60.0, 60.0, 20_000), np.linspace(0.0, 60.0, 2001),
                            np.geomspace(1e-300, 1.0, 200), [0.0, -0.0]])
        orders = range(-1, 10)
        j = analytic._bessel_j(orders, z)
        assert j.shape == (11, len(z))
        for row, m in zip(j, orders):
            assert np.max(np.abs(row - jv(m, z))) <= 4e-15

    def test_shapes(self):
        z = np.linspace(0.0, 5.0, 12).reshape(3, 4)
        assert analytic._bessel_j((0, 1), z).shape == (2, 3, 4)
        assert analytic._bessel_j((2,), 1.5).shape == (1,)
        assert analytic._bessel_j((0, 1, 2), np.empty(0)).shape == (3, 0)

    @pytest.mark.parametrize("orders", [(1, 2, 3), (3, 4, 5), (-1, 0, 1, 2, 9)])
    def test_array_equals_scalars(self, orders):
        # arguments over many node counts
        z = np.random.default_rng(len(orders)).uniform(-70.0, 70.0, 3000)
        j = analytic._bessel_j(orders, z)
        scalars = np.array([analytic._bessel_j(orders, v) for v in z.tolist()]).T
        assert np.array_equal(j, scalars)
        halves = np.concatenate([analytic._bessel_j(orders, z[:1234]),
                                 analytic._bessel_j(orders, z[1234:])], axis=1)
        assert np.array_equal(j, halves)

    def test_non_finite(self):
        # J(+-inf) is the limit 0, J(nan) is nan; the finite points of the
        # call are unaffected
        z = np.array([np.inf, -np.inf, np.nan, 1.5])
        j = analytic._bessel_j((-1, 0, 1, 4), z)
        assert np.array_equal(j[:, :2], np.zeros((4, 2)))
        assert np.isnan(j[:, 2]).all()
        assert np.array_equal(j[:, 3], analytic._bessel_j((-1, 0, 1, 4), 1.5))

    def test_argument_cap(self):
        cap = analytic._BESSEL_MAX_ARG
        assert np.isfinite(analytic._bessel_j((0, 1), np.array([cap, -cap]))).all()
        for z in (np.nextafter(cap, np.inf), -2.0 * cap, np.array([1.0, np.nan, 3 * cap])):
            with pytest.raises(InvariantError):
                analytic._bessel_j((0, 1), z)

    def test_many_points_bounded_temporaries(self):
        import tracemalloc
        z = np.random.default_rng(9).uniform(0.0, 60.0, 100_000)
        tracemalloc.start()
        try:
            j = analytic._bessel_j((1, 2, 3), z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(j).all()
        # a (points x nodes) array at |z| near 60 would take 100000 * 40 * 8
        # bytes = 32 MB; the output and the per-point arrays take about 7 MB
        assert peak < 12e6


class TestBrent:
    """analytic._brentq returns bitwise the root scipy.optimize.brentq does."""

    def test_beam_roots_equal_scipy(self):
        f = lambda l: math.cos(l) - 1.0 / math.cosh(l)
        rtol = 8 * np.finfo(float).eps
        for n in range(1, 31):
            lo, hi = (n + 0.3) * math.pi, (n + 0.7) * math.pi
            lam = analytic._brentq(f, lo, hi, rtol=rtol)
            assert lam == brentq(f, lo, hi, rtol=rtol)
            assert lam == beam_mode_coefficient(n).lambda_n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_disk_roots_equal_scipy(self, n):
        for nu in np.linspace(0.05, 0.45, 17).tolist():
            ratio = math.sqrt((1 - nu) / 2.0)

            def det(y):
                m = disk_boundary_matrix(n, nu, y * ratio, y)
                return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

            y_rq = 2.0 * math.sqrt(n * (n - 1))
            ys = np.linspace(0.1 * y_rq, 10.0 * y_rq, 4001)
            vals = det(ys)
            i = np.flatnonzero(vals[:-1] * vals[1:] < 0)[0]
            root = analytic._brentq(det, ys[i], ys[i + 1], rtol=1e-12)
            assert root == brentq(det, ys[i], ys[i + 1], rtol=1e-12)
            assert root == analytic._disk_dimensionless_root(n, nu)

    def test_random_functions_equal_scipy(self):
        # steps the two smooth characteristic functions above rarely take
        rng = np.random.default_rng(0)
        checked = 0
        for c in rng.normal(size=(400, 5)):
            g = lambda x, c=c: (c[0] + c[1] * x + c[2] * math.sin(3 * x)
                                + c[3] * x**3 + c[4] * math.exp(-x * x))
            a, b = sorted(rng.uniform(-3.0, 3.0, 2).tolist())
            if g(a) * g(b) >= 0:
                continue
            checked += 1
            for rtol in (4 * np.finfo(float).eps, 1e-12, 1e-6):
                assert analytic._brentq(g, a, b, rtol) == brentq(g, a, b, rtol=rtol)
        assert checked > 100

    def test_no_sign_change(self):
        with pytest.raises(RootSearchError):
            analytic._brentq(lambda x: x * x + 1.0, -1.0, 1.0, rtol=1e-12)

    def test_nan_value(self):
        with pytest.raises(RootSearchError):
            analytic._brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0,
                             rtol=1e-12)


class TestLumpedArrays:
    """The lumped-mode kernels on arrays equal the scalar ModeResults and
    independently written math.pow expressions bitwise, also where numpy's
    x**2 (x*x) and libm pow round differently."""

    @pytest.mark.parametrize("axis", list(VibrationAxis))
    def test_beam_equals_scalar(self, axis):
        rng = np.random.default_rng(1)
        length = with_pow_ties(rng.uniform(2e-6, 30e-6, 40000))
        width = rng.uniform(0.2e-6, 1e-6, len(length))
        thickness = rng.uniform(0.2e-6, 1.5e-6, len(length))
        mat = Material(160e9, 2330.0, 0.28)
        flex = width if axis is VibrationAxis.IN_PLANE else thickness
        arrays = analytic._beam_lumped(1, 0.5, length, width, thickness, flex, mat)
        coef = beam_mode_coefficient(1).a_n * math.sqrt(160e9 / 2330.0)
        shape = analytic._beam_shape_integral(1, 0.5)
        for i in range(len(length)):
            m = beam_mode_result(BeamGeometry(length[i], width[i], thickness[i], axis),
                                 mat, samples=0)
            f = coef * float(flex[i]) / math.pow(length[i], 2)
            m_eff = 2330.0 * float(width[i] * thickness[i]) * float(length[i]) * shape
            w0 = 2 * math.pi * f
            assert (m.frequency, m.effective_mass, m.effective_stiffness) \
                == tuple(a[i] for a in arrays) == (f, m_eff, w0 * w0 * m_eff)

    def test_disk_equals_scalar(self):
        rng = np.random.default_rng(2)
        radius = with_pow_ties(rng.uniform(0.5e-6, 40e-6, 40000))
        thickness = rng.uniform(0.1e-6, 0.4e-6, len(radius))
        mat = Material(160e9, 2330.0, 0.22)
        arrays = analytic._disk_lumped(2, radius, thickness, mat)
        coef = analytic._disk_meff_coefficient(2, 0.22) * 2330.0
        c_f = analytic._disk_dimensionless_root(2, 0.22) * plane_stress_wave_speeds(mat)[1]
        for i in range(len(radius)):
            m = disk_mode_result(DiskGeometry(radius[i], thickness[i]), mat, samples=0)
            f = c_f / (2 * math.pi * float(radius[i]))
            m_eff = coef * float(thickness[i]) * math.pow(radius[i], 2)
            w0 = 2 * math.pi * f
            assert (m.frequency, m.effective_mass, m.effective_stiffness) \
                == tuple(a[i] for a in arrays) == (f, m_eff, w0 * w0 * m_eff)
