import collections
import itertools
import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csc_array
from scipy.sparse import eye_array as sparse_eye

from resokit import fem
from resokit.analytic import beam_mode_frequency, disk_wineglass_frequency
from resokit.core import BeamGeometry, DiskGeometry, Material, VibrationAxis
from resokit.errors import (AmbiguousAngularOrderError, EigenSolveError,
                            InvariantError, MeshError, ResokitError)
from resokit.fem import (AssembledSystem, Mesh, assemble_beam, assemble_disk,
                         disk_modal_fem, export_mesh, export_modes_csv,
                         identify_angular_order, mesh_disk, solve_modes)


class TestBeamAssembly:
    def test_symmetry_and_pd(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 2)
        k, m = sys_.stiffness.toarray(), sys_.mass.toarray()
        assert np.array_equal(k, k.T)
        assert np.array_equal(m, m.T)
        free = sys_.free_dofs()
        vals = np.linalg.eigvalsh(m[np.ix_(free, free)])
        assert vals.min() > 0

    def test_element_count_is_bounded(self, monkeypatch, ref_beam, silicon):
        # refused before the mesh's nodes are allocated
        def no_linspace(*args, **kwargs):
            raise AssertionError("the beam's nodes were allocated")

        monkeypatch.setattr(np, "linspace", no_linspace)
        for n in (fem._MAX_ELEMENTS + 1, 10**10):
            with pytest.raises(InvariantError,
                               match=f"n_elements must be <= {fem._MAX_ELEMENTS}, got {n}$"):
                assemble_beam(ref_beam, silicon, n)

    def test_most_elements_solve(self, ref_beam, silicon, cold_unit_caches):
        modes = solve_modes(assemble_beam(ref_beam, silicon, fem._MAX_ELEMENTS), 4)
        # 1.3e-6 from the analytic value: the rounding of the lowest
        # eigenvalue grows with the element count (README)
        assert modes[0][0] == pytest.approx(beam_mode_frequency(ref_beam, silicon, 1), rel=1e-5)

    def test_total_mass(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 8, clamped=False)
        ones = np.zeros(len(sys_.dof_map))
        for i, (_, comp) in enumerate(sys_.dof_map):
            if comp == "w":
                ones[i] = 1.0
        total = float(ones @ sys_.mass.toarray() @ ones)
        expected = silicon.density * ref_beam.cross_section_area * ref_beam.length
        assert total == pytest.approx(expected, rel=1e-9)

    def test_free_free_rigid_modes(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 12, clamped=False)
        modes = solve_modes(sys_, 4)
        lams = [(2 * math.pi * f) ** 2 for f, _ in modes]
        # translation + rotation null space
        assert lams[0] < 1e-6 * lams[2]
        assert lams[1] < 1e-6 * lams[2]
        assert lams[2] > 0

    def test_element_count_validation(self, ref_beam, silicon):
        with pytest.raises(InvariantError):
            assemble_beam(ref_beam, silicon, 1)

    @pytest.mark.parametrize("bad", [64.0, 2.5, "8", True, False, None, np.float64(8.0)])
    def test_element_count_must_be_an_integer(self, ref_beam, silicon, bad):
        with pytest.raises(InvariantError, match=re.escape(
                f"n_elements must be an integer, got {bad!r}")):
            assemble_beam(ref_beam, silicon, bad)
        assert len(assemble_beam(ref_beam, silicon, np.int64(8)).dof_map) == 18

    def test_clamped_constraints(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 4)
        assert sys_.constraints == (0, 1, 8, 9)

    @pytest.mark.parametrize("dims,got", [
        ((1e145, 0.46e-6, 0.4e-6), "0.0"),    # le^3 overflows, so EI/le^3 is 0
        ((1e300, 0.46e-6, 0.4e-6), "0.0"),    # le^2 and le^3 overflow
        ((10e-6, 4.6e-157, 0.4e-6), "0.0"),   # EI ~ t*w^3 underflows to 0
        ((1e145, 1e144, 1e144), "nan"),       # w^3 and le^3 overflow
    ])
    def test_element_matrices_out_of_range(self, silicon, dims, got):
        # refused without a numpy warning (Python's float ** would raise
        # OverflowError), and never a zero K, whose modes would be 0 Hz
        geom = BeamGeometry(*dims, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match=f"EI/le.3 must be > 0, got {got}"):
            assemble_beam(geom, silicon, 8)

    @pytest.mark.parametrize("n_elements", [2, 5, 64])
    def test_element_powers_equal_float_pow(self, ref_beam, silicon, n_elements):
        # le^2 and le^3 are libm pow, as Python's float ** is
        # (node 1's rotation gets the same entry from both its elements)
        sys_ = assemble_beam(ref_beam, silicon, n_elements)
        area, inertia = fem._beam_section(ref_beam)
        le = ref_beam.length / n_elements
        ei, ral = silicon.youngs_modulus * inertia, silicon.density * area * le
        assert sys_.stiffness.toarray()[3, 3] == 2 * ((ei / le**3) * (4 * le**2))
        assert sys_.mass.toarray()[3, 3] == 2 * ((ral / 420.0) * (4 * le**2))


@pytest.fixture
def cold_unit_caches():
    """Empty unit-beam and reference-pair caches before and after the test,
    so that it builds (and leaves behind) no cached unit beam or eigenpairs."""
    for cached in (fem._beam_reference, fem._reference_pairs):
        cached.cache_clear()
    yield
    for cached in (fem._beam_reference, fem._reference_pairs):
        cached.cache_clear()


def _unit_pairs(n, clamped, k):
    """The cached eigenpairs of the unit-beam pencil on n elements."""
    return fem._reference_pairs((fem._beam_reference, n, clamped), k)


def _literal_beam_elements(geom, mat, n_elements):
    """The beam element matrices written out with le literals, as
    assemble_beam built them before _KE0/_ME0 became the only beam element
    definition (reference)."""
    le = geom.length / n_elements
    area, inertia = fem._beam_section(geom)
    ei, ral = mat.youngs_modulus * inertia, mat.density * area * le
    le2, le3 = np.float_power(le, 2), np.float_power(le, 3)
    k_scale, m_scale = ei / le3, ral / 420.0
    ke = k_scale * np.array([
        [12, 6 * le, -12, 6 * le],
        [6 * le, 4 * le2, -6 * le, 2 * le2],
        [-12, -6 * le, 12, -6 * le],
        [6 * le, 2 * le2, -6 * le, 4 * le2]])
    me = m_scale * np.array([
        [156, 22 * le, 54, -13 * le],
        [22 * le, 4 * le2, 13 * le, -3 * le2],
        [54, 13 * le, 156, -22 * le],
        [-13 * le, -3 * le2, -22 * le, 4 * le2]])
    return ke, me


class TestOneBeamElement:
    """_KE0/_ME0 are the only beam element matrices: assemble_beam scales
    them, and the unit pencil is built and gated as every system is."""

    @pytest.mark.parametrize("axis", list(VibrationAxis))
    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 64, 151, 152, 512])
    def test_bitwise_equal_to_literal_elements(self, silicon, axis, clamped, n):
        # a length whose le^2 rounds differently as le*le, so only
        # np.float_power(le, 2) gives the literal entries
        lengths = np.linspace(10e-6, 20e-6, 20001)
        le = lengths / n
        geom = BeamGeometry(float(lengths[np.float_power(le, 2) != le * le][0]),
                            0.46e-6, 0.4e-6, axis)
        sys_ = assemble_beam(geom, silicon, n, clamped)
        ke, me = _literal_beam_elements(geom, silicon, n)
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        for stored, e in ((sys_.stiffness, ke), (sys_.mass, me)):
            ref = _dense_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), 2 * (n + 1))
            assert _bits_equal(stored.toarray(), ref)

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 16, 149, 150, 151, 152, 512])
    def test_unit_free_block_equals_old_slice(self, monkeypatch, n, clamped):
        # the clamped unit pencil was the [2:-2, 2:-2] slice of the scattered
        # integer matrices, the free-free one the matrices themselves
        calls = []
        pencil = fem._pencil_modes

        def recording(kk, mm, k, **kwargs):
            calls.append((kk, mm))
            return pencil(kk, mm, k, **kwargs)

        monkeypatch.setattr(fem, "_pencil_modes", recording)
        fem._reference_pairs.cache_clear()
        _unit_pairs(n, clamped, 1)
        fem._reference_pairs.cache_clear()
        (kk, mm), = calls
        ndof = 2 * (n + 1)
        n_free = ndof - 4 if clamped else ndof
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        for block, e in ((kk, fem._KE0), (mm, fem._ME0)):
            old = _triplet_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), ndof)
            if clamped:
                old = old[2:-2, 2:-2]
            assert type(block) is fem.CSCMatrix and block.shape == (n_free, n_free)
            # assembly stores int32 index arrays; scipy's triplets build int64
            for a, b, dtype in ((block.data, old.data, old.data.dtype),
                                (block.indices, old.indices, np.int32),
                                (block.indptr, old.indptr, np.int32)):
                assert np.array_equal(a, b) and a.dtype == dtype

    def test_unit_pencil_is_gated(self, monkeypatch, cold_unit_caches):
        asymmetric = fem._KE0.copy()
        asymmetric[0, 1] += 1
        monkeypatch.setattr(fem, "_KE0", asymmetric)
        with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
            _unit_pairs(8, True, 2)
        monkeypatch.setattr(fem, "_KE0", -fem._ME0)
        monkeypatch.setattr(fem, "_ME0", -fem._ME0)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            _unit_pairs(8, True, 2)

    def test_underflowing_eigenvalue_scale_rejected(self, silicon):
        # EI/le^3 is a positive subnormal, but (EI/le^3)/(rho*A*le/420)
        # underflows to 0: solve_modes would return four modes of 0.0 Hz
        geom = BeamGeometry(1e100, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match=r"eigenvalue scale .* must be a normal "
                                                 r"float, got 0\.0"):
            assemble_beam(geom, silicon, 8)

    def test_subnormal_eigenvalue_scale_rejected(self):
        # the unit's ||DMD||_F over a subnormal scale overflows: a
        # RuntimeWarning, an error under the suite's filter
        geom = BeamGeometry(1.0, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match=r"eigenvalue scale .* must be a normal "
                                                 r"float, got 1\.18496e-310"):
            assemble_beam(geom, Material(1.0, 1e300, 0.28), 2)


class TestBeamConvergence:
    def test_converges_to_analytic(self, ref_beam, silicon):
        f_ref = beam_mode_frequency(ref_beam, silicon, 1)
        deltas = []
        for n in (16, 32, 64):
            sys_ = assemble_beam(ref_beam, silicon, n)
            f_fem = solve_modes(sys_, 1)[0][0]
            deltas.append(abs(f_fem - f_ref) / f_ref)
        assert deltas[2] < 0.01
        assert deltas[0] > deltas[1] > deltas[2]

    def test_out_of_plane_axis(self, silicon):
        g = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.OUT_OF_PLANE)
        f_ref = beam_mode_frequency(g, silicon, 1)
        sys_ = assemble_beam(g, silicon, 32)
        f_fem = solve_modes(sys_, 1)[0][0]
        assert f_fem == pytest.approx(f_ref, rel=1e-4)


class TestSolver:
    def _two_dof(self, m1, m2, k1, k2, k3):
        k = np.array([[k1 + k2, -k2], [-k2, k2 + k3]], dtype=float)
        m = np.diag([m1, m2]).astype(float)
        return AssembledSystem(k, m, dof_map=((0, "w"), (1, "w")), constraints=())

    def test_two_dof_closed_form(self):
        m1, m2, k1, k2, k3 = 2.0, 3.0, 5.0, 7.0, 11.0
        sys_ = self._two_dof(m1, m2, k1, k2, k3)
        modes = solve_modes(sys_, 2)
        got = sorted((2 * math.pi * f) ** 2 for f, _ in modes)
        # quadratic-formula oracle: det(K - lam M) = 0
        a = m1 * m2
        b = -(m1 * (k2 + k3) + m2 * (k1 + k2))
        c = (k1 + k2) * (k2 + k3) - k2**2
        disc = math.sqrt(b * b - 4 * a * c)
        expected = sorted(((-b - disc) / (2 * a), (-b + disc) / (2 * a)))
        assert got[0] == pytest.approx(expected[0], rel=1e-10)
        assert got[1] == pytest.approx(expected[1], rel=1e-10)

    def test_symmetric_two_mass(self):
        # equal masses, three equal springs: lam = k/m and 3k/m
        sys_ = self._two_dof(1.0, 1.0, 4.0, 4.0, 4.0)
        lams = [(2 * math.pi * f) ** 2 for f, _ in solve_modes(sys_, 2)]
        assert lams[0] == pytest.approx(4.0, rel=1e-12)
        assert lams[1] == pytest.approx(12.0, rel=1e-12)

    def test_determinism(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 16)
        a = solve_modes(sys_, 3)
        b = solve_modes(sys_, 3)
        for (fa, va), (fb, vb) in zip(a, b):
            assert fa == fb
            assert np.array_equal(va, vb)

    def test_k_out_of_range(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 4)
        with pytest.raises(EigenSolveError):
            solve_modes(sys_, 100)
        with pytest.raises(EigenSolveError):
            solve_modes(sys_, 0)

    def test_residuals_and_m_orthogonality(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 32)
        modes = solve_modes(sys_, 5)
        free = sys_.free_dofs()
        kk = sys_.stiffness.toarray()[np.ix_(free, free)]
        mm = sys_.mass.toarray()[np.ix_(free, free)]
        vecs = [v[free] for _, v in modes]
        for f, v in zip((f for f, _ in modes), vecs):
            lam = (2 * math.pi * f) ** 2
            resid = np.linalg.norm(kk @ v - lam * (mm @ v)) / np.linalg.norm(kk @ v)
            assert resid < 1e-8
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                cross = abs(vecs[i] @ mm @ vecs[j])
                norm = math.sqrt((vecs[i] @ mm @ vecs[i]) * (vecs[j] @ mm @ vecs[j]))
                assert cross < 1e-6 * norm

    def test_unit_max_normalization(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 16)
        for _, v in solve_modes(sys_, 3):
            w_dofs = [i for i, (_, c) in enumerate(sys_.dof_map) if c == "w"]
            assert np.max(np.abs(v[w_dofs])) == pytest.approx(1.0, rel=1e-12)

    def test_mass_not_pd_rejected(self):
        k = np.eye(2)
        m = np.diag([1.0, 0.0])
        with pytest.raises(InvariantError):
            AssembledSystem(k, m, dof_map=((0, "w"), (1, "w")), constraints=())

    def test_asymmetric_rejected(self):
        k = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvariantError):
            AssembledSystem(k, np.eye(2), dof_map=((0, "w"), (1, "w")), constraints=())

    @pytest.mark.parametrize("which", ["stiffness", "mass"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, which, bad):
        a = np.array([[2.0, bad], [bad, 2.0]])
        k, m = (a, np.eye(2)) if which == "stiffness" else (np.eye(2), a)
        with pytest.raises(InvariantError, match="non-finite"):
            AssembledSystem(k, m, dof_map=((0, "w"), (1, "w")), constraints=())

    @pytest.mark.parametrize("bad", [np.ones(2), np.array([["1", "0"], ["0", "x"]])],
                             ids=["1-D", "non-numeric"])
    def test_non_matrix_rejected(self, bad):
        with pytest.raises(InvariantError, match="2-D numeric matrices"):
            AssembledSystem(bad, np.eye(2), dof_map=((0, "w"), (1, "w")), constraints=())


def _elastic_residuals(sys_, modes):
    free = sys_.free_dofs()
    kk = sys_.stiffness.toarray()[np.ix_(free, free)]
    mm = sys_.mass.toarray()[np.ix_(free, free)]
    out = []
    for f, v in modes:
        lam, v = (2 * math.pi * f) ** 2, v[free]
        out.append(np.linalg.norm(kk @ v - lam * (mm @ v)) / np.linalg.norm(kk @ v))
    return out


@pytest.fixture(scope="module")
def disk_r12(ref_disk, silicon):
    sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 12))
    assert len(sys_.free_dofs()) > fem._SPARSE_MIN_DOF
    return sys_


def _caller_copy(mesh):
    """mesh as a caller would build it: no cached topology, so a disk on it
    is solved directly, not through the reference-disk pairs."""
    caller = Mesh(nodes=mesh.nodes.copy(), elements=mesh.elements.copy(),
                  kind="plane_stress_2d")
    assert caller._topology is None
    return caller


@pytest.fixture(scope="module")
def caller_disk_r12(ref_disk, silicon):
    sys_ = assemble_disk(ref_disk, silicon,
                         _caller_copy(mesh_disk(ref_disk, ref_disk.radius / 12)))
    assert sys_._congruence is None and len(sys_.free_dofs()) > fem._SPARSE_MIN_DOF
    return sys_


class TestSparseSolver:
    """Systems above the dense/sparse threshold: shift-invert Lanczos."""

    def test_disk_matches_dense_oracle(self, disk_r12):
        lams = [(2 * math.pi * f) ** 2 for f, _ in solve_modes(disk_r12, 9)]
        oracle = eigh(disk_r12.stiffness.toarray(), disk_r12.mass.toarray(),
                      subset_by_index=(0, 8), eigvals_only=True)
        assert lams[3:] == pytest.approx(oracle[3:], rel=1e-10)
        assert max(lams[:3]) < 1e-6 * lams[3]
        assert np.max(np.abs(oracle[:3])) < 1e-6 * oracle[3]

    def test_disk_residuals(self, disk_r12):
        assert max(_elastic_residuals(disk_r12, solve_modes(disk_r12, 9)[3:])) < 1e-8

    def test_determinism(self, disk_r12):
        a = solve_modes(disk_r12, 7)
        b = solve_modes(disk_r12, 7)
        for (fa, va), (fb, vb) in zip(a, b):
            assert fa == fb
            assert np.array_equal(va, vb)

    def test_free_free_beam_rigid_modes(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 256, clamped=False)
        assert len(sys_.free_dofs()) > fem._SPARSE_MIN_DOF
        lams = [(2 * math.pi * f) ** 2 for f, _ in solve_modes(sys_, 4)]
        assert sum(1 for lam in lams if lam < 1e-6 * lams[2]) == 2

    def test_many_modes_match_dense_oracle(self, ref_beam, silicon):
        # k >= n/4 is beyond what the Lanczos window holds; still every mode
        # (built directly, so the beam's own sparse pencil is solved)
        beam = assemble_beam(ref_beam, silicon, 160)
        sys_ = AssembledSystem(beam.stiffness, beam.mass, beam.dof_map, beam.constraints)
        n = len(sys_.free_dofs())
        assert n > fem._SPARSE_MIN_DOF
        free = sys_.free_dofs()
        kk, mm = (a.toarray()[np.ix_(free, free)] for a in (sys_.stiffness, sys_.mass))
        oracle = eigh(kk, mm, subset_by_index=(0, n - 1), eigvals_only=True)
        lams = [(2 * math.pi * f) ** 2 for f, _ in solve_modes(sys_, n)]
        # the lowest of them are ill-conditioned (lambda_max / lambda_1 is
        # about 4e9): within the accuracy of either dense solve
        assert np.all(np.abs(np.array(lams) - oracle) <= _eigenvalue_tolerance(kk, mm))

    def test_overflowing_rayleigh_ritz_step_is_eigen_solve_error(self):
        # the eigenvalue scale of this disk's pencil (3.3e-148) is normal,
        # but its Lanczos vectors overflow in the projection: refused with
        # no numpy warning (which the test configuration makes an error)
        geom = DiskGeometry(1.0, 0.1)
        mesh = mesh_disk(geom, 0.125)
        assert assemble_disk(geom, Material(1e-300, 1e-150, 0.25), mesh)._congruence is None
        with pytest.raises(EigenSolveError, match="Rayleigh-Ritz projection is not finite"):
            fem.solve_disk(geom, Material(1e-300, 1e-150, 0.25), mesh, 2)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_mass_not_pd_rejected(self, bad):
        n = 2 * fem._SPARSE_MIN_DOF
        diag = np.ones(n)
        diag[n // 2] = bad
        with pytest.raises(InvariantError):
            AssembledSystem(np.eye(n), np.diag(diag),
                            dof_map=tuple((i, "w") for i in range(n)), constraints=())

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_stiffness_rejected(self, bad):
        n = 2 * fem._SPARSE_MIN_DOF
        k = np.eye(n)
        k[1, 2] = k[2, 1] = bad
        with pytest.raises(InvariantError, match="non-finite"):
            AssembledSystem(k, np.eye(n),
                            dof_map=tuple((i, "w") for i in range(n)), constraints=())


def _dense_scatter(dofs, blocks, ndof):
    """Dense scatter assembly as it was before K and M were stored sparse
    (reference): element matrices summed in element order by bincount."""
    flat = dofs[:, :, None] * ndof + dofs[:, None, :]
    return np.bincount(flat.ravel(), weights=blocks.ravel(),
                       minlength=ndof * ndof).reshape(ndof, ndof)


def _triplet_scatter(dofs, blocks, ndof):
    """Assembly as it was before the scatter plan (reference): scipy's CSC
    from the triplets, sorted by one np.unique of the keys col*ndof + row,
    without exact zeros."""
    keys, slot = np.unique((dofs[:, None, :] * ndof + dofs[:, :, None]).ravel(),
                           return_inverse=True)
    data = np.bincount(slot, weights=blocks.ravel(), minlength=len(keys))
    nonzero = data != 0
    cols, rows = np.divmod(keys[nonzero], ndof)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ndof))))
    return csc_array((data[nonzero], rows, indptr), shape=(ndof, ndof))


def _scipy_csc(a):
    """scipy's csc_array of the stored matrix a (reference)."""
    return csc_array((a.data, a.indices, a.indptr), shape=a.shape)


def _assert_canonical_csc(a):
    """Read-only CSC of the stored type: sorted, duplicate-free row indices
    in every column; no stored zero."""
    assert type(a) is fem.CSCMatrix
    assert not any(p.flags.writeable for p in (a.data, a.indices, a.indptr))
    later = np.setdiff1d(np.arange(1, len(a.indices)), a.indptr)
    assert np.all(a.indices[later] > a.indices[later - 1])
    assert np.all(a.data != 0)
    assert a.nbytes == a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


def _random_sparse(rng, n, density=0.2):
    """A random n x n matrix with about density of its entries nonzero."""
    return np.where(rng.random((n, n)) < density, rng.normal(size=(n, n)), 0.0)


class TestCSCMatrix:
    """The stored CSC record against scipy's csc_array of the same
    matrix: bitwise the same canonical arrays, dense copy, diagonal and
    products, on both sides of the product threshold."""

    @pytest.mark.parametrize("n", [1, 5, 40, fem._SPARSE_MIN_DOF, fem._SPARSE_MIN_DOF + 1])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        dense = _random_sparse(rng, n)
        dense[0, :] = 0.0   # an empty row and column
        dense[:, 0] = 0.0
        a, ref = fem._stored(dense), csc_array(dense)
        _assert_canonical_csc(a)
        for got, want in ((a.data, ref.data), (a.indices, ref.indices),
                          (a.indptr, ref.indptr)):
            assert np.array_equal(got, want)
        assert a.shape == ref.shape
        assert _bits_equal(a.toarray(), dense)
        assert _bits_equal(a.diagonal(), np.diagonal(dense).copy())
        for x in (rng.normal(size=n), rng.normal(size=(n, 3)), rng.normal(size=(n, 4)).T.copy().T):
            assert _bits_equal(a @ x, ref @ x)

    def test_principal_block_and_transposed_entries(self):
        rng = np.random.default_rng(7)
        for n in (1, 6, 30):
            dense = _random_sparse(rng, n, 0.3)
            a = fem._stored(dense)
            keep = np.flatnonzero(rng.random(n) < 0.6)
            block = fem._principal(a, keep)
            _assert_canonical_csc(block)
            assert _bits_equal(block.toarray(), dense[np.ix_(keep, keep)])
            assert _bits_equal(fem._transposed(a), dense.T[a.indices, fem._columns(a.indptr)])

    def test_scaled_copies_share_one_scipy_template(self, ref_beam, silicon):
        # above the threshold a product goes through scipy's kernel: one
        # csc_array per index arrays, checked once, shared by the copies
        n = 200
        unit = fem._beam_reference(n, True).system
        beams = [assemble_beam(BeamGeometry(length, 0.46e-6, 0.4e-6), silicon, n)
                 for length in (10e-6, 12e-6)]
        x = np.random.default_rng(3).normal(size=(unit._kf.shape[0], 2))
        for beam in beams:
            kf = beam._kf
            assert kf.shape[0] > fem._SPARSE_MIN_DOF
            assert _bits_equal(kf @ x, _scipy_csc(kf) @ x)
            view = kf._scipy()
            assert np.shares_memory(view.data, kf.data)
            assert np.shares_memory(view.indices, unit._kf.indices)
            assert kf._pattern is unit._kf._pattern
        assert beams[0]._kf._scipy() is not beams[1]._kf._scipy()

    @pytest.mark.parametrize("bad", [np.zeros((2, 2, 2)), [[1.0, 2.0], [3.0]], None],
                             ids=["3-D", "ragged", "None"])
    def test_non_matrix_rejected(self, bad):
        with pytest.raises(InvariantError, match="2-D numeric matrices"):
            fem._stored(bad)


class TestSparseStorage:
    """K, M and their free blocks are canonical read-only CSC at every size,
    bitwise the matrices the dense scatter builds."""

    @staticmethod
    def _assemble_recording(monkeypatch, assemble, *args):
        # the element matrices that reach _system, scattered by the
        # reference at the dofs of the mesh's elements
        calls = []
        system = fem._system

        def recording(plan, ke, me, scale, mesh=None, *rest):
            calls.append((ke, scale[:, None, None] * me, mesh))
            return system(plan, ke, me, scale, mesh, *rest)

        monkeypatch.setattr(fem, "_system", recording)
        sys_ = assemble(*args)
        (ke, me, mesh), = calls
        ndof = 2 * len(mesh.nodes)
        dofs = (2 * mesh.elements[:, :, None] + np.arange(2)).reshape(len(mesh.elements), -1)
        return sys_, _dense_scatter(dofs, ke, ndof), _dense_scatter(dofs, me, ndof)

    @staticmethod
    def _check(sys_, k_ref, m_ref):
        free = sys_.free_dofs()

        def bits(a):
            return a.view(np.uint64)

        for stored, block, ref in ((sys_.stiffness, sys_._kf, k_ref),
                                   (sys_.mass, sys_._mf, m_ref)):
            _assert_canonical_csc(stored)
            _assert_canonical_csc(block)
            assert np.array_equal(bits(stored.toarray()), bits(ref))
            if len(free) < len(ref):
                ref = ref[np.ix_(free, free)]
            assert np.array_equal(bits(block.toarray()), bits(ref))
        k, m = sys_.stiffness, sys_.mass
        for a in (k.data, k.indices, k.indptr):
            for b in (m.data, m.indices, m.indptr):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("axis", list(VibrationAxis))
    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 16, 64, 149, 150, 151, 152, 256, 1024])
    def test_beam_bitwise_dense_scatter(self, silicon, axis, clamped, n):
        # a beam is a scaled copy of its unit system (no scatter of its own):
        # the reference scatters the literal element matrices
        geom = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, axis)
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        k_ref, m_ref = (_dense_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), 2 * (n + 1))
                        for e in _literal_beam_elements(geom, silicon, n))
        self._check(assemble_beam(geom, silicon, n, clamped), k_ref, m_ref)

    @pytest.mark.parametrize("divisor", [4.5, 6, 8, 12, 16, 20, 24])
    def test_disk_bitwise_dense_scatter(self, monkeypatch, cold_disk_topologies, silicon,
                                        divisor):
        # the reference disk is the one disk of its (m, nu) whose element
        # matrices are summed: bitwise the dense scatter. A disk is the
        # scalars t*E/(t0*E0) and rho*t*R^2/(rho0*t0*R0^2) times its
        # entries, on its index arrays
        geom, mat = DiskGeometry(5.3e-6, 0.9e-6), Material(131e9, 2210.0, 0.23)
        mesh = mesh_disk(geom, geom.radius / divisor)
        sys_, k_ref, m_ref = self._assemble_recording(monkeypatch, assemble_disk, geom, mat,
                                                      mesh)
        ref = fem._disk_reference(mesh._topology.rings, mat.poisson_ratio).system
        self._check(ref, k_ref, m_ref)
        e0, rho0, r0, t0 = fem._REF_DISK
        t, r = geom.thickness, geom.radius
        k_scale = t * mat.youngs_modulus / (t0 * e0)
        m_scale = mat.density * t * r * r / (rho0 * t0 * r0 * r0)
        self._check(sys_, k_scale * k_ref, m_scale * m_ref)
        for a, b in ((sys_.stiffness, ref.stiffness), (sys_.mass, ref.mass)):
            assert a.indices is b.indices and a.indptr is b.indptr

    def test_solve_switches_at_threshold(self, monkeypatch, cold_unit_caches):
        # 151 clamped elements: 304 dofs, 300 free; 152: 302 free
        calls = []
        for name in ("_dense_modes", "_shift_invert_modes"):
            def recording(kk, mm, k, name=name, solver=getattr(fem, name), **kwargs):
                calls.append((name, kk.shape[0]))
                return solver(kk, mm, k, **kwargs)

            monkeypatch.setattr(fem, name, recording)
        _unit_pairs(151, True, 4)
        assert calls == [("_dense_modes", 300)]
        calls.clear()
        _unit_pairs(152, True, 4)   # then the 2k x 2k Rayleigh-Ritz step
        assert calls == [("_shift_invert_modes", 302), ("_dense_modes", 8)]

    def test_fine_disk_storage_is_small(self, ref_disk, silicon):
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 48))
        assert len(sys_.dof_map) == 14114   # dense: 14114**2 * 8 B = 1.6 GB per matrix
        assert sys_.stiffness.nbytes < 5e6

    def test_caller_dense_matrix_stored_sparse(self):
        n = 2 * fem._SPARSE_MIN_DOF
        k = 2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        sys_ = AssembledSystem(k, np.eye(n), dof_map=tuple((i, "w") for i in range(n)),
                               constraints=())
        _assert_canonical_csc(sys_.stiffness)
        assert np.array_equal(sys_.stiffness.toarray(), k)

    def test_caller_sparse_matrix_canonicalized_not_mutated(self):
        n = 2 * fem._SPARSE_MIN_DOF
        rows = [[j] for j in range(n)]
        rows[0], rows[2] = [0, 0], [2, 1]   # a duplicate; unsorted with a zero
        vals = [[1.0]] * n
        vals[0], vals[2] = [1.0, 1.0], [1.0, 0.0]
        m = csc_array((np.concatenate(vals), np.concatenate(rows),
                       np.cumsum([0] + [len(r) for r in rows])), shape=(n, n))
        before = (m.data.copy(), m.indices.copy(), m.indptr.copy())
        sys_ = AssembledSystem(sparse_eye(n, format="csc"), m,
                               dof_map=tuple((i, "w") for i in range(n)), constraints=())
        _assert_canonical_csc(sys_.mass)
        expected = np.eye(n)
        expected[0, 0] = 2.0
        assert np.array_equal(sys_.mass.toarray(), expected)
        assert all(np.array_equal(a, b) for a, b in zip(before, (m.data, m.indices, m.indptr)))

    def test_caller_small_dense_matrix_stored_csc(self):
        k = np.array([[2.0, -1.0], [-1.0, 2.0]])
        sys_ = AssembledSystem(k, np.eye(2), dof_map=((0, "w"), (1, "w")), constraints=())
        self._check(sys_, k, np.eye(2))
        assert k.flags.writeable


def _loop_translational_amplitude(sys_, vec):
    """Per-dof loop reference for fem._translational_amplitude."""
    comp = {}
    for i, (node, c) in enumerate(sys_.dof_map):
        if c in ("w", "ux", "uy"):
            comp.setdefault(node, []).append(vec[i])
    return np.array([math.hypot(*vals) if len(vals) > 1 else abs(vals[0])
                     for _, vals in sorted(comp.items())])


class TestTranslationalAmplitude:
    def test_beam_equals_loop(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 16)
        for _, v in solve_modes(sys_, 3):
            assert np.array_equal(fem._translational_amplitude(sys_, v),
                                  _loop_translational_amplitude(sys_, v))

    def test_disk_within_one_ulp_of_loop(self, ref_disk, silicon):
        # np.hypot and math.hypot may round differently in the last place
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 6))
        for _, v in solve_modes(sys_, 6):
            got = fem._translational_amplitude(sys_, v)
            ref = _loop_translational_amplitude(sys_, v)
            assert np.all(np.abs(got - ref) <= np.spacing(ref))


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _kappa_eps(b) -> float:
    """8 n eps kappa of the dense definite b, kappa = kappa_2(D B D) with
    D = diag(B)^-1/2 (the diagonal scaling that no Cholesky-reduced solve
    depends on): the relative accuracy of such a dense solve of a pencil
    (a, b), of either kind."""
    d = 1 / np.sqrt(np.diagonal(b))
    b_eig = np.linalg.eigvalsh(d[:, None] * b * d)
    return 8 * len(b) * np.finfo(float).eps * b_eig[-1] / b_eig[0]


def _eigenvalue_tolerance(a, b) -> float:
    """How far two dense solves of the pencil (a, b) may put an eigenvalue
    apart: _kappa_eps(b) times the largest |eigenvalue| (scipy's)."""
    return _kappa_eps(b) * abs(eigh(a, b, eigvals_only=True)).max()


def _assert_matches_eigh(a, b, k, vals, vecs):
    """(vals, vecs) are the k lowest eigenpairs of the dense pencil (a, b)
    as scipy.linalg.eigh (LAPACK dsygvx, the oracle) finds them: each
    eigenvalue within _eigenvalue_tolerance of the oracle's, and the
    vectors B-orthonormal to _kappa_eps(b)."""
    n = len(a)
    ref = eigh(a, b, subset_by_index=(0, k - 1), eigvals_only=True)
    assert vals.shape == (k,) and vecs.shape == (n, k)
    assert np.all(np.diff(vals) >= 0)
    assert np.all(np.abs(vals - ref) <= _eigenvalue_tolerance(a, b))
    assert np.abs(vecs.T @ b @ vecs - np.eye(k)).max() <= _kappa_eps(b)


class TestDenseModes:
    """fem._dense_modes, numpy's Cholesky reduction and eigh, against
    scipy.linalg.eigh as the oracle: the eigenvalues to kappa eps of each
    pencil, and every pair through the gates of solve_modes."""

    @staticmethod
    def _check(kk, mm, residual=True):
        """Every pair of the free-dof pencil (kk, mm), stored, against the
        oracle and through the unchanged backward-error gate and, with
        residual, the residual gate."""
        a, b = kk.toarray(), mm.toarray()
        n = len(a)
        vals, vecs = fem._dense_modes(a, b, n)
        _assert_matches_eigh(a, b, n, vals, vecs)
        elastic, resid, berr = fem._accuracy(kk, mm, vals, vecs, fem._scaled_norms(kk, mm))
        assert np.all(berr <= fem._BACKWARD_BOUND)
        assert not residual or np.all(resid[elastic] <= fem._RESIDUAL_BOUND)
        for k in sorted({1, 2, n // 2} - {0}):   # the lowest k are the first k of all
            sub_vals, sub_vecs = fem._dense_modes(a, b, k)
            assert _bits_equal(sub_vals, vals[:k])
            assert np.abs(sub_vecs - vecs[:, :k]).max() <= _kappa_eps(b) * np.abs(vecs).max()

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 151])
    def test_unit_beam_matches_eigh(self, ref_beam, silicon, n, clamped):
        # 151 free-free: 304 free dofs, solved densely only for k >= n/4.
        # The relative residual is not the same on a diagonally congruent
        # pencil, so it is gated on the beams mapped from the unit one (on
        # the unit pencil itself, the lowest modes of 64 free-free and 151
        # elements are above the bound with dsygvx too)
        unit = fem._beam_reference(n, clamped).system
        self._check(unit._kf, unit._mf, residual=False)
        n_free = len(unit.free_dofs())
        assert len(solve_modes(assemble_beam(ref_beam, silicon, n, clamped), n_free)) == n_free

    @pytest.mark.parametrize("rings", [4, 5, 6])
    def test_reference_disk_matches_eigh(self, silicon, rings):
        ref = fem._disk_reference(rings, silicon.poisson_ratio).system
        assert len(ref.free_dofs()) <= fem._SPARSE_MIN_DOF
        self._check(ref._kf, ref._mf)

    def test_caller_pencils_match_eigh(self, ref_beam, silicon):
        # a beam's own matrices, and random definite pencils, each built
        # with AssembledSystem(...)
        beam = assemble_beam(ref_beam, silicon, 16)
        systems = [AssembledSystem(beam.stiffness.toarray(), beam.mass.toarray(),
                                   beam.dof_map, beam.constraints)]
        rng = np.random.default_rng(24)
        for n in (1, 2, 7, 40):
            g, h = rng.normal(size=(2, n, n))
            m = h @ h.T + n * np.eye(n)
            systems.append(AssembledSystem(g + g.T, m, tuple((i, "w") for i in range(n)), ()))
        for sys_ in systems:
            assert sys_._congruence is None
            self._check(sys_._kf, sys_._mf)

    def test_rayleigh_ritz_step_matches_eigh(self, monkeypatch, caller_disk_r12):
        # the projected pencil is symmetric only to rounding; every step
        # keeps all 2k Ritz pairs
        calls = []
        dense_modes = fem._dense_modes

        def recording(a, b, k):
            out = dense_modes(a, b, k)
            calls.append((a, b, k, out))
            return out

        monkeypatch.setattr(fem, "_dense_modes", recording)
        solve_modes(caller_disk_r12, 9)
        assert 1 <= len(calls) <= 1 + fem._POLISH_REPEATS
        for a, b, k, (vals, vecs) in calls:
            assert a.shape == (18, 18) and k == 18 and not np.array_equal(a, a.T)
            _assert_matches_eigh(a, b, k, vals, vecs)

    def test_lapack_failure_is_eigen_solve_error(self):
        dofs = ((0, "w"), (1, "w"), (2, "w"))
        sys_ = AssembledSystem(np.eye(3), np.eye(3), dof_map=dofs, constraints=())
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            fem._dense_modes(np.eye(3), np.diag([1.0, 1.0, -1.0]), 1)
        object.__setattr__(sys_, "_mf", fem._stored(np.diag([1.0, 1.0, -1.0])))   # unvalidated
        with pytest.raises(EigenSolveError, match="not positive definite"):
            solve_modes(sys_, 1)
        # a normal eigenvalue scale, one eigenvalue that overflows: the
        # reduced pencil is not finite
        sys_ = AssembledSystem(np.diag([1.0, 2.0, 1e308]), np.diag([1.0, 1.0, 1e-10]),
                               dof_map=dofs, constraints=())
        with pytest.raises(EigenSolveError, match="L.-1 A L.-T is not finite"):
            solve_modes(sys_, 2)

    @pytest.mark.parametrize("e_mod", [1e280, 1e290])
    def test_fewer_pairs_than_asked_is_eigen_solve_error(self, e_mod):
        # the eigenvalues of this disk's pencil overflow, so no finite pair
        # is found. Its mass entries (about 1.5e-50) are normal, and its
        # eigenvalue ratio overflows, so it is assembled directly, and its
        # solve refused before the dense solve
        geom = DiskGeometry(3e-6, 1e-6)
        mat = Material(e_mod, 1e-30, 0.25)
        mesh = mesh_disk(geom, 3e-6 / 5)
        with pytest.raises(EigenSolveError, match=r"eigenvalue scale .* must be a normal "
                                                  r"float, got inf"):
            fem.solve_disk(geom, mat, mesh, 2)
        sys_ = assemble_disk(geom, mat, mesh)
        assert sys_._congruence is None
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            fem._dense_modes(sys_._kf.toarray(), sys_._mf.toarray(), 4)


def _loop_normalized(sys_, vals, vecs):
    """solve_modes' normalization and sign convention as a per-mode loop
    (reference)."""
    full = np.zeros((len(vals), len(sys_.dof_map)))
    full[:, sys_.free_dofs()] = vecs.T
    out = []
    for lam, vec in zip(vals, full):
        amp = np.hypot.reduce(np.append(vec, 0.0)[sys_._layout.tnode_dofs], axis=1,
                              initial=0.0)
        peak = float(np.max(amp))
        if peak > 0:
            vec = vec / peak
        tvals = [float(vec[i]) for i in sys_._layout.tdofs]
        top = max(abs(v) for v in tvals)
        if next(v for v in tvals if abs(v) >= (1 - fem._SIGN_RTOL) * top) < 0:
            vec = -vec
        out.append((math.sqrt(max(float(lam), 0.0)) / (2 * math.pi), vec))
    return out


class TestNormalization:
    @staticmethod
    def _check(modes, ref):
        assert len(modes) == len(ref)
        for (f, v), (f_ref, v_ref) in zip(modes, ref):
            assert type(f) is float and repr(f) == repr(f_ref)
            assert _bits_equal(v, v_ref)

    @pytest.mark.parametrize("n,clamped,k", [(16, True, 3), (64, True, 8), (16, False, 6),
                                             (151, True, 300)])
    def test_dense_beam_equals_loop(self, monkeypatch, ref_beam, silicon, n, clamped, k):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        calls = []
        reference_pairs = fem._reference_pairs

        def recording(key, k):
            calls.append(reference_pairs(key, k))
            return calls[-1]

        monkeypatch.setattr(fem, "_reference_pairs", recording)
        modes = solve_modes(sys_, k)
        (mu, psi), = calls
        c = sys_._congruence
        self._check(modes, _loop_normalized(sys_, mu * c.ratio, psi / c.d))

    def test_dense_disk_equals_loop(self, ref_disk, silicon):
        sys_ = assemble_disk(ref_disk, silicon,
                             _caller_copy(mesh_disk(ref_disk, ref_disk.radius / 6)))
        vals, vecs = fem._dense_modes(sys_._kf.toarray(), sys_._mf.toarray(), 9)
        self._check(solve_modes(sys_, 9), _loop_normalized(sys_, vals, vecs))

    def test_sparse_disk_equals_loop(self, monkeypatch, caller_disk_r12):
        calls = []
        shift_invert = fem._shift_invert_modes

        def recording(kk, mm, k, **kwargs):
            calls.append(shift_invert(kk, mm, k, **kwargs))
            return calls[-1]

        monkeypatch.setattr(fem, "_shift_invert_modes", recording)
        modes = solve_modes(caller_disk_r12, 9)
        (vals, vecs), = calls
        self._check(modes, _loop_normalized(caller_disk_r12, vals, vecs))


def _unit_pencil(n, clamped):
    """Free-dof blocks of the unit-beam pencil (K0, M0), summed element by
    element (reference)."""
    ke = np.array([[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]])
    me = np.array([[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]])
    ndof = 2 * (n + 1)
    k0, m0 = np.zeros((ndof, ndof)), np.zeros((ndof, ndof))
    for e in range(n):
        for a in range(4):
            for b in range(4):
                k0[2 * e + a, 2 * e + b] += ke[a, b]
                m0[2 * e + a, 2 * e + b] += me[a, b]
    free = np.arange(2, ndof - 2) if clamped else np.arange(ndof)
    return k0[np.ix_(free, free)], m0[np.ix_(free, free)]


def _jacobi_backward_errors(sys_, modes):
    """Jacobi-scaled normwise backward error of each (frequency, vector):
    ||D(K v - lam M v)|| / ((||DKD||_F + lam ||DMD||_F) ||D^-1 v||) with
    D = diag(K)^-1/2 on the free dofs."""
    free = sys_.free_dofs()
    kk, mm = sys_._kf.toarray(), sys_._mf.toarray()
    d = 1.0 / np.sqrt(np.diag(kk))
    ks, ms = d[:, None] * kk * d, d[:, None] * mm * d
    nk, nm = np.linalg.norm(ks), np.linalg.norm(ms)
    out = []
    for f, v in modes:
        lam, v = (2 * math.pi * f) ** 2, v[free]
        out.append(np.linalg.norm(d * (kk @ v - lam * (mm @ v)))
                   / ((nk + lam * nm) * np.linalg.norm(v / d)))
    return np.array(out)


class TestUnitBeamCache:
    """A beam from assemble_beam is solved through the cached eigenpairs of
    its unit-beam pencil, scaled back exactly."""

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 16, 64, 151])
    def test_unit_pairs_bitwise_equal_to_eigh(self, n, clamped):
        # the cached pairs are the dense solve (numpy's Cholesky reduction
        # and eigh) of the literal unit pencil, at every k the dense path
        # solves (151 free-free: 304 free dofs, so only the k >= n/4
        # fallback)
        k0, m0 = _unit_pencil(n, clamped)
        dense = len(k0) <= fem._SPARSE_MIN_DOF
        for k in sorted(k for k in {1, 4, len(k0) // 2, len(k0)}
                        if 1 <= k <= len(k0) and (dense or 4 * k >= len(k0))):
            fem._reference_pairs.cache_clear()
            vals, vecs = _unit_pairs(n, clamped, k)
            ref_vals, ref_vecs = fem._dense_modes(k0, m0, k)
            assert _bits_equal(vals, ref_vals) and _bits_equal(vecs, ref_vecs)
            assert not vals.flags.writeable and not vecs.flags.writeable

    def test_cache_is_bounded(self):
        assert fem._reference_pairs.cache_info().maxsize == fem._UNIT_CACHE == 8

    @pytest.mark.parametrize("n,clamped,k", [(64, True, 1), (64, True, 4), (16, False, 6),
                                             (200, True, 4), (200, False, 4)])
    def test_cold_and_warm_cache_bitwise(self, silicon, n, clamped, k):
        target = BeamGeometry(12e-6, 0.5e-6, 0.3e-6, VibrationAxis.OUT_OF_PLANE)
        fillers = [BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE),
                   BeamGeometry(37e-6, 2e-6, 1e-6, VibrationAxis.OUT_OF_PLANE), target]
        fem._reference_pairs.cache_clear()
        cold = solve_modes(assemble_beam(target, silicon, n, clamped), k)
        for filler in fillers:
            fem._reference_pairs.cache_clear()
            solve_modes(assemble_beam(filler, silicon, n, clamped), k)
            warm = solve_modes(assemble_beam(target, silicon, n, clamped), k)
            for (f, v), (f_ref, v_ref) in zip(warm, cold):
                assert repr(f) == repr(f_ref) and _bits_equal(v, v_ref)

    @pytest.mark.parametrize("n", [64, 200])
    def test_second_beam_makes_no_lapack_call(self, monkeypatch, ref_beam, silicon, n):
        solve_modes(assemble_beam(ref_beam, silicon, n), 4)

        def refuse(*args, **kwargs):
            raise AssertionError("the unit-beam pairs were solved again")

        monkeypatch.setattr(fem, "_dense_modes", refuse)
        monkeypatch.setattr(fem, "_shift_invert_modes", refuse)
        other = BeamGeometry(25e-6, 1e-6, 0.8e-6, VibrationAxis.OUT_OF_PLANE)
        assert len(solve_modes(assemble_beam(other, silicon, n), 4)) == 4
        with pytest.raises(AssertionError, match="solved again"):
            solve_modes(assemble_beam(other, silicon, n + 1), 4)

    def test_direct_system_is_solved_as_given(self, monkeypatch, ref_beam, silicon):
        beam = assemble_beam(ref_beam, silicon, 16)
        direct = AssembledSystem(beam.stiffness, beam.mass, beam.dof_map, beam.constraints)
        assert direct._congruence is None and beam._congruence is not None

        def refuse(*args):
            raise AssertionError("a direct system went through the unit-beam cache")

        monkeypatch.setattr(fem, "_reference_pairs", refuse)
        vals, vecs = fem._dense_modes(direct._kf.toarray(), direct._mf.toarray(), 3)
        TestNormalization._check(solve_modes(direct, 3), _loop_normalized(direct, vals, vecs))

    def test_beam_and_disk_pairs_kept_apart(self, ref_beam, ref_disk):
        # (8, False) == (8, 0.0): the builder in the key keeps a free
        # 8-element beam and an 8-ring disk at nu = 0 apart in one cache
        mat = Material(169e9, 2330.0, 0.0)
        beam = assemble_beam(ref_beam, mat, 8, clamped=False)
        disk = assemble_disk(ref_disk, mat, mesh_disk(ref_disk, ref_disk.radius / 8))
        assert beam._congruence.key[1:] == disk._congruence.key[1:]
        assert beam._congruence.key != disk._congruence.key
        assert len(solve_modes(beam, 4)) == len(solve_modes(disk, 4)) == 4

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [16, 64, 151, 152, 256, 1024])
    def test_backward_error(self, ref_beam, silicon, n, clamped):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        assert np.max(_jacobi_backward_errors(sys_, solve_modes(sys_, 8))) <= 1e-12


class TestScaledBeam:
    """assemble_beam forms K and M as scaled copies of the cached unit
    system, certified by the unit system's extremes."""

    @pytest.mark.parametrize("n,clamped", [(16, True), (64, False), (151, True),
                                           (152, False), (1024, True)])
    def test_cold_and_warm_beam_bitwise(self, silicon, cold_unit_caches, n, clamped):
        target = BeamGeometry(12e-6, 0.5e-6, 0.3e-6, VibrationAxis.OUT_OF_PLANE)
        filler = BeamGeometry(37e-6, 2e-6, 1e-6, VibrationAxis.IN_PLANE)
        cold = assemble_beam(target, silicon, n, clamped)
        cold_modes = solve_modes(cold, 4)
        solve_modes(assemble_beam(filler, silicon, n, clamped), 4)
        warm = assemble_beam(target, silicon, n, clamped)
        for name in ("stiffness", "mass", "_kf", "_mf"):
            assert _bits_equal(getattr(cold, name).toarray(), getattr(warm, name).toarray())
        for (f, v), (f_ref, v_ref) in zip(solve_modes(warm, 4), cold_modes):
            assert repr(f) == repr(f_ref) and _bits_equal(v, v_ref)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("clamped", [True, False])
    def test_beam_shares_unit_structure(self, ref_beam, silicon, n, clamped):
        beam = assemble_beam(ref_beam, silicon, n, clamped)
        ref = fem._beam_reference(n, clamped)
        unit = ref.system
        for name in ("dof_map", "constraints", "_layout"):
            assert getattr(beam, name) is getattr(unit, name)
        assert (beam._kf is beam.stiffness) == (not clamped)
        assert (unit._kf is unit.stiffness) == (not clamped)
        assert len(ref.parity) == (4 if clamped else 2)
        for name in ("stiffness", "mass", "_kf", "_mf"):
            own, shared = getattr(beam, name), getattr(unit, name)
            _assert_canonical_csc(own)
            assert not np.shares_memory(own.data, shared.data)
            assert np.shares_memory(own.indices, shared.indices)
            assert np.shares_memory(own.indptr, shared.indptr)
        for k, m in ((beam.stiffness, beam.mass), (beam._kf, beam._mf)):
            for a in (k.data, k.indices, k.indptr):
                for b in (m.data, m.indices, m.indptr):
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("margin", [False, True], ids=["unit-gated", "margin-gated"])
    def test_indefinite_element_mass_refused(self, monkeypatch, ref_beam, silicon,
                                             cold_unit_caches, n, margin):
        # unit-gated: an indefinite unit mass. margin-gated: an element mass
        # that nearly annihilates a rigid translation t makes the free-free
        # unit mass definite, with its Jacobi-scaled smallest eigenvalue
        # below _MASS_MARGIN: the unit beam's gate refuses it, so no copy
        # inherits a margin its rounding could use up
        if margin:
            t = np.array([1.0, 0.0, 1.0, 0.0])
            mt = fem._ME0 @ t
            element = fem._ME0 - (1 - 1e-8) * np.outer(mt, mt) / (t @ mt)
            unit = _triplet_scatter(2 * np.arange(n)[:, None] + np.arange(4),
                                    np.broadcast_to(element, (n, 4, 4)), 2 * (n + 1))
            assert fem._positive_definite(fem._stored(unit))
            d = 1 / np.sqrt(unit.diagonal())
            scaled = d[:, None] * unit.toarray() * d
            assert 0 < np.linalg.eigvalsh(scaled).min() < fem._MASS_MARGIN
        else:
            element = fem._ME0 - 200 * np.eye(4, dtype=int)
        monkeypatch.setattr(fem, "_ME0", element)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            assemble_beam(ref_beam, silicon, n, clamped=not margin)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_band_cholesky_agrees_with_dense(self, monkeypatch, sparse):
        # _positive_definite too: its sparse LDL^T test runs on these small
        # matrices only with the threshold at 0
        if sparse:
            monkeypatch.setattr(fem, "_SPARSE_MIN_DOF", 0)
        rng = np.random.default_rng(5)
        verdicts = []
        for _ in range(200):
            n, kd = int(rng.integers(1, 40)), int(rng.integers(0, 4))
            a = np.diag(rng.uniform(0.5, 2.0, n))
            for j in range(1, kd + 1):
                off = rng.normal(0.0, 1.0, n - j)
                a += np.diag(off, j) + np.diag(off, -j)
            if rng.random() < 0.5:   # diagonally dominant: positive definite
                a += np.diag(np.abs(a).sum(axis=1))
            eig = np.linalg.eigvalsh(a)
            if abs(eig).min() < 1e-6 * abs(eig).max():   # too near singular to compare
                continue
            try:
                np.linalg.cholesky(a)
                dense = True
            except np.linalg.LinAlgError:
                dense = False
            assert fem._positive_definite(fem._stored(a)) == dense
            verdicts.append(dense)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_subnormal_entries_refused(self, silicon):
        # entries below the normal range: the scaled copy would not be the
        # exact assembled sum
        geom = BeamGeometry(1e-62, 4e-63, 4e-63, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match="entries must be normal floats"):
            assemble_beam(geom, silicon, 64)


def _copy_gate(sys_):
    """The value gate every scaled copy passed on its own entries before its
    reference's extremes certified it (reference): K and M finite and
    symmetric at _SYM_RTOL, and M positive-definite on the free dofs."""
    for name, a in (("stiffness", sys_.stiffness), ("mass", sys_.mass)):
        largest = abs(a.data).max()
        if not np.isfinite(largest):
            raise InvariantError(f"{name} matrix has non-finite entries")
        a = _scipy_csc(a)
        if abs(a - a.T).max() > fem._SYM_RTOL * largest:
            raise InvariantError(f"{name} matrix not symmetric")
    if not fem._positive_definite(sys_._mf):
        raise InvariantError("mass matrix not positive-definite on free dofs")


def _verdict(call):
    """(error type, message) of call(), or its result."""
    try:
        return call()
    except ResokitError as exc:
        return type(exc), str(exc)


# lengths (or radii), Young's moduli and densities across the float range
_EXTREMES = (1e-300, 1e-150, 1e-50, 1.0, 1e50, 1e150, 1e300)


class TestCopyCertificate:
    """A scaled copy is certified by its reference's extremes, with no gate
    of its own: assemble_beam and assemble_disk accept and refuse exactly
    the copies that the copy's own value gate (_copy_gate) accepts and
    refuses, with equal error types, on beams and disks whose sizes, Young's
    moduli and densities span 1e-300..1e300."""

    @staticmethod
    def _compare(monkeypatch, assemble, tally):
        """Assemble (assemble(): the new verdict) and compare with the gate
        on the copy it was certified as, built by _mapped from the recorded
        scales. tally counts the kinds of verdict."""
        recorded = []
        certified = fem._certified

        def recording(key, k_scale, m_scale, dd=1.0):
            recorded.append((key, k_scale, m_scale, dd))
            return certified(key, k_scale, m_scale, dd)

        monkeypatch.setattr(fem, "_certified", recording)
        new = _verdict(assemble)
        monkeypatch.undo()
        if not recorded:   # refused or solved directly before any copy
            assert isinstance(new, tuple) or new._congruence is None
            tally["before"] += 1
            return
        (key, k_scale, m_scale, dd), = recorded
        beam = key[0] is fem._beam_reference
        with np.errstate(all="ignore"):
            copy = fem._mapped(key, k_scale, m_scale, 1.0, 1.0, None, dd if beam else None)
            smallest = min(abs(copy.stiffness.data).min(), abs(copy.mass.data).min())
            ratio = k_scale / m_scale
        subnormal = not smallest >= np.finfo(float).tiny
        if subnormal and not beam:   # summed directly, as before
            assert isinstance(new, tuple) or new._congruence is None
            if isinstance(new, tuple) and "normal floats" in new[1]:
                # the direct sum's certificate refuses a mass below the
                # normal range
                assert abs(copy.mass.data).min() < np.finfo(float).tiny
                tally["direct, mass not normal"] += 1
            tally["direct"] += 1
            return
        old = _verdict(lambda: _copy_gate(copy))
        if old is None and beam:   # the checks after the gate, as before
            if not np.finfo(float).tiny <= ratio < math.inf:
                old = InvariantError, "beam eigenvalue scale"
            elif subnormal:
                old = InvariantError, "beam matrix entries must be normal floats"
        if old is None:
            assert new._congruence is not None
            _assert_same_system(new, copy)
            tally["accepted"] += 1
            return
        assert isinstance(new, tuple) and new[0] is old[0]
        if new[1].startswith(old[1]):
            tally[old[1]] += 1
        else:
            # a mass with entries below the normal range is no longer
            # factored: it is refused as not normal
            assert beam and abs(copy.mass.data).min() < np.finfo(float).tiny
            assert new[1].startswith("beam matrix entries must be normal floats")
            tally["now normal"] += 1

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 151, 1024])
    def test_beam_verdicts(self, monkeypatch, n, clamped):
        tally = collections.Counter()
        for length, e_mod, rho in itertools.product(_EXTREMES, repeat=3):
            for dims in ((length, 0.46e-6, 0.4e-6), (length, 0.046 * length, 0.04 * length)):
                self._compare(monkeypatch, lambda: assemble_beam(
                    BeamGeometry(*dims, VibrationAxis.IN_PLANE),
                    Material(e_mod, rho, 0.28), n, clamped), tally)
        for kind in ("before", "accepted", "stiffness matrix has non-finite entries",
                     "mass matrix has non-finite entries", "beam eigenvalue scale",
                     "beam matrix entries must be normal floats", "now normal"):
            assert tally[kind] > 0, kind

    @pytest.mark.parametrize("divisor", [4.5, 8, 20])
    def test_disk_verdicts(self, monkeypatch, divisor):
        tally = collections.Counter()
        for radius, e_mod, rho in itertools.product(_EXTREMES, repeat=3):
            for dims in ((radius, 0.1 * radius), (radius, 0.4e-6)):
                def assemble():
                    geom = DiskGeometry(*dims)
                    mesh = mesh_disk(geom, radius / divisor)
                    return assemble_disk(geom, Material(e_mod, rho, 0.25), mesh)
                self._compare(monkeypatch, assemble, tally)
        # a copy's M cannot overflow: the reference's entries are below 1e-15
        for kind in ("before", "accepted", "direct", "direct, mass not normal",
                     "stiffness matrix has non-finite entries"):
            assert tally[kind] > 0, kind

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 64, 1024])
    def test_beam_extremes(self, n, clamped):
        ref = fem._beam_reference(n, clamped)
        for a, parity, (largest, smallest) in zip(fem._blocks(ref.system), ref.parity,
                                                  ref.extremes):
            for c in range(3):
                assert largest[c] == abs(a.data[parity == c]).max()
                assert smallest[c] == abs(a.data[parity == c]).min()

    @pytest.mark.parametrize("divisor", [4.5, 20])
    def test_disk_extremes(self, silicon, divisor):
        ref = fem._disk_reference(max(4, round(divisor)), silicon.poisson_ratio)
        for a, (largest, smallest) in zip((ref.system.stiffness, ref.system.mass),
                                          ref.extremes):
            assert largest.tolist() == [abs(a.data).max()]
            assert smallest.tolist() == [abs(a.data).min()]

    def test_reference_of_several_classes_is_exactly_symmetric(self, monkeypatch,
                                                                cold_unit_caches):
        # K0[w_i, theta_i] - K0[theta_i, w_i] = 1.2e-11 at every node: within
        # _SYM_RTOL of K0's largest entry (24), not of its class's (6, the
        # entries a copy scales by le); one ulp of 6 is refused too
        n = 8
        for skew in (1.2e-11, np.spacing(6.0)):
            asymmetric = fem._KE0.astype(float)
            asymmetric[0, 1] += skew
            monkeypatch.setattr(fem, "_KE0", asymmetric)
            k = _triplet_scatter(2 * np.arange(n)[:, None] + np.arange(4),
                                 np.broadcast_to(asymmetric, (n, 4, 4)), 2 * (n + 1))
            assert 0 < abs(k - k.T).max() <= fem._SYM_RTOL * abs(k).max()
            with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
                fem._beam_reference(n, True)

    def test_one_class_reference_keeps_its_margin(self):
        # the same skew: refused in several classes, accepted in one
        a = np.array([6.0, 24.0, 6.0])
        at = a.copy()
        at[0] = 6.0 + np.spacing(6.0)
        fem._gate(a, at, a, a, np.zeros(3, np.int8))
        with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
            fem._gate(a, at, a, a, np.array([1, 0, 1], np.int8))

    def test_reference_symmetry_keeps_the_copies_margin(self):
        # asymmetric by _SYM_RTOL less one _COPY_ROUNDING: a system solved
        # as it is passes, a reference (one class) is refused
        a = np.ones(3)
        at = a.copy()
        at[1] = 1 - (fem._SYM_RTOL - fem._COPY_ROUNDING)
        fem._gate(a, at, a, a)
        with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
            fem._gate(a, at, a, a, np.zeros(3, np.int8))

    def test_warm_copies_are_not_gated(self, monkeypatch, ref_beam, ref_disk, silicon):
        # no gate, symmetry scan or factorization once the reference is cached
        mesh = mesh_disk(ref_disk, ref_disk.radius / 8)
        expected = [assemble_beam(ref_beam, silicon, n) for n in (16, 400)]
        expected.append(assemble_disk(ref_disk, silicon, mesh))

        def refuse(*args, **kwargs):
            raise AssertionError("a scaled copy was gated")

        for name in ("_gate", "_positive_definite", "_symmetric_lu"):
            monkeypatch.setattr(fem, name, refuse)
        got = [assemble_beam(ref_beam, silicon, n) for n in (16, 400)]
        got.append(assemble_disk(ref_disk, silicon, mesh))
        for a, b in zip(got, expected):
            _assert_same_system(a, b)


class TestBackwardErrorGate:
    def test_perturbed_unit_vector_refused(self, monkeypatch, ref_beam, silicon):
        # at 1024 elements the near-null test exempts every mode from the
        # relative residual gate; the backward-error gate still sees it
        unit_modes = fem._reference_pairs

        def perturbed(key, k):
            mu, psi = unit_modes(key, k)
            psi = psi.copy()
            psi[len(psi) // 2, 1] += 1e-6 * abs(psi[:, 1]).max()
            return mu, psi

        sys_ = assemble_beam(ref_beam, silicon, 1024)
        solve_modes(sys_, 4)
        monkeypatch.setattr(fem, "_reference_pairs", perturbed)
        with pytest.raises(EigenSolveError, match=r"backward error .* exceeds 1e-12 for mode 1"):
            solve_modes(sys_, 4)

    def test_matches_reference(self, ref_beam, ref_disk, silicon, disk_r12):
        # the gated value is the reference backward error (beam and disk)
        recorded = []
        backward_errors = fem._backward_errors

        def recording(*args):
            recorded.append(backward_errors(*args))
            return recorded[-1]

        for sys_ in (assemble_beam(ref_beam, silicon, 64),
                     assemble_beam(ref_beam, silicon, 512, clamped=False), disk_r12):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fem, "_backward_errors", recording)
                modes = solve_modes(sys_, 9)
            assert recorded[-1] == pytest.approx(_jacobi_backward_errors(sys_, modes),
                                                 rel=1e-6, abs=1e-17)
            assert recorded[-1].max() <= fem._BACKWARD_BOUND == 1e-12


# the fem-converge seed-1 disk, which K - sigma*M with sigma at 1e-12 of the
# median diag(K)/diag(M) left above the backward-error bound at R/12
_SEED1_DISK = (DiskGeometry(3.020276102957687e-06, 5.264802234123511e-07),
               Material(138061854646.74408, 2369.4867473874465, 0.2763774618976614))


class TestShiftInvertShift:
    def test_seed1_disk_passes_the_gates(self):
        geom, mat = _SEED1_DISK
        results = disk_modal_fem(geom, mat, mesh_disk(geom, geom.radius / 12))
        assert len(results) == 6 and [r.mode_order for r in results[:2]] == [2, 2]

    @pytest.mark.parametrize("divisor", [8, 12])
    @pytest.mark.parametrize("which", ["reference", "seed-1"])
    def test_k_sweep(self, ref_disk, silicon, which, divisor):
        geom, mat = (ref_disk, silicon) if which == "reference" else _SEED1_DISK
        sys_ = assemble_disk(geom, mat, mesh_disk(geom, geom.radius / divisor))
        assert len(sys_.free_dofs()) > fem._SPARSE_MIN_DOF
        oracle = eigh(sys_.stiffness.toarray(), sys_.mass.toarray(), subset_by_index=(0, 12),
                      eigvals_only=True)
        for k in range(4, 14):   # a quarter of the gate's bound at every k
            modes = solve_modes(sys_, k)
            assert np.max(_jacobi_backward_errors(sys_, modes)) <= 2.5e-13
            lams = [(2 * math.pi * f) ** 2 for f, _ in modes]
            assert lams[3:] == pytest.approx(oracle[3:k], rel=1e-10)


class TestCachedBackwardNorms:
    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [8, 64, 128, 151, 152, 512, 1024])
    def test_equal_to_per_call_norms(self, silicon, n, clamped):
        # ||DKD||_F and ||DMD||_F of every beam are its unit system's
        # (||DMD|| over the eigenvalue scale), whatever the beam's size
        for geom in (BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE),
                     BeamGeometry(37e-6, 2e-6, 1e-6, VibrationAxis.OUT_OF_PLANE),
                     BeamGeometry(1e-3, 1e-6, 3e-6, VibrationAxis.IN_PLANE)):
            sys_ = assemble_beam(geom, silicon, n, clamped)
            cached = sys_._congruence.norms
            per_call = fem._scaled_norms(sys_._kf, sys_._mf)
            assert cached == pytest.approx(per_call, rel=1e-14, abs=0)

    def test_beam_solve_computes_no_norm(self, monkeypatch, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 64)

        def refuse(*args):
            raise AssertionError("the scaled norms were computed per call")

        monkeypatch.setattr(fem, "_scaled_norms", refuse)
        assert len(solve_modes(sys_, 4)) == 4
        direct = AssembledSystem(sys_.stiffness, sys_.mass, sys_.dof_map, sys_.constraints)
        with pytest.raises(AssertionError, match="per call"):
            solve_modes(direct, 4)


class TestSignConvention:
    @pytest.mark.parametrize("direct", [False, True], ids=["assembled", "direct"])
    def test_antisymmetric_mode_sign_is_stable(self, silicon, direct):
        # the two peaks of mode 2 tie to rounding; the first one is positive
        # at every length, also when the beam's own pencil is solved
        shapes = []
        for length in np.linspace(8e-6, 40e-6, 9):
            sys_ = assemble_beam(BeamGeometry(float(length), 0.46e-6, 0.4e-6,
                                              VibrationAxis.IN_PLANE), silicon, 64)
            if direct:
                sys_ = AssembledSystem(sys_.stiffness, sys_.mass, sys_.dof_map,
                                       sys_.constraints)
            shapes.append(solve_modes(sys_, 2)[1][1][0::2])
        for w in shapes:
            assert np.allclose(w, shapes[0], rtol=0, atol=1e-6)
        peaks = np.flatnonzero(np.abs(shapes[0]) > 1 - 1e-6)
        assert len(peaks) == 2 and shapes[0][peaks[0]] > 0 > shapes[0][peaks[1]]


def _setdiff_free(n, constraints):
    """Free dofs as they were built before the boolean mask (reference)."""
    return np.setdiff1d(np.arange(n), constraints)


def _isin_layout(dof_map):
    """fem._translational_layout as it was built from string arrays with
    np.isin (reference)."""
    nodes, comps = (np.asarray(v) for v in zip(*dof_map))
    tdofs = np.flatnonzero(np.isin(comps, ("w", "ux", "uy")))
    order = np.argsort(nodes[tdofs], kind="stable")
    _, start, count = np.unique(nodes[tdofs][order], return_index=True,
                                return_counts=True)
    table = np.full((len(count), int(count.max(initial=1))), len(dof_map))
    table[np.repeat(np.arange(len(count)), count),
          np.arange(len(order)) - np.repeat(start, count)] = tdofs[order]
    return tdofs, table


class TestDofBookkeeping:
    """Free dofs from a boolean mask and the translational layout without
    string arrays equal the setdiff1d / np.isin references."""

    @staticmethod
    def _check(sys_, constraints):
        got = (sys_.free_dofs(), sys_._layout.tdofs, sys_._layout.tnode_dofs)
        ref = (_setdiff_free(len(sys_.dof_map), constraints),) + _isin_layout(sys_.dof_map)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable
        free = ref[0]
        for block, full in ((sys_._kf, sys_.stiffness), (sys_._mf, sys_.mass)):
            assert _bits_equal(block.toarray(), full.toarray()[np.ix_(free, free)])

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 16, 151, 152])
    def test_beam(self, ref_beam, silicon, n, clamped):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        self._check(sys_, sys_.constraints)

    @pytest.mark.parametrize("divisor", [5, 12, 20])
    def test_disk(self, ref_disk, silicon, divisor):
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))
        self._check(sys_, ())

    @pytest.mark.parametrize("seed", range(30))
    def test_caller_systems(self, seed):
        # shuffled nodes, mixed and missing components, unsorted and
        # duplicate constraints
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        nodes = rng.integers(0, max(1, n // 2), n)
        comps = rng.choice(["w", "theta", "ux", "uy"], n)
        dof_map = tuple((int(a), str(c)) for a, c in zip(nodes, comps))
        constraints = [int(i) for i in rng.integers(1, n, int(rng.integers(0, n)))]
        sys_ = AssembledSystem(np.eye(n), np.eye(n), dof_map, constraints)
        assert sys_.constraints == tuple(sorted(constraints))
        self._check(sys_, constraints)

    @pytest.mark.parametrize("dof_map", [
        ((0, "theta"), (1, "theta")),
        ((np.int64(1), np.str_("uy")), (np.int64(0), np.str_("ux")), (1, "ux")),
    ], ids=["no-translational-dof", "numpy-scalars"])
    def test_edge_dof_maps(self, dof_map):
        self._check(AssembledSystem(np.eye(len(dof_map)), np.eye(len(dof_map)),
                                    dof_map, (1, 1)), (1, 1))

    @pytest.mark.parametrize("bad", [2, 7, -1])
    def test_constraint_out_of_range_rejected(self, bad):
        with pytest.raises(InvariantError, match="dof index"):
            AssembledSystem(np.eye(2), np.eye(2), ((0, "w"), (1, "w")), (0, bad))

    def test_unconstrained_blocks_are_the_stored_matrices(self, ref_beam, ref_disk,
                                                          silicon, disk_r12):
        small_disk = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 5))
        free_beam = assemble_beam(ref_beam, silicon, 16, clamped=False)
        for sys_ in (small_disk, free_beam, disk_r12):
            assert sys_._kf is sys_.stiffness and sys_._mf is sys_.mass
        clamped = assemble_beam(ref_beam, silicon, 16)
        assert clamped._kf.shape == (30, 30)
        assert not np.shares_memory(clamped._kf.data, clamped.stiffness.data)


class TestDiskMesh:
    def test_area_convergence(self, ref_disk):
        mesh = mesh_disk(ref_disk, ref_disk.radius / 16)
        area = float(mesh.triangle_areas().sum())
        exact = math.pi * ref_disk.radius**2
        assert abs(area - exact) / exact < 0.005

    def test_refinement_quadruples_elements(self, ref_disk):
        n1 = len(mesh_disk(ref_disk, ref_disk.radius / 8).elements)
        n2 = len(mesh_disk(ref_disk, ref_disk.radius / 16).elements)
        assert 3.5 < n2 / n1 < 4.5

    def test_positive_areas(self, ref_disk):
        mesh = mesh_disk(ref_disk, ref_disk.radius / 12)
        assert np.all(mesh.triangle_areas() > 0)

    def test_boundary_on_circle(self, ref_disk):
        target = ref_disk.radius / 10
        mesh = mesh_disk(ref_disk, target)
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        boundary = r[r > ref_disk.radius - target / 2]
        assert len(boundary) > 0
        assert np.all(np.abs(boundary - ref_disk.radius) < target / 100)

    @pytest.mark.parametrize("bad_factor", [0.0, 0.3, 1.0])
    def test_infeasible_target_edge(self, ref_disk, bad_factor):
        with pytest.raises(MeshError):
            mesh_disk(ref_disk, ref_disk.radius * bad_factor)

    @pytest.mark.parametrize("target_edge", [1e-300, 1e-320])
    def test_ring_limit(self, ref_disk, target_edge):
        # radius/target_edge is 1e295 rings, or inf: refused before any node
        # is built
        with pytest.raises(MeshError, match="rings"):
            mesh_disk(ref_disk, target_edge)

    def test_ring_limit_edge(self, ref_disk, monkeypatch):
        monkeypatch.setattr(fem, "_MAX_RINGS", 8)
        assert len(mesh_disk(ref_disk, ref_disk.radius / 8).nodes) == 1 + 3 * 8 * 9
        with pytest.raises(MeshError, match="more than 8 rings"):
            mesh_disk(ref_disk, ref_disk.radius / 8.5)

    def test_degenerate_elements_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        tris = np.array([[0, 1, 2]])
        with pytest.raises(MeshError):
            Mesh(nodes=nodes, elements=tris, kind="plane_stress_2d")

    @pytest.mark.parametrize("nodes,elements,message", [
        ([[0.0, 0.0], [1.0, 0.0], [0.0, math.nan]], [[0, 1, 2]], "node coordinates"),
        ([[0.0, 0.0], [1.0, 0.0], [0.0, math.inf]], [[0, 1, 2]], "node coordinates"),
        # finite nodes, an area that overflows to inf, or to inf - inf = NaN
        ([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]], [[0, 1, 2]], "triangle areas .* got inf"),
        ([[0.0, 0.0], [1e300, 1e300], [1e300, 2e300]], [[0, 1, 2]],
         "triangle areas .* got nan"),
        ([[0.0], [math.nan]], [[0, 1]], "node coordinates"),
        ([[-1.5e308], [1.5e308]], [[0, 1]], "beam element lengths .* got inf"),
        ([[0.0], [0.0]], [[0, 1]], "beam element lengths .* got 0.0")])
    def test_overflowing_elements_rejected(self, nodes, elements, message):
        # refused with no numpy warning (an error under the suite's filter)
        kind = "beam_1d" if len(nodes[0]) == 1 else "plane_stress_2d"
        with pytest.raises(MeshError, match=message):
            Mesh(nodes=np.array(nodes), elements=np.array(elements), kind=kind)

    def test_index_out_of_range_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError):
            Mesh(nodes=nodes, elements=np.array([[0, 1, 7]]), kind="plane_stress_2d")


def _loop_mesh_disk(geom, target_edge):
    """(nodes, elements) of mesh_disk as it was built before the topology
    cache, node by node (reference)."""
    r_out = geom.radius
    m = max(4, round(r_out / target_edge))
    nodes, rings = [(0.0, 0.0)], [[0]]
    for i in range(1, m + 1):
        r = r_out * i / m
        cnt = 6 * i
        ring = []
        for j in range(cnt):
            th = 2 * math.pi * j / cnt
            ring.append(len(nodes))
            nodes.append((r * math.cos(th), r * math.sin(th)))
        rings.append(ring)
    tris = []
    for i in range(m):
        inner, outer = rings[i], rings[i + 1]
        ni, no = len(inner), len(outer)
        if ni == 1:
            tris += [(0, outer[j], outer[(j + 1) % no]) for j in range(no)]
            continue
        a = b = 0
        while a < ni or b < no:
            if (b >= no) or (a < ni and (a + 1) * no <= (b + 1) * ni):
                tris.append((inner[a % ni], outer[b % no], inner[(a + 1) % ni]))
                a += 1
            else:
                tris.append((inner[a % ni], outer[b % no], outer[(b + 1) % no]))
                b += 1
    return np.array(nodes), np.array(tris)


def _loop_disk_topology(m):
    """(ring, unit, elements) of fem._disk_topology(m) as it was built by
    per-node and two-pointer loops (reference)."""
    ring, unit = [0], [(1.0, 0.0)]
    rings = [[0]]
    for i in range(1, m + 1):
        cnt = 6 * i
        rings.append(list(range(len(ring), len(ring) + cnt)))
        for j in range(cnt):
            th = 2 * math.pi * j / cnt
            ring.append(i)
            unit.append((math.cos(th), math.sin(th)))
    tris = []
    for i in range(m):
        inner, outer = rings[i], rings[i + 1]
        ni, no = len(inner), len(outer)
        if ni == 1:
            tris += [(inner[0], outer[j], outer[(j + 1) % no]) for j in range(no)]
            continue
        a = b = 0
        while a < ni or b < no:
            if (b >= no) or (a < ni and (a + 1) * no <= (b + 1) * ni):
                tris.append((inner[a % ni], outer[b % no], inner[(a + 1) % ni]))
                a += 1
            else:
                tris.append((inner[a % ni], outer[b % no], outer[(b + 1) % no]))
                b += 1
    return np.array(ring, dtype=float), np.array(unit), np.array(tris, dtype=int)


def _stored_equal(a, b):
    """CSC data, indices and indptr bitwise equal with their dtypes."""
    return _bits_equal(a.data, b.data) and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indices, b.indices), (a.indptr, b.indptr)))


def _assert_same_system(sys_a, sys_b):
    """Two systems bitwise equal: K, M, free blocks and dof tables."""
    for name in ("stiffness", "mass", "_kf", "_mf"):
        assert _stored_equal(getattr(sys_a, name), getattr(sys_b, name))
    assert sys_a.dof_map == sys_b.dof_map and sys_a.constraints == sys_b.constraints
    for name in ("free", "tdofs", "tnode_dofs"):
        a, b = getattr(sys_a._layout, name), getattr(sys_b._layout, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_disk(got, ref):
    """Two solve_disk results bitwise equal: K, M, free blocks, dof tables,
    mode vectors and ModeResults."""
    (sys_a, modes_a, res_a), (sys_b, modes_b, res_b) = got, ref
    _assert_same_system(sys_a, sys_b)
    assert [repr(f) for f, _ in modes_a] == [repr(f) for f, _ in modes_b]
    assert all(_bits_equal(va, vb) for (_, va), (_, vb) in zip(modes_a, modes_b))
    assert len(res_a) == len(res_b)
    for a, b in zip(res_a, res_b):
        assert repr(a.to_dict()) == repr(b.to_dict())   # repr of every float


def _assert_close_results(got, ref, m_eff_rtol=1e-9):
    """Two lists of disk ModeResults equal to rounding: frequencies within
    1e-12, the same angular orders, effective masses within m_eff_rtol."""
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.frequency == pytest.approx(b.frequency, rel=1e-12, abs=0)
        assert a.mode_order == b.mode_order
        assert a.effective_mass == pytest.approx(b.effective_mass, rel=m_eff_rtol, abs=0)


@pytest.fixture
def cold_disk_topologies():
    """Empty disk-topology and reference-disk caches before and after the
    test, so that it builds (and leaves behind) no cached reference."""
    caches = (fem._disk_topology, fem._disk_reference, fem._reference_modes,
              fem._reference_pairs)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


class TestDiskTopology:
    """mesh_disk builds each ring count's topology once (_disk_topology):
    connectivity, per-node ring index and cos/sin and the scatter plan.
    Meshes, systems and modes are bitwise those of the uncached
    construction."""

    @pytest.mark.parametrize("divisor", [4.4, 5, 7, 8, 12, 20])
    def test_mesh_bitwise_equal_to_loop(self, ref_disk, cold_disk_topologies, divisor):
        for radius in (ref_disk.radius, 3.020276102957687e-06, 17.3e-6):
            geom = DiskGeometry(radius, 0.4e-6)
            mesh = mesh_disk(geom, radius / divisor)
            nodes, tris = _loop_mesh_disk(geom, radius / divisor)
            assert _bits_equal(mesh.nodes, nodes) and mesh.nodes.flags.c_contiguous
            assert mesh.elements.dtype == tris.dtype and np.array_equal(mesh.elements, tris)
            assert mesh._topology is fem._disk_topology(max(4, round(divisor)))

    @pytest.mark.parametrize("divisor", [5, 8, 12])
    def test_cold_warm_and_uncached_bitwise(self, ref_disk, silicon, cold_disk_topologies,
                                            divisor):
        filler = DiskGeometry(7.1e-6, 1.3e-6)
        cold = fem.solve_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))
        fem.solve_disk(filler, silicon, mesh_disk(filler, filler.radius / divisor))
        mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
        _assert_same_disk(fem.solve_disk(ref_disk, silicon, mesh), cold)
        # the same mesh built by a caller: no topology, its own plan, its
        # element matrices summed and a direct solve. ref_disk in silicon
        # is the reference disk, so its K and M are bitwise the reference's,
        # and the mapped disk's are 1.0 times them; the modes equal to
        # rounding
        sys_, _, results = fem.solve_disk(ref_disk, silicon, _caller_copy(mesh))
        ref = fem._disk_reference(mesh._topology.rings, silicon.poisson_ratio).system
        _assert_same_system(sys_, ref)
        for a, b in ((cold[0].stiffness, ref.stiffness), (cold[0].mass, ref.mass)):
            assert _bits_equal(a.data, b.data) and a.indices is b.indices
        _assert_close_results(results, cold[2])

    @pytest.mark.parametrize("divisor", [5, 12])
    def test_permuted_caller_mesh(self, monkeypatch, ref_disk, silicon, divisor):
        # elements shuffled and their vertices rotated (still CCW): K and M
        # are the reference scatter of the caller's elements and the modes
        # those of the structured mesh
        mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
        rng = np.random.default_rng(divisor)
        perm = rng.permutation(len(mesh.elements))
        shift = rng.integers(0, 3, len(perm))
        elements = mesh.elements[perm][np.arange(len(perm))[:, None],
                                      (np.arange(3) + shift[:, None]) % 3]
        caller = Mesh(nodes=mesh.nodes, elements=elements, kind="plane_stress_2d")
        sys_, k_ref, m_ref = TestSparseStorage._assemble_recording(
            monkeypatch, assemble_disk, ref_disk, silicon, caller)
        TestSparseStorage._check(sys_, k_ref, m_ref)
        base = assemble_disk(ref_disk, silicon, mesh)
        for a, b in ((sys_.stiffness, base.stiffness), (sys_.mass, base.mass)):
            a, b = a.toarray(), b.toarray()
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * abs(b).max())
        freqs = [f for f, _ in solve_modes(sys_, 9)[3:]]
        assert freqs == pytest.approx([f for f, _ in solve_modes(base, 9)[3:]], rel=1e-9)

    def test_rim_order_is_the_computed_one(self, monkeypatch):
        # the rim order _rim_radial reads on a mesh_disk mesh, at every
        # radius mesh_disk accepts, is the unit-radius mesh's: its angles do
        # not change with the radius
        rim_nodes, used, accepted = fem._rim_nodes, [], 0
        monkeypatch.setattr(fem, "_rim_nodes", lambda nodes: used.append(rim_nodes(nodes))
                            or used[-1])
        for divisor in (4.4, 6, 9, 16, 31):
            for radius in _EXTREMES:
                try:
                    mesh = mesh_disk(DiskGeometry(radius, 0.1 * radius), radius / divisor)
                except MeshError:   # its triangle areas leave the float range
                    continue
                top = mesh._topology
                unit = rim_nodes((top.ring / top.rings)[:, None] * top.unit)
                fem._rim_radial(mesh, np.zeros(2 * len(mesh.nodes)))
                assert np.array_equal(used.pop(), unit)
                accepted += 1
        assert accepted == 25   # 5 ring counts; all radii but 1e-300 m and 1e300 m

    @pytest.mark.parametrize("divisor", [5, 12])
    def test_symmetry_gate_reads_the_stored_matrices(self, monkeypatch, cold_disk_topologies,
                                                     silicon, divisor):
        # the gate's max|A - A^T| and max|A|, on the reference disk's slot
        # sums, are those of the stored K and M; the scaled disk is not
        # gated again
        recorded = []
        gate = fem._gate

        def recording(k, kt, m, mt, parity=None):
            recorded.append((abs(k - kt).max(), abs(k).max(), abs(m - mt).max(), abs(m).max()))
            return gate(k, kt, m, mt, parity)

        monkeypatch.setattr(fem, "_gate", recording)
        geom = DiskGeometry(5.3e-6, 0.9e-6)
        sys_ = assemble_disk(geom, silicon, mesh_disk(geom, geom.radius / divisor))
        ref = fem._disk_reference(sys_.mesh._topology.rings, silicon.poisson_ratio).system
        numbers = []
        for a in (ref.stiffness.toarray(), ref.mass.toarray()):
            numbers += [abs(a - a.T).max(), abs(a).max()]
        assert sys_._congruence is not None
        assert recorded == [tuple(numbers)] and numbers[0] > 0

    @pytest.mark.parametrize("divisor", [5, 8])
    def test_asymmetric_element_matrix_refused(self, monkeypatch, cold_disk_topologies,
                                               ref_disk, silicon, divisor):
        # the element matrices reach the cold reference disk's build
        template = fem._ME_TRI.copy()
        template[0, 2] *= 1.5
        monkeypatch.setattr(fem, "_ME_TRI", template)
        with pytest.raises(InvariantError, match="mass matrix not symmetric"):
            assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))

    @pytest.mark.parametrize("n", [8, 200])
    def test_asymmetric_unit_element_refused(self, monkeypatch, cold_unit_caches, n):
        asymmetric = fem._KE0.copy()
        asymmetric[0, 1] += 1
        monkeypatch.setattr(fem, "_KE0", asymmetric)
        with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
            fem._beam_reference(n, True)

    def test_cache_is_bounded(self):
        assert fem._disk_topology.cache_info().maxsize == fem._DISK_TOPOLOGY_CACHE == 8

    def test_topology_equal_to_loop(self):
        for m in range(1, 41):
            top = fem._disk_topology.__wrapped__(m)   # uncached: no eviction
            ring, unit, elements = _loop_disk_topology(m)
            assert _bits_equal(top.ring, ring) and _bits_equal(top.unit, unit)
            assert top.elements.dtype == elements.dtype
            assert np.array_equal(top.elements, elements)

    def test_topology_is_read_only(self, ref_disk):
        top = mesh_disk(ref_disk, ref_disk.radius / 8)._topology
        arrays = [top.ring, top.unit, top.elements, top.plan.slot, top.plan.rows,
                  top.plan.indptr, top.plan.transpose, top.plan.layout.free]
        assert all(not a.flags.writeable for a in arrays)
        assert all(a.dtype == np.int32 for a in arrays[3:7])


def _search_transposes(a):
    """For each stored entry of the canonical CSC matrix a, the position in
    a.data of its transpose's entry, or len(a.data) where that entry is
    not stored (an exact 0), int32: a binary search of each entry's
    transpose key among the sorted (column, row) keys, independent of the
    plan (reference)."""
    n = a.shape[0]
    rows, cols = a.indices.astype(np.int64), np.repeat(np.arange(n), np.diff(a.indptr))
    keys = np.append(cols * n + rows, -1)   # ascending, then a key no entry has
    wanted = rows * n + cols
    pos = np.searchsorted(keys[:-1], wanted)
    return np.where(keys[pos] == wanted, pos, len(wanted)).astype(np.int32)


class TestTransposePositions:
    """The transposes a reference's symmetry gate reads off the plan (the
    slot sums at _Plan.transpose) are, at each stored entry, the stored
    transposes that the binary search finds: an exact 0 where a transpose
    cancelled."""

    @staticmethod
    def _check(monkeypatch, build, *args):
        """Build a reference uncached (no eviction), recording its gate's
        arguments; returns the reference and how many of K's transposes
        cancelled."""
        recorded = []
        gate = fem._gate

        def recording(k, kt, m, mt, parity=None):
            recorded.append(((k, kt), (m, mt)))
            return gate(k, kt, m, mt, parity)

        monkeypatch.setattr(fem, "_gate", recording)
        ref = build.__wrapped__(*args)
        monkeypatch.undo()
        (sums,) = recorded
        cancelled = []
        for a, (slots, transposes) in zip((ref.system.stiffness, ref.system.mass), sums):
            kept = slots != 0
            assert np.array_equal(slots[kept], a.data)
            position = _search_transposes(a)
            assert _bits_equal(transposes[kept], np.append(a.data, 0.0)[position])
            cancelled.append(int(np.sum(position == len(a.data))))
        return ref, cancelled

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 64, 151, 152, 1024])
    def test_unit_beam(self, monkeypatch, n, clamped):
        self._check(monkeypatch, fem._beam_reference, n, clamped)

    @pytest.mark.parametrize("nu", [0.2, 0.25, 0.3])
    @pytest.mark.parametrize("divisor", [4.5, 5, 7, 8, 12, 16, 20])
    def test_reference_disk(self, monkeypatch, divisor, nu):
        self._check(monkeypatch, fem._disk_reference, max(4, round(divisor)), nu)

    def test_cancelled_transpose_is_the_appended_zero(self, monkeypatch):
        # at R/20, nu = 0.25, 11 transposes of K's entries cancel to an
        # exact 0, which is not stored: the gate reads the 0 of its slot
        _, cancelled = self._check(monkeypatch, fem._disk_reference, 20, 0.25)
        assert cancelled == [11, 0]


def _component_matrices(seed):
    """Random symmetric matrices of even size: (matrix, decoupled) with
    decoupled = even and odd dofs uncoupled with equal blocks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    ms = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3)
    ms = ms + ms.T + np.diag(rng.uniform(0.5, 2.0, n))
    if rng.random() < 0.5:   # diagonally dominant: positive definite
        ms += np.diag(np.abs(ms).sum(axis=1))
    a = np.kron(ms, np.eye(2))
    kind = rng.integers(0, 3)
    if kind == 1:   # an even-odd coupling
        i, j = 2 * rng.integers(0, n), 2 * rng.integers(0, n) + 1
        a[i, j] = a[j, i] = rng.normal()
    elif kind == 2:   # uncoupled, but the odd block differs
        i = 2 * rng.integers(0, n) + 1
        a[i, i] *= rng.choice([-1.0, 0.5, 3.0])
    return a, kind == 0


class TestComponentMassGate:
    """_positive_definite, the mass test of a system built with
    AssembledSystem(...) from a caller's matrices, agrees with the
    eigenvalues on any symmetric matrix, whether its even and odd dofs are
    uncoupled with equal blocks (as a disk's mass) or not."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_agrees_with_full_factorization(self, monkeypatch, sparse):
        # sparse: the threshold at 0, so the LDL^T test runs on these small
        # matrices
        if sparse:
            monkeypatch.setattr(fem, "_SPARSE_MIN_DOF", 0)
        verdicts = {True: [], False: []}
        for seed in range(400):
            a, decoupled = _component_matrices(seed)
            eig = np.linalg.eigvalsh(a)
            if abs(eig).min() < 1e-6 * abs(eig).max():   # too near singular to compare
                continue
            assert fem._positive_definite(fem._stored(a)) == (eig.min() > 0)
            verdicts[decoupled].append(eig.min() > 0)
        for found in verdicts.values():   # PD and indefinite, decoupled and coupled
            assert 20 < sum(found) < len(found) - 20

    def test_disk_mass_band_verdict_agrees(self, ref_disk, silicon):
        # diagonal entries of a disk's mass scaled down: _positive_definite
        # and the eigenvalues agree, definite and not
        mesh = mesh_disk(ref_disk, ref_disk.radius / 6)
        mass = assemble_disk(ref_disk, silicon, mesh).mass.toarray()
        rng = np.random.default_rng(6)
        verdicts = []
        for _ in range(60):
            shifted = mass.copy()
            for node in rng.choice(len(mesh.nodes), 3, replace=False):
                dofs = [2 * node, 2 * node + 1]
                shifted[dofs, dofs] *= rng.uniform(-0.2, 0.6)
            eig = np.linalg.eigvalsh(shifted)
            if abs(eig).min() < 1e-6 * abs(eig).max():   # too near singular to compare
                continue
            verdict = fem._positive_definite(fem._stored(shifted))
            assert verdict == (eig.min() > 0)
            verdicts.append(verdict)
        assert 10 < sum(verdicts) < len(verdicts) - 10

    @pytest.mark.parametrize("divisor", [5, 8])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_indefinite_mass_template_refused(self, monkeypatch, cold_disk_topologies,
                                              ref_disk, silicon, divisor, coupled):
        # the template reaches the cold reference disk's build
        template = fem._ME_TRI.copy()
        template[[0, 1], [2, 3]] = template[[2, 3], [0, 1]] = 3.0   # |offdiag| > diag
        if coupled:
            template[0, 1] = template[1, 0] = 0.01
        monkeypatch.setattr(fem, "_ME_TRI", template)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))


def _scaled_least_eigenvalue(a) -> float:
    """The smallest eigenvalue of the Jacobi-scaled dense symmetric a."""
    d = 1 / np.sqrt(np.diagonal(a))
    return float(np.linalg.eigvalsh(d[:, None] * a * d).min())


class TestMassCertificate:
    """_system certifies an assembled mass positive-definite by its element
    template (Wathen's bound), with no factorization."""

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 16, 151, 512])
    def test_unit_beam_mass_above_the_template(self, n, clamped):
        mf = fem._beam_reference(n, clamped).system._mf.toarray()
        assert _scaled_least_eigenvalue(mf) >= _scaled_least_eigenvalue(fem._ME0) - 1e-12

    @pytest.mark.parametrize("divisor", [4.5, 6, 8, 12])
    def test_reference_disk_mass_above_the_template(self, silicon, divisor):
        ref = fem._disk_reference(max(4, round(divisor)), silicon.poisson_ratio)
        assert (_scaled_least_eigenvalue(ref.system._mf.toarray())
                >= _scaled_least_eigenvalue(fem._ME_TRI) - 1e-12)

    def test_node_in_no_element_refused(self, ref_disk, silicon):
        mesh = mesh_disk(ref_disk, ref_disk.radius / 5)
        stray = Mesh(nodes=np.vstack([mesh.nodes, [[2 * ref_disk.radius, 0.0]]]),
                     elements=mesh.elements, kind="plane_stress_2d")
        with pytest.raises(InvariantError, match="mass matrix not positive-definite on free dofs"):
            assemble_disk(ref_disk, silicon, stray)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
    def test_element_scale_must_be_finite_and_positive(self, ref_disk, bad):
        # one element's mass scaled by 0, negated or infinite
        mesh = _caller_copy(mesh_disk(ref_disk, ref_disk.radius / 5))
        plan = fem._plan(mesh.elements, ("ux", "uy"), len(mesh.nodes))
        scale = mesh.triangle_areas()
        ke = np.broadcast_to(np.eye(6), (len(scale), 6, 6))
        fem._system(plan, ke, fem._ME_TRI, scale, mesh)
        scale = scale.copy()
        scale[7] = bad
        with pytest.raises(InvariantError, match="mass matrix (not positive-definite on "
                                                 "free dofs|has non-finite entries)"):
            fem._system(plan, ke, fem._ME_TRI, scale, mesh)

    def test_no_factorization_at_assembly(self, monkeypatch, cold_unit_caches,
                                          cold_disk_topologies, ref_beam, ref_disk, silicon):
        def refuse(*args, **kwargs):
            raise AssertionError("a mass matrix was factored")

        for name in ("_positive_definite", "_symmetric_lu"):
            monkeypatch.setattr(fem, name, refuse)
        for n in (64, 1024):
            assert assemble_beam(ref_beam, silicon, n)._congruence is not None
        for divisor in (8, 20):
            mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
            assert assemble_disk(ref_disk, silicon, mesh)._congruence is not None
            assert assemble_disk(ref_disk, silicon, _caller_copy(mesh))._congruence is None


@pytest.fixture(scope="module")
def disk_mesh(ref_disk):
    return mesh_disk(ref_disk, ref_disk.radius / 8)


@pytest.fixture(scope="module")
def modal(ref_disk, silicon):
    mesh = mesh_disk(ref_disk, ref_disk.radius / 16)
    return disk_modal_fem(ref_disk, silicon, mesh, n_modes=4)


class TestAngularOrder:
    def _radial_field(self, mesh, func):
        vec = np.zeros(2 * len(mesh.nodes))
        r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
        r_out = r.max()
        for i in np.where(r >= r_out * (1 - 1e-9))[0]:
            theta = math.atan2(mesh.nodes[i, 1], mesh.nodes[i, 0])
            u = func(theta)
            vec[2 * i] = u * math.cos(theta)
            vec[2 * i + 1] = u * math.sin(theta)
        return vec

    def test_cos2(self, disk_mesh):
        vec = self._radial_field(disk_mesh, lambda t: math.cos(2 * t))
        assert identify_angular_order(vec, disk_mesh) == 2

    def test_cos3(self, disk_mesh):
        vec = self._radial_field(disk_mesh, lambda t: math.cos(3 * t))
        assert identify_angular_order(vec, disk_mesh) == 3

    def test_translation_is_order_1(self, disk_mesh):
        vec = np.zeros(2 * len(disk_mesh.nodes))
        vec[0::2] = 1.0  # rigid x translation
        assert identify_angular_order(vec, disk_mesh) == 1

    def test_ambiguous(self, disk_mesh):
        vec = self._radial_field(disk_mesh,
                                 lambda t: math.cos(2 * t) + math.cos(3 * t))
        with pytest.raises(AmbiguousAngularOrderError) as exc:
            identify_angular_order(vec, disk_mesh)
        assert set(exc.value.candidates) == {2, 3}


def _loop_angular_order(mode_vector, mesh):
    """identify_angular_order with a per-harmonic loop (reference):
    (top, second, their relative energy gap)."""
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    bnd = np.where(r >= r.max() * (1 - 1e-9))[0]
    theta = np.arctan2(mesh.nodes[bnd, 1], mesh.nodes[bnd, 0])
    order = np.argsort(theta)
    bnd, theta = bnd[order], theta[order]
    u_rad = (mode_vector[2 * bnd] * mesh.nodes[bnd, 0]
             + mode_vector[2 * bnd + 1] * mesh.nodes[bnd, 1]) / r[bnd]
    nb = len(bnd)
    energies = []
    for n in range(0, max(1, (nb - 1) // 2) + 1):
        scale = 1.0 / nb if n == 0 else 2.0 / nb
        a = np.sum(u_rad * np.cos(n * theta)) * scale
        b = np.sum(u_rad * np.sin(n * theta)) * scale
        energies.append(a * a + b * b)
    top, second = np.argsort(energies)[::-1][:2]
    return top, second, (energies[top] - energies[second]) / energies[top]


class TestHarmonicEnergies:
    @staticmethod
    def _order_as_loop_reference(vec, mesh):
        """identify_angular_order's answer, checked against the loop; 0 when
        ambiguous, as disk_modal_fem labels it."""
        top, second, gap = _loop_angular_order(vec, mesh)
        if gap < 0.1:
            with pytest.raises(AmbiguousAngularOrderError) as exc:
                identify_angular_order(vec, mesh)
            assert set(exc.value.candidates) == {top, second}
            return 0
        assert identify_angular_order(vec, mesh) == top
        return top

    @pytest.mark.parametrize("divisor", [8, 12])
    def test_matches_loop_reference(self, ref_disk, silicon, divisor):
        mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
        _, modes, results = fem.solve_disk(ref_disk, silicon, mesh, n_modes=9)
        for (_, vec), result in zip(modes, results):
            assert self._order_as_loop_reference(vec, mesh) == result.mode_order
        # mixtures of an order-2 and an order-3 mode; c = 1 is ambiguous
        wg, tri = modes[0][1], modes[5][1]
        orders = [self._order_as_loop_reference(wg + c * tri, mesh)
                  for c in (0.5, 1.0, 2.0)]
        assert orders == [2, 0, 3]


class TestDiskModal:
    def test_vectors_too_large_to_gate(self, silicon):
        # a 4e-307 m thick disk has mass entries near the float floor, so the
        # M-normalized vectors' norms overflow: the residual gate cannot be
        # evaluated, and the solve fails rather than skip it. assemble_disk
        # refuses that mass as not normal, so its K and M (the 0.4 um
        # disk's times 1e-300, up to rounding) are a caller's matrices
        geom = DiskGeometry(3e-6, 0.4e-6)
        sys_ = assemble_disk(geom, silicon, mesh_disk(geom, 0.6e-6))
        thin = AssembledSystem(1e-300 * sys_.stiffness.toarray(), 1e-300 * sys_.mass.toarray(),
                               sys_.dof_map,
                               sys_.constraints, sys_.mesh)
        assert abs(thin.mass.data).max() < np.finfo(float).tiny
        with pytest.raises(EigenSolveError, match="overflow"):
            solve_modes(thin, 5)

    def test_wineglass_within_5pct_of_analytic(self, modal, ref_disk, silicon):
        f_ref = disk_wineglass_frequency(ref_disk, silicon, 2)
        wg = [m for m in modal if m.mode_order == 2]
        assert wg, "no order-2 mode identified"
        assert abs(wg[0].frequency - f_ref) / f_ref < 0.05

    def test_wineglass_pair_degenerate(self, modal):
        wg = [m.frequency for m in modal if m.mode_order == 2]
        assert len(wg) >= 2
        assert abs(wg[1] - wg[0]) / wg[0] < 0.01

    def test_mode_results_valid(self, modal, ref_disk, silicon):
        m_total = silicon.density * math.pi * ref_disk.radius**2 * ref_disk.thickness
        for m in modal:
            assert m.effective_mass > 0
            assert max(abs(v) for v in m.mode_shape) == pytest.approx(1.0, abs=1e-9)
        wg = [m for m in modal if m.mode_order == 2][0]
        assert wg.effective_mass < m_total

    def test_effective_mass_matches_analytic_integral(self, modal, ref_disk, silicon):
        from resokit.analytic import disk_effective_params
        m_eff_analytic, _ = disk_effective_params(ref_disk, silicon, 2)
        wg = [m for m in modal if m.mode_order == 2][0]
        assert wg.effective_mass == pytest.approx(m_eff_analytic, rel=0.02)

    def test_refinement_stability(self, ref_disk, silicon):
        freqs = []
        for divisor in (12, 16):
            mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
            modal = disk_modal_fem(ref_disk, silicon, mesh, n_modes=2)
            freqs.append([m for m in modal if m.mode_order == 2][0].frequency)
        assert abs(freqs[1] - freqs[0]) / freqs[1] < 0.005


def _own_masses(sys_, modes):
    """The effective mass of each elastic mode (frequency, vector) of
    solve_disk on the disk's own M and rim: the vector scaled to max |u_r|
    = 1 on the rim, then phi^T M phi on the free dofs; none for a mode whose
    rim does not move. A disk on a caller's mesh reduces its modes so."""
    vecs = np.array([v for _, v in modes])
    free, masses = sys_.free_dofs(), []
    for vec, u_rad in zip(vecs, fem._rim_radial(sys_.mesh, vecs)[1]):
        rim = float(np.max(np.abs(u_rad)))
        if rim > 0:
            scaled = vec[free] / rim
            masses.append(float(scaled @ (sys_._mf @ scaled)))
    return masses


# fem-converge disks near the backward-error bound at R/7 with 13 modes:
# seeds 3 and 21, which a direct solve with one polish step left above it,
# and seed 30, which the reference-disk pairs with one step leave above it
_NEAR_MISS_DISKS = {
    "seed-3": (DiskGeometry(4.415680154384778e-06, 8.560151247953092e-07),
               Material(144277877625.5135, 2308.84584505919, 0.23699551665480792)),
    "seed-21": (DiskGeometry(3.9164018882298055e-06, 5.185400388194423e-07),
                Material(139896968789.99188, 2337.9533848435135, 0.2634999940404721)),
    "seed-30": (DiskGeometry(4.614543015571048e-06, 6.068184254458345e-07),
                Material(162344893876.34863, 2257.839288727944, 0.20300369085511272))}


class TestUnitDisk:
    """A disk on a mesh_disk mesh maps the cached pairs of the reference disk
    of its ring count and Poisson ratio; a degenerate pair is reported in
    one basis."""

    @staticmethod
    def _record_pencils(monkeypatch):
        calls = []
        pencil = fem._pencil_modes

        def recording(kk, mm, k, **kwargs):
            calls.append(kk.shape[0])
            return pencil(kk, mm, k, **kwargs)

        monkeypatch.setattr(fem, "_pencil_modes", recording)
        return calls

    def test_congruent_disks_share_one_solve(self, monkeypatch, silicon, cold_disk_topologies):
        calls = self._record_pencils(monkeypatch)
        a = DiskGeometry(3e-6, 0.4e-6)
        b = DiskGeometry(17.3e-6, 1.1e-6)
        other = Material(131e9, 2210.0, silicon.poisson_ratio)
        ra = fem.solve_disk(a, silicon, mesh_disk(a, a.radius / 12))
        rb = fem.solve_disk(b, other, mesh_disk(b, b.radius / 12))
        assert calls == [len(ra[0].dof_map)]
        for sys_ in (ra[0], rb[0]):
            assert sys_._congruence.key == (fem._disk_reference, 12, silicon.poisson_ratio)
        # each is its own pencil's solution: the reference frequency scales
        # with sqrt(E / rho) / R
        scale = (math.sqrt(other.youngs_modulus / other.density) / b.radius) / (
            math.sqrt(silicon.youngs_modulus / silicon.density) / a.radius)
        for x, y in zip(rb[2], ra[2]):
            assert x.frequency == pytest.approx(scale * y.frequency, rel=1e-12)
            assert x.mode_order == y.mode_order

    def test_new_ratio_or_ring_count_misses(self, monkeypatch, ref_disk, silicon,
                                            cold_disk_topologies):
        calls = self._record_pencils(monkeypatch)
        softer = Material(silicon.youngs_modulus, silicon.density, 0.21)
        fem.disk_modal_fem(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 8))
        fem.disk_modal_fem(ref_disk, softer, mesh_disk(ref_disk, ref_disk.radius / 8))
        fem.disk_modal_fem(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 9))
        fem.disk_modal_fem(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 8))
        assert len(calls) == 3
        assert fem._reference_modes.cache_info().currsize == 3
        assert fem._disk_reference.cache_info().currsize == 3

    @pytest.mark.parametrize("divisor", [4.5, 8, 12, 20])
    def test_effective_masses(self, divisor):
        # a mapped disk's effective masses are c_M = d^2 times its
        # reference's, within 8 eps of those on its own M and rim; a disk on
        # a caller's mesh (dense at R/4.5, sparse at R/8) computes its own
        eps, tally = np.finfo(float).eps, collections.Counter()
        for radius, t, e_mod, rho, nu, n_modes, caller in itertools.product(
                (3e-6, 17.3e-6), (0.4e-6, 1.1e-6), (1e-5, 169e9, 1e200), (2330.0, 1e100),
                (0.25, 0.28), (3, 6), (False, True)):
            if caller and (divisor > 8 or e_mod > 1e100):
                continue
            geom = DiskGeometry(radius, t)
            mesh = mesh_disk(geom, radius / divisor)
            try:
                sys_, modes, results = fem.solve_disk(
                    geom, Material(e_mod, rho, nu), _caller_copy(mesh) if caller else mesh,
                    n_modes)
            except EigenSolveError:   # mode vector norms overflow at E = 1e200
                tally["refused"] += 1
                continue
            got, own = [r.effective_mass for r in results], _own_masses(sys_, modes)
            assert len(got) == len(own) == n_modes
            c = sys_._congruence
            if c is None:
                assert got == own
                tally["own"] += 1
                continue
            ref = fem._reference_modes(c.key, n_modes).masses
            assert got == [m * (c.d * c.d) for m in ref]
            assert np.all(np.abs(np.subtract(got, own)) <= 8 * eps * np.array(own))
            tally["mapped"] += 1
        assert tally["mapped"] == 64 and tally["refused"] == 32
        assert tally["own"] == (64 if divisor <= 8 else 0)

    def test_warm_disk_makes_no_rim_pass(self, monkeypatch, silicon):
        geom = DiskGeometry(5.3e-6, 0.9e-6)
        mesh = mesh_disk(geom, geom.radius / 8)
        warm = fem.solve_disk(geom, silicon, mesh)

        def no_rim(*args):
            raise AssertionError("a warm mapped disk read its rim")

        monkeypatch.setattr(fem, "_rim_radial", no_rim)
        _assert_same_disk(fem.solve_disk(geom, silicon, mesh), warm)

    def test_cache_is_bounded(self):
        for cached in (fem._disk_reference, fem._reference_modes, fem._reference_pairs):
            assert cached.cache_info().maxsize == fem._UNIT_CACHE == 8

    def test_reference_is_built_once_per_ring_count_and_nu(self, monkeypatch, silicon,
                                                           cold_disk_topologies):
        # a cold disk_modal_fem sums the element matrices of its reference
        # disk alone (at R0), certifies its mass by the element template
        # and factors only K - sigma M, by LU; a warm one sums and factors
        # nothing
        calls = []
        lu, system = fem._symmetric_lu, fem._system

        def recording_lu(a):
            calls.append(("lu", a.shape[0]))
            return lu(a)

        def recording_system(plan, ke, me, scale, mesh=None, *rest):
            calls.append(("system", mesh._radius))
            return system(plan, ke, me, scale, mesh, *rest)

        monkeypatch.setattr(fem, "_symmetric_lu", recording_lu)
        monkeypatch.setattr(fem, "_system", recording_system)
        softer = Material(silicon.youngs_modulus, silicon.density, 0.21)
        r0 = fem._REF_DISK[2]
        n8, n9 = 2 * (1 + 3 * 8 * 9), 2 * (1 + 3 * 9 * 10)
        cold, warm = [("system", r0), ("lu", n8)], []
        for geom, mat, rings, expected in (
                (DiskGeometry(4e-6, 0.5e-6), silicon, 8, cold),
                (DiskGeometry(7e-6, 0.9e-6), silicon, 8, warm),
                (DiskGeometry(4e-6, 0.5e-6), softer, 8, cold),
                (DiskGeometry(4e-6, 0.5e-6), silicon, 9,
                 [("system", r0), ("lu", n9)]),
                (DiskGeometry(2e-6, 0.3e-6), softer, 8, warm)):
            calls.clear()
            fem.disk_modal_fem(geom, mat, mesh_disk(geom, geom.radius / rings))
            assert calls == expected

    def test_scale_is_the_mesh_radius(self, ref_disk, silicon):
        # a mesh built for another radius: K and M are those of its nodes,
        # and so are the mapped pairs
        other = DiskGeometry(5.3e-6, ref_disk.thickness)
        mesh = mesh_disk(other, other.radius / 8)
        mapped = fem.solve_disk(ref_disk, silicon, mesh)[2]
        direct = fem.solve_disk(ref_disk, silicon, _caller_copy(mesh))[2]
        _assert_close_results(mapped, direct)

    def test_caller_mesh_and_subnormal_mass_are_solved_directly(self, ref_disk, silicon):
        mesh = mesh_disk(ref_disk, ref_disk.radius / 6)
        assert assemble_disk(ref_disk, silicon, mesh)._congruence is not None
        assert assemble_disk(ref_disk, silicon, _caller_copy(mesh))._congruence is None
        # the mass of a 4e-307 m thick disk is subnormal, so the congruence
        # would hold only to the subnormal grid: the disk is summed directly,
        # and the certificate of its sum refuses it
        thin = DiskGeometry(3e-6, 0.4e-306)
        thin_mesh = mesh_disk(thin, 0.6e-6)
        for mesh in (thin_mesh, _caller_copy(thin_mesh)):
            with pytest.raises(InvariantError, match="mass matrix entries must be normal floats"):
                assemble_disk(thin, silicon, mesh)

    @pytest.mark.parametrize("which", sorted(_NEAR_MISS_DISKS))
    def test_near_miss_disks_pass(self, which):
        geom, mat = _NEAR_MISS_DISKS[which]
        sys_ = assemble_disk(geom, mat, mesh_disk(geom, geom.radius / 7))
        modes = solve_modes(sys_, 13)
        assert np.max(_jacobi_backward_errors(sys_, modes)) <= fem._BACKWARD_BOUND
        results = disk_modal_fem(geom, mat, mesh_disk(geom, geom.radius / 7), 10)
        assert [r.mode_order for r in results[:4]] == [2, 2, 1, 1]

    @pytest.mark.parametrize("margin,steps", [(fem._POLISH_MARGIN, 2), (0.0, 3)])
    def test_polish_repeats_while_near_a_gate(self, monkeypatch, cold_disk_topologies,
                                              margin, steps):
        # the seed-30 reference solve needs a second step; with no margin
        # that any pair meets, the step runs 1 + _POLISH_REPEATS times
        monkeypatch.setattr(fem, "_POLISH_MARGIN", margin)
        geom, mat = _NEAR_MISS_DISKS["seed-30"]
        dense_modes = fem._dense_modes
        calls = []

        def recording(a, b, k):
            calls.append(k)
            return dense_modes(a, b, k)

        monkeypatch.setattr(fem, "_dense_modes", recording)
        solve_modes(assemble_disk(geom, mat, mesh_disk(geom, geom.radius / 7)), 13)
        assert calls == [26] * steps

    @pytest.mark.parametrize("divisor", [6, 12])
    def test_pair_rotation_leaves_results_unchanged(self, monkeypatch, ref_disk, silicon,
                                                    cold_disk_topologies, divisor):
        mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
        ref = fem.solve_disk(ref_disk, silicon, mesh)[2]
        fem._reference_modes.cache_clear()   # solve the reference again, rotated
        solve = fem._solve
        rng = np.random.default_rng(divisor)
        calls = []

        def rotated(sys_, k, spare=0):
            vals, full, norms = solve(sys_, k, spare)
            calls.append(k)
            for i in (3, 5):   # the n = 2 and n = 1 pairs, in any basis
                phi = rng.uniform(0, 2 * math.pi)
                va, vb = full[i].copy(), full[i + 1].copy()
                full[i] = math.cos(phi) * va + math.sin(phi) * vb
                full[i + 1] = 3.0 * (math.cos(phi) * vb - math.sin(phi) * va)
            return vals, full, norms

        monkeypatch.setattr(fem, "_solve", rotated)
        got = fem.solve_disk(ref_disk, silicon, mesh)[2]
        assert calls == [9]
        assert [r.mode_order for r in ref[:4]] == [2, 2, 1, 1]
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.frequency == b.frequency and a.mode_order == b.mode_order
            for name in ("effective_mass", "effective_stiffness"):
                assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0)
            assert np.allclose(a.mode_shape, b.mode_shape, rtol=0, atol=1e-12)

    def test_rotated_pair_failing_a_gate_is_not_used(self, monkeypatch, ref_disk, silicon,
                                                     cold_disk_topologies):
        # a rotated pair is gated as solve_modes gates a pair: one whose
        # residual is 1e-6 keeps the basis it was solved in
        mesh = mesh_disk(ref_disk, ref_disk.radius / 8)
        gap = fem._PAIR_GAP
        monkeypatch.setattr(fem, "_PAIR_GAP", -1.0)   # no pair is rotated
        unrotated = fem.solve_disk(ref_disk, silicon, mesh)
        monkeypatch.setattr(fem, "_PAIR_GAP", gap)
        fem._reference_modes.cache_clear()
        canonical = fem._canonical_pair
        rng = np.random.default_rng(8)
        calls = []

        def noisy(*args):
            calls.append(args[-1].shape)
            out = canonical(*args)
            return out + 1e-6 * np.abs(out).max() * rng.standard_normal(out.shape)

        monkeypatch.setattr(fem, "_canonical_pair", noisy)
        _assert_same_disk(fem.solve_disk(ref_disk, silicon, mesh), unrotated)
        assert len(calls) == 2

    def test_pair_basis(self, ref_disk, silicon):
        # member a's rim u_r is cos(n theta), member b's sin(n theta)
        mesh = mesh_disk(ref_disk, ref_disk.radius / 12)
        _, modes, results = fem.solve_disk(ref_disk, silicon, mesh)
        theta, u_rads = fem._rim_radial(mesh, np.array([v for _, v in modes]))
        for i, n in ((0, 2), (2, 1)):
            assert results[i].mode_order == results[i + 1].mode_order == n
            a, b = u_rads[i], u_rads[i + 1]
            assert abs(a @ np.sin(n * theta)) < 1e-12 * abs(a @ np.cos(n * theta))
            assert abs(b @ np.cos(n * theta)) < 1e-9 * abs(b @ np.sin(n * theta))

    def test_dense_and_sparse_solves_agree(self, monkeypatch, ref_disk, silicon):
        # a caller mesh at R/12 is solved by shift-invert Lanczos, or by LAPACK
        # with the threshold raised; the pairs come out in one basis
        mesh = _caller_copy(mesh_disk(ref_disk, ref_disk.radius / 12))
        sparse = fem.solve_disk(ref_disk, silicon, mesh)[2]
        monkeypatch.setattr(fem, "_SPARSE_MIN_DOF", 10**6)
        _assert_close_results(fem.solve_disk(ref_disk, silicon, mesh)[2], sparse,
                              m_eff_rtol=1e-10)

    def test_spare_mode_is_dropped(self, monkeypatch, ref_disk, silicon, cold_disk_topologies):
        # n_modes elastic modes come back though n_modes + 4 are solved, the
        # spare from the Ritz pairs of the window of n_modes + 3, and a pair
        # cut by the window edge is rotated as a whole
        mesh = mesh_disk(ref_disk, ref_disk.radius / 8)
        windows = []
        shift_invert = fem._shift_invert_modes

        def recording(kk, mm, k, **kwargs):
            windows.append((k, kwargs["spare"]))
            return shift_invert(kk, mm, k, **kwargs)

        monkeypatch.setattr(fem, "_shift_invert_modes", recording)
        for n_modes in (1, 3, 8):
            _, modes, results = fem.solve_disk(ref_disk, silicon, mesh, n_modes)
            assert len(modes) == len(results) == n_modes
        assert windows == [(4, 1), (6, 1), (11, 1)]
        wide = fem.solve_disk(ref_disk, silicon, mesh, 9)[2]
        _assert_close_results(results, wide[:8])

    def test_spare_failing_a_gate_is_dropped(self, monkeypatch, ref_disk, silicon):
        mesh = _caller_copy(mesh_disk(ref_disk, ref_disk.radius / 8))
        sys_ = assemble_disk(ref_disk, silicon, mesh)
        vals, full, _ = fem._solve(sys_, 9, spare=1)
        assert len(vals) == len(full) == 10
        pencil_modes = fem._pencil_modes

        def spoiled(kk, mm, k, spare=0):
            vals, vecs = pencil_modes(kk, mm, k, spare=spare)
            vecs = vecs.copy()
            vecs[:, k:] += 1e-6 * np.abs(vecs[:, k:]).max()
            return vals, vecs

        monkeypatch.setattr(fem, "_pencil_modes", spoiled)
        got_vals, got_full, _ = fem._solve(sys_, 9, spare=1)
        assert _bits_equal(got_vals, vals[:9]) and _bits_equal(got_full, full[:9])

    @pytest.mark.parametrize("divisor", [6, 12])
    def test_mapped_solve_matches_the_direct_one(self, silicon, divisor):
        # a disk mapped from its reference against the same mesh built by a
        # caller: its element matrices summed and its own pencil solved
        for geom, mat in ((DiskGeometry(5.3e-6, 0.9e-6), Material(131e9, 2210.0, 0.23)),
                          (DiskGeometry(2.1e-6, 0.3e-6), silicon)):
            mesh = mesh_disk(geom, geom.radius / divisor)
            mapped = fem.solve_disk(geom, mat, mesh)
            direct = fem.solve_disk(geom, mat, _caller_copy(mesh))
            assert mapped[0]._congruence is not None and direct[0]._congruence is None
            for a, b in ((mapped[0].stiffness, direct[0].stiffness),
                         (mapped[0].mass, direct[0].mass)):
                a, b = a.toarray(), b.toarray()
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
            _assert_close_results(mapped[2], direct[2], m_eff_rtol=1e-10)
            for a, b in zip(mapped[2], direct[2]):
                assert np.allclose(a.mode_shape, b.mode_shape, rtol=0, atol=1e-10)

    def test_mapped_norms_equal_per_call_norms(self, silicon):
        for divisor in (6, 12):
            geom = DiskGeometry(5.3e-6, 0.9e-6)
            sys_ = assemble_disk(geom, silicon, mesh_disk(geom, geom.radius / divisor))
            assert sys_._congruence.norms == pytest.approx(
                fem._scaled_norms(sys_._kf, sys_._mf), rel=1e-14, abs=0)

    def test_failing_mapped_pair_is_refused(self, monkeypatch):
        # one mapped pair off by 1e-6: the disk is refused, as a beam whose
        # mapped pair fails a gate is
        geom, mat = DiskGeometry(5.3e-6, 0.9e-6), Material(131e9, 2210.0, 0.23)
        mesh = mesh_disk(geom, geom.radius / 8)
        reference_modes = fem._reference_modes

        def spoiled(*key):
            modes = reference_modes(*key)
            vecs = modes.vecs.copy()
            vecs[5] += 1e-6 * np.abs(vecs[5]).max()
            return modes._replace(vecs=vecs)

        monkeypatch.setattr(fem, "_reference_modes", spoiled)
        with pytest.raises(EigenSolveError, match=r"eigen-residual .* exceeds 1e-08 for mode 5"):
            fem.solve_disk(geom, mat, mesh)

    @pytest.mark.parametrize("n_modes", [10, 13])
    @pytest.mark.parametrize("which", sorted(_NEAR_MISS_DISKS))
    def test_near_miss_disks_are_mapped(self, which, n_modes):
        # mapped, with no fallback, every pair within the backward-error bound
        geom, mat = _NEAR_MISS_DISKS[which]
        sys_, modes, results = fem.solve_disk(geom, mat, mesh_disk(geom, geom.radius / 7),
                                              n_modes)
        assert sys_._congruence is not None and len(results) == n_modes
        assert np.max(_jacobi_backward_errors(sys_, modes)) <= fem._BACKWARD_BOUND


class TestEigenvalueScale:
    """A pencil whose eigenvalue scale is not a normal float is refused
    before LAPACK or ARPACK sees it: a beam at assembly, a disk that cannot
    be mapped in _solve's direct path; so is a pencil whose ARPACK shift
    or start vector is out of range. None of them writes to stdout."""

    @pytest.mark.parametrize("radius,thickness,e_mod,rho", [
        (1.0, 0.1, 1e-150, 1e300), (1.0, 0.4e-6, 1e-150, 1e300), (1.0, 0.4e-6, 1e-50, 1e300),
        (1e50, 1e49, 1e-150, 1e150), (1e50, 0.4e-6, 1e-150, 1e150)])
    def test_underflowing_disk_refused_silently(self, capfd, radius, thickness, e_mod, rho):
        # ARPACK's LAPACK calls would write " ** On entry to DLASCL ..."
        # to fd 1 on these disks
        geom = DiskGeometry(radius, thickness)
        mesh = mesh_disk(geom, radius / 8)
        mat = Material(e_mod, rho, 0.25)
        assert assemble_disk(geom, mat, mesh)._congruence is None
        with pytest.raises(EigenSolveError, match=r"eigenvalue scale median\(diag K / diag M\) "
                                                  r"must be a normal float, got 0\.0"):
            fem.solve_disk(geom, mat, mesh, 2)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("radius,thickness,e_mod,rho,got", [
        # a normal eigenvalue scale, 3.3e-308, whose shift is subnormal
        (1.0, 0.1, 1e-300, 1e10, r"-3\.2\d*e-317 and"),
        # a total mass rho t pi R^2 that overflows
        (1e100, 1e99, 1e10, 1e10, r"-3\.2\d*e-207 and inf")])
    def test_arpack_out_of_range_refused_silently(self, capfd, radius, thickness, e_mod, rho,
                                                  got):
        geom = DiskGeometry(radius, thickness)
        with pytest.raises(EigenSolveError, match="ARPACK needs a normal shift and a finite "
                                                  rf"v0\^T M v0, got {got}"):
            fem.solve_disk(geom, Material(e_mod, rho, 0.25), mesh_disk(geom, radius / 8), 2)
        assert capfd.readouterr().out == ""

    @pytest.mark.parametrize("radius,thickness,e_mod,rho,divisor", [
        (1.0, 0.1, 1e-300, 1e-150, 4.5), (1.0, 0.1, 1e150, 1e300, 4.5),
        (1.0, 0.1, 1e300, 1e300, 4.5), (1e50, 1e49, 1e150, 1e150, 4.5)])
    def test_direct_extreme_disks_still_solved(self, radius, thickness, e_mod, rho, divisor):
        # disks that cannot be mapped, whose eigenvalue scale is normal (the
        # same disk as the third at R/8 is accepted too, but ARPACK's pairs
        # of it differ in their last bits from one process to the next)
        geom = DiskGeometry(radius, thickness)
        sys_, _, results = fem.solve_disk(geom, Material(e_mod, rho, 0.25),
                                          mesh_disk(geom, radius / divisor), 2)
        assert sys_._congruence is None and len(results) == 2


class TestModeCount:
    """A number of modes is an integer (not a bool) in range, or
    EigenSolveError naming the range."""

    @pytest.mark.parametrize("bad", [1.5, 4.0, True, -1, 0, 10**6])
    @pytest.mark.parametrize("n", [64, 512])
    def test_beam(self, ref_beam, silicon, n, bad):
        sys_ = assemble_beam(ref_beam, silicon, n)
        most = len(sys_.free_dofs())
        with pytest.raises(EigenSolveError,
                           match=re.escape(f"k must be an integer in [1, {most}], got {bad!r}")):
            solve_modes(sys_, bad)
        assert len(solve_modes(sys_, np.int64(3))) == 3

    def test_disk(self, ref_disk, silicon):
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 12))
        with pytest.raises(EigenSolveError, match=re.escape("k must be an integer in [1, 938], "
                                                            "got 1.5")):
            solve_modes(sys_, 1.5)
        mesh = mesh_disk(ref_disk, ref_disk.radius / 8)   # 434 dofs
        for bad in (1.5, 6.0, False, -1, 0, 432):
            with pytest.raises(EigenSolveError, match=re.escape(
                    f"n_modes must be an integer in [1, 431], got {bad!r}")):
                fem.disk_modal_fem(ref_disk, silicon, mesh, n_modes=bad)
        assert len(fem.disk_modal_fem(ref_disk, silicon, mesh, n_modes=np.int32(2))) == 2


class TestExport:
    def test_mesh_export(self, ref_disk, tmp_path):
        mesh = mesh_disk(ref_disk, ref_disk.radius / 8)
        path = tmp_path / "mesh.txt"
        export_mesh(mesh, path)
        lines = path.read_text().splitlines()
        node_lines = [l for l in lines if l.startswith("node ")]
        elem_lines = [l for l in lines if l.startswith("elem ")]
        assert len(node_lines) == len(mesh.nodes)
        assert len(elem_lines) == len(mesh.elements)

    def test_modes_csv(self, ref_beam, silicon, tmp_path):
        sys_ = assemble_beam(ref_beam, silicon, 8)
        modes = solve_modes(sys_, 2)
        path = tmp_path / "modes.csv"
        export_modes_csv(sys_, modes, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(sys_.mesh.nodes)
        assert lines[0].startswith("node,coord0,")

    def test_modes_csv_missing_component_is_blank(self, tmp_path):
        mesh = Mesh(nodes=np.array([[0.0], [1.0]]), elements=np.array([[0, 1]]),
                    kind="beam_1d")
        sys_ = AssembledSystem(np.diag([2.0, 3.0, 4.0]), np.eye(3),
                               dof_map=((0, "w"), (0, "theta"), (1, "w")),
                               constraints=(), mesh=mesh)
        path = tmp_path / "modes.csv"
        export_modes_csv(sys_, [(1.5, np.array([0.25, -0.5, 1.0]))], path)
        assert path.read_text().splitlines() == [
            "node,coord0,mode0_f1.5_theta,mode0_f1.5_w",
            "0,0.0,-0.5,0.25",
            "1,1.0,,1.0",
        ]
