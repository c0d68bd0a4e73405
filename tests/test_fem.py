import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csc_array
from scipy.sparse import eye_array as sparse_eye

from resokit import fem
from resokit.analytic import beam_mode_frequency, disk_wineglass_frequency
from resokit.core import BeamGeometry, DiskGeometry, Material, VibrationAxis
from resokit.errors import (AmbiguousAngularOrderError, EigenSolveError,
                            InvariantError, MeshError)
from resokit.fem import (AssembledSystem, Mesh, assemble_beam, assemble_disk,
                         disk_modal_fem, export_mesh, export_modes_csv,
                         identify_angular_order, mesh_disk, solve_modes)


class TestBeamAssembly:
    def test_symmetry_and_pd(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 2)
        k, m = sys_.stiffness, sys_.mass
        assert np.array_equal(k, k.T)
        assert np.array_equal(m, m.T)
        free = sys_.free_dofs()
        vals = np.linalg.eigvalsh(m[np.ix_(free, free)])
        assert vals.min() > 0

    def test_total_mass(self, ref_beam, silicon):
        sys_ = assemble_beam(ref_beam, silicon, 8, clamped=False)
        ones = np.zeros(len(sys_.dof_map))
        for i, (_, comp) in enumerate(sys_.dof_map):
            if comp == "w":
                ones[i] = 1.0
        total = float(ones @ sys_.mass @ ones)
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
        assert sys_.stiffness[3, 3] == 2 * ((ei / le**3) * (4 * le**2))
        assert sys_.mass[3, 3] == 2 * ((ral / 420.0) * (4 * le**2))


@pytest.fixture
def cold_unit_caches():
    """Empty unit-beam caches before and after the test, so that it builds
    (and leaves behind) no cached unit system or eigenpairs."""
    for cached in (fem._unit_beam_system, fem._unit_beam_modes):
        cached.cache_clear()
    yield
    for cached in (fem._unit_beam_system, fem._unit_beam_modes):
        cached.cache_clear()


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
        assert isinstance(sys_.stiffness, np.ndarray) == (len(sys_.free_dofs()) <= 300)
        ke, me = _literal_beam_elements(geom, silicon, n)
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        for stored, e in ((sys_.stiffness, ke), (sys_.mass, me)):
            ref = _dense_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), 2 * (n + 1))
            dense = stored if isinstance(stored, np.ndarray) else stored.toarray()
            assert _bits_equal(dense, ref)

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 16, 149, 150, 151, 152, 512])
    def test_unit_free_block_equals_old_slice(self, monkeypatch, n, clamped):
        # the clamped unit pencil was the [2:-2, 2:-2] slice of the scattered
        # integer matrices, the free-free one the matrices themselves
        calls = []
        pencil = fem._pencil_modes

        def recording(kk, mm, k):
            calls.append((kk, mm))
            return pencil(kk, mm, k)

        monkeypatch.setattr(fem, "_pencil_modes", recording)
        fem._unit_beam_modes.cache_clear()
        fem._unit_beam_modes(n, clamped, 1)
        fem._unit_beam_modes.cache_clear()
        (kk, mm), = calls
        ndof = 2 * (n + 1)
        n_free = ndof - 4 if clamped else ndof
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        for block, e in ((kk, fem._KE0), (mm, fem._ME0)):
            old = _triplet_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), ndof, n_free)
            if clamped:
                old = old[2:-2, 2:-2]
            assert type(block) is type(old)
            if isinstance(old, np.ndarray):
                assert _bits_equal(block, old)
            else:
                for a, b in ((block.data, old.data), (block.indices, old.indices),
                             (block.indptr, old.indptr)):
                    assert np.array_equal(a, b) and a.dtype == b.dtype

    def test_unit_pencil_is_gated(self, monkeypatch, cold_unit_caches):
        asymmetric = fem._KE0.copy()
        asymmetric[0, 1] += 1
        monkeypatch.setattr(fem, "_KE0", asymmetric)
        with pytest.raises(InvariantError, match="stiffness matrix not symmetric"):
            fem._unit_beam_modes(8, True, 2)
        monkeypatch.setattr(fem, "_KE0", -fem._ME0)
        monkeypatch.setattr(fem, "_ME0", -fem._ME0)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            fem._unit_beam_modes(8, True, 2)

    def test_underflowing_eigenvalue_scale_rejected(self, silicon):
        # EI/le^3 is a positive subnormal, but (EI/le^3)/(rho*A*le/420)
        # underflows to 0: solve_modes would return four modes of 0.0 Hz
        geom = BeamGeometry(1e100, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match=r"eigenvalue scale .* must be finite "
                                                 r"and > 0, got 0\.0"):
            assemble_beam(geom, silicon, 8)


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
        kk = sys_.stiffness[np.ix_(free, free)]
        mm = sys_.mass[np.ix_(free, free)]
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


def _elastic_residuals(sys_, modes):
    free = sys_.free_dofs()
    kk = sys_.stiffness[np.ix_(free, free)]
    mm = sys_.mass[np.ix_(free, free)]
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
        oracle = eigh(sys_.stiffness[np.ix_(free, free)].toarray(),
                      sys_.mass[np.ix_(free, free)].toarray(),
                      subset_by_index=(0, n - 1), eigvals_only=True)
        lams = [(2 * math.pi * f) ** 2 for f, _ in solve_modes(sys_, n)]
        assert lams == pytest.approx(oracle, rel=1e-10)

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


def _triplet_scatter(dofs, blocks, ndof, n_free):
    """Assembly as it was before the scatter plan (reference): dense at or
    below _SPARSE_MIN_DOF free dofs, else CSC from the triplets, sorted by
    one np.unique of the keys col*ndof + row, without exact zeros."""
    if n_free <= fem._SPARSE_MIN_DOF:
        return _dense_scatter(dofs, blocks, ndof)
    keys, slot = np.unique((dofs[:, None, :] * ndof + dofs[:, :, None]).ravel(),
                           return_inverse=True)
    data = np.bincount(slot, weights=blocks.ravel(), minlength=len(keys))
    nonzero = data != 0
    cols, rows = np.divmod(keys[nonzero], ndof)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ndof))))
    return fem._csc_type()((data[nonzero], rows, indptr), shape=(ndof, ndof))


def _assert_canonical_csc(a):
    """Sorted, duplicate-free row indices in every column; no stored zero."""
    assert isinstance(a, csc_array)
    later = np.setdiff1d(np.arange(1, len(a.indices)), a.indptr)
    assert np.all(a.indices[later] > a.indices[later - 1])
    assert np.all(a.data != 0)
    assert a.nbytes == a.data.nbytes + a.indices.nbytes + a.indptr.nbytes


class TestSparseStorage:
    """K and M are dense at or below _SPARSE_MIN_DOF free dofs and CSC
    above, and bitwise the matrices the dense scatter builds."""

    @staticmethod
    def _assemble_recording(monkeypatch, assemble, *args):
        # the element matrices that reach _system, scattered by the
        # reference at the dofs of the mesh's elements
        calls = []
        system = fem._system

        def recording(plan, ke, me, mesh=None):
            calls.append((ke, me, mesh))
            return system(plan, ke, me, mesh)

        monkeypatch.setattr(fem, "_system", recording)
        sys_ = assemble(*args)
        (ke, me, mesh), = calls
        ndof = 2 * len(mesh.nodes)
        dofs = (2 * mesh.elements[:, :, None] + np.arange(2)).reshape(len(mesh.elements), -1)
        return sys_, _dense_scatter(dofs, ke, ndof), _dense_scatter(dofs, me, ndof)

    @staticmethod
    def _check(sys_, k_ref, m_ref):
        free = sys_.free_dofs()
        sparse = len(free) > fem._SPARSE_MIN_DOF

        def bits(a):
            return a.view(np.uint64)

        for stored, block, ref in ((sys_.stiffness, sys_._kf, k_ref),
                                   (sys_.mass, sys_._mf, m_ref)):
            if sparse:
                _assert_canonical_csc(stored)
                _assert_canonical_csc(block)
                stored, block = stored.toarray(), block.toarray()
            else:
                assert isinstance(stored, np.ndarray) and stored.flags.c_contiguous
                assert not stored.flags.writeable
            assert np.array_equal(bits(stored), bits(ref))
            if len(free) < len(ref):
                ref = ref[np.ix_(free, free)]
            assert np.array_equal(bits(block), bits(ref))
        if sparse:
            k, m = sys_.stiffness, sys_.mass
            for a in (k.data, k.indices, k.indptr):
                for b in (m.data, m.indices, m.indptr):
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("axis", list(VibrationAxis))
    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [16, 149, 150, 151, 152, 256, 1024])
    def test_beam_bitwise_dense_scatter(self, silicon, axis, clamped, n):
        # a beam is a scaled copy of its unit system (no scatter of its own):
        # the reference scatters the literal element matrices
        geom = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, axis)
        dofs = 2 * np.arange(n)[:, None] + np.arange(4)
        k_ref, m_ref = (_dense_scatter(dofs, np.broadcast_to(e, (n, 4, 4)), 2 * (n + 1))
                        for e in _literal_beam_elements(geom, silicon, n))
        self._check(assemble_beam(geom, silicon, n, clamped), k_ref, m_ref)

    @pytest.mark.parametrize("divisor", [6, 8, 12, 16, 20, 24])
    def test_disk_bitwise_dense_scatter(self, monkeypatch, ref_disk, silicon, divisor):
        mesh = mesh_disk(ref_disk, ref_disk.radius / divisor)
        sys_, k_ref, m_ref = self._assemble_recording(
            monkeypatch, assemble_disk, ref_disk, silicon, mesh)
        self._check(sys_, k_ref, m_ref)

    def test_storage_switches_at_threshold(self, ref_beam, silicon):
        # 151 clamped elements: 304 dofs, 300 free; 152: 302 free
        assert isinstance(assemble_beam(ref_beam, silicon, 151).stiffness, np.ndarray)
        assert isinstance(assemble_beam(ref_beam, silicon, 152).stiffness, csc_array)

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

    def test_caller_sparse_matrix_stored_dense_when_small(self):
        k = csc_array(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        sys_ = AssembledSystem(k, sparse_eye(2, format="csc"),
                               dof_map=((0, "w"), (1, "w")), constraints=())
        for a in (sys_.stiffness, sys_.mass, sys_._kf, sys_._mf):
            assert isinstance(a, np.ndarray) and a.flags.c_contiguous
        assert np.array_equal(sys_.stiffness, k.toarray())


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


class TestDenseModes:
    """fem._dense_modes is scipy.linalg.eigh(a, b, subset_by_index=(0, k - 1)),
    bit for bit."""

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [2, 3, 5, 16, 64, 151])
    def test_beam_bitwise_equal_to_eigh(self, ref_beam, silicon, n, clamped):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        kk, mm = sys_._kf, sys_._mf
        if not isinstance(kk, np.ndarray):   # 151 free: the k >= n/4 fallback
            kk, mm = kk.toarray(), mm.toarray()
        n_free = len(sys_.free_dofs())
        ks = (range(1, n_free + 1) if n_free <= 40 else
              sorted({*range(1, n_free, 23), n_free - 1, n_free}))
        for k in ks:
            vals, vecs = fem._dense_modes(kk, mm, k)
            ref_vals, ref_vecs = eigh(kk, mm, subset_by_index=(0, k - 1))
            assert _bits_equal(vals, ref_vals) and _bits_equal(vecs, ref_vecs)

    def test_rayleigh_ritz_step_bitwise_equal_to_eigh(self, monkeypatch, disk_r12):
        # the projected pencil is symmetric only to rounding
        calls = []
        dense_modes = fem._dense_modes

        def recording(a, b, k):
            out = dense_modes(a, b, k)
            calls.append((a, b, k, out))
            return out

        monkeypatch.setattr(fem, "_dense_modes", recording)
        solve_modes(disk_r12, 9)
        (a, b, k, (vals, vecs)), = calls
        assert a.shape == (18, 18) and not np.array_equal(a, a.T)
        ref_vals, ref_vecs = eigh(a, b, subset_by_index=(0, k - 1))
        assert _bits_equal(vals, ref_vals) and _bits_equal(vecs, ref_vecs)

    def test_lapack_failure_is_eigen_solve_error(self):
        sys_ = AssembledSystem(np.eye(2), np.eye(2), dof_map=((0, "w"), (1, "w")),
                               constraints=())
        with pytest.raises(np.linalg.LinAlgError, match="dsygvx"):
            fem._dense_modes(np.eye(2), np.diag([1.0, -1.0]), 1)
        object.__setattr__(sys_, "_mf", np.diag([1.0, -1.0]))   # bypasses validation
        with pytest.raises(EigenSolveError, match="dsygvx"):
            solve_modes(sys_, 1)


def _loop_normalized(sys_, vals, vecs):
    """solve_modes' normalization and sign convention as a per-mode loop
    (reference)."""
    full = np.zeros((len(vals), len(sys_.dof_map)))
    full[:, sys_.free_dofs()] = vecs.T
    out = []
    for lam, vec in zip(vals, full):
        amp = np.hypot.reduce(np.append(vec, 0.0)[sys_._tnode_dofs], axis=1, initial=0.0)
        peak = float(np.max(amp))
        if peak > 0:
            vec = vec / peak
        tvals = [float(vec[i]) for i in sys_._tdofs]
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
        eigenpairs = fem._eigenpairs

        def recording(system, k):
            calls.append(eigenpairs(system, k))
            return calls[-1]

        monkeypatch.setattr(fem, "_eigenpairs", recording)
        modes = solve_modes(sys_, k)
        (vals, vecs), = calls
        self._check(modes, _loop_normalized(sys_, vals, vecs))

    def test_dense_disk_equals_loop(self, ref_disk, silicon):
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / 6))
        vals, vecs = eigh(sys_._kf, sys_._mf, subset_by_index=(0, 8))
        self._check(solve_modes(sys_, 9), _loop_normalized(sys_, vals, vecs))

    def test_sparse_disk_equals_loop(self, monkeypatch, disk_r12):
        calls = []
        shift_invert = fem._shift_invert_modes

        def recording(kk, mm, k):
            calls.append(shift_invert(kk, mm, k))
            return calls[-1]

        monkeypatch.setattr(fem, "_shift_invert_modes", recording)
        modes = solve_modes(disk_r12, 9)
        (vals, vecs), = calls
        self._check(modes, _loop_normalized(disk_r12, vals, vecs))


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
    kk, mm = sys_._kf, sys_._mf
    if not isinstance(kk, np.ndarray):
        kk, mm = kk.toarray(), mm.toarray()
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
        # every k the dense LAPACK path solves (151 free-free: 304 free dofs,
        # so only the k >= n/4 fallback)
        k0, m0 = _unit_pencil(n, clamped)
        dense = len(k0) <= fem._SPARSE_MIN_DOF
        for k in sorted(k for k in {1, 4, len(k0) // 2, len(k0)}
                        if 1 <= k <= len(k0) and (dense or 4 * k >= len(k0))):
            fem._unit_beam_modes.cache_clear()
            vals, vecs = fem._unit_beam_modes(n, clamped, k)
            ref_vals, ref_vecs = eigh(k0, m0, subset_by_index=(0, k - 1))
            assert _bits_equal(vals, ref_vals) and _bits_equal(vecs, ref_vecs)
            assert not vals.flags.writeable and not vecs.flags.writeable

    def test_cache_is_bounded(self):
        assert fem._unit_beam_modes.cache_info().maxsize == fem._UNIT_BEAM_CACHE == 8

    @pytest.mark.parametrize("n,clamped,k", [(64, True, 1), (64, True, 4), (16, False, 6),
                                             (200, True, 4), (200, False, 4)])
    def test_cold_and_warm_cache_bitwise(self, silicon, n, clamped, k):
        target = BeamGeometry(12e-6, 0.5e-6, 0.3e-6, VibrationAxis.OUT_OF_PLANE)
        fillers = [BeamGeometry(10e-6, 0.46e-6, 0.4e-6, VibrationAxis.IN_PLANE),
                   BeamGeometry(37e-6, 2e-6, 1e-6, VibrationAxis.OUT_OF_PLANE), target]
        fem._unit_beam_modes.cache_clear()
        cold = solve_modes(assemble_beam(target, silicon, n, clamped), k)
        for filler in fillers:
            fem._unit_beam_modes.cache_clear()
            solve_modes(assemble_beam(filler, silicon, n, clamped), k)
            warm = solve_modes(assemble_beam(target, silicon, n, clamped), k)
            for (f, v), (f_ref, v_ref) in zip(warm, cold):
                assert repr(f) == repr(f_ref) and _bits_equal(v, v_ref)

    @pytest.mark.parametrize("n", [64, 200])
    def test_second_beam_makes_no_lapack_call(self, monkeypatch, ref_beam, silicon, n):
        solve_modes(assemble_beam(ref_beam, silicon, n), 4)

        def refuse(*args):
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
        assert direct._unit_beam is None and beam._unit_beam is not None

        def refuse(*args):
            raise AssertionError("a direct system went through the unit-beam cache")

        monkeypatch.setattr(fem, "_unit_beam_modes", refuse)
        vals, vecs = eigh(direct._kf, direct._mf, subset_by_index=(0, 2))
        TestNormalization._check(solve_modes(direct, 3), _loop_normalized(direct, vals, vecs))

    @pytest.mark.parametrize("clamped", [True, False])
    @pytest.mark.parametrize("n", [16, 64, 151, 152, 256, 1024])
    def test_backward_error(self, ref_beam, silicon, n, clamped):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        assert np.max(_jacobi_backward_errors(sys_, solve_modes(sys_, 8))) <= 1e-12


class TestScaledBeam:
    """assemble_beam forms K and M as scaled copies of the cached unit
    system and gates each beam on its own values."""

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
            a, b = getattr(cold, name), getattr(warm, name)
            if not isinstance(a, np.ndarray):
                a, b = a.toarray(), b.toarray()
            assert _bits_equal(a, b)
        for (f, v), (f_ref, v_ref) in zip(solve_modes(warm, 4), cold_modes):
            assert repr(f) == repr(f_ref) and _bits_equal(v, v_ref)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("clamped", [True, False])
    def test_beam_shares_unit_structure(self, ref_beam, silicon, n, clamped):
        beam = assemble_beam(ref_beam, silicon, n, clamped)
        unit = fem._unit_beam_system(n, clamped)
        assert unit.band[3] == 3   # half-bandwidth under node-major numbering
        for name, shared in (("dof_map", unit.layout.dof_map),
                             ("constraints", unit.layout.constraints),
                             ("_free", unit.layout.free), ("_tdofs", unit.layout.tdofs),
                             ("_tnode_dofs", unit.layout.tnode_dofs)):
            assert getattr(beam, name) is shared
        assert (beam._kf is beam.stiffness) == (not clamped)
        assert (unit.kf is unit.k) == (not clamped)
        for own, entries in ((beam.stiffness, unit.k), (beam.mass, unit.m),
                             (beam._kf, unit.kf), (beam._mf, unit.mf)):
            if isinstance(own, np.ndarray):   # the unit keeps only the shape
                assert not own.flags.writeable and own.flags.c_contiguous
                assert entries.form == own.shape
                continue
            _assert_canonical_csc(own)
            assert not own.data.flags.writeable
            assert np.shares_memory(own.indices, entries.form.indices)
            assert np.shares_memory(own.indptr, entries.form.indptr)
        for k, m in ((beam.stiffness, beam.mass), (beam._kf, beam._mf)):
            if not isinstance(k, np.ndarray):
                for a in (k.data, k.indices, k.indptr):
                    for b in (m.data, m.indices, m.indptr):
                        assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("clamped", [True, False])
    def test_dense_unit_keeps_no_dense_matrix(self, cold_unit_caches, clamped):
        # the cached 128-element unit keeps entry tables and shapes (its
        # dense K0, M0 and free blocks were 2.1 MB); a cold eigensolve
        # rebuilds the dense free blocks bitwise
        unit = fem._unit_beam_system(128, clamped)
        tables = (unit.k, unit.m, unit.kf, unit.mf)
        assert all(isinstance(e.form, tuple) for e in tables)
        kept = {id(a): a.nbytes for e in tables for a in e[:4] if a is not None}
        assert sum(kept.values()) < 100_000
        k0, m0 = _unit_pencil(128, clamped)
        vals, vecs = fem._unit_beam_modes(128, clamped, 4)
        ref_vals, ref_vecs = eigh(k0, m0, subset_by_index=(0, 3))
        assert _bits_equal(vals, ref_vals) and _bits_equal(vecs, ref_vecs)

    @pytest.mark.parametrize("n", [16, 200])
    @pytest.mark.parametrize("unit_gate", [True, False], ids=["unit-gated", "beam-gated"])
    def test_indefinite_element_mass_refused(self, monkeypatch, ref_beam, silicon,
                                             cold_unit_caches, n, unit_gate):
        # without the unit system's own test, the beam's banded gate refuses it
        monkeypatch.setattr(fem, "_ME0", fem._ME0 - 200 * np.eye(4, dtype=int))
        if not unit_gate:
            monkeypatch.setattr(fem, "_positive_definite", lambda a: True)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            assemble_beam(ref_beam, silicon, n)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_band_cholesky_agrees_with_dense(self, sparse):
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
            stored = csc_array(a) if sparse else a
            assert fem._band_positive_definite(stored, fem._lower_band(stored)) == dense
            verdicts.append(dense)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_subnormal_entries_refused(self, silicon):
        # entries below the normal range: the scaled copy would not be the
        # exact assembled sum
        geom = BeamGeometry(1e-62, 4e-63, 4e-63, VibrationAxis.IN_PLANE)
        with pytest.raises(InvariantError, match="entries must be normal floats"):
            assemble_beam(geom, silicon, 64)


class TestBackwardErrorGate:
    def test_perturbed_unit_vector_refused(self, monkeypatch, ref_beam, silicon):
        # at 1024 elements the near-null test exempts every mode from the
        # relative residual gate; the backward-error gate still sees it
        unit_modes = fem._unit_beam_modes

        def perturbed(n, clamped, k):
            mu, psi = unit_modes(n, clamped, k)
            psi = psi.copy()
            psi[len(psi) // 2, 1] += 1e-6 * abs(psi[:, 1]).max()
            return mu, psi

        sys_ = assemble_beam(ref_beam, silicon, 1024)
        solve_modes(sys_, 4)
        monkeypatch.setattr(fem, "_unit_beam_modes", perturbed)
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
            cached = sys_._unit_beam[4]
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
        got = (sys_.free_dofs(), sys_._tdofs, sys_._tnode_dofs)
        ref = (_setdiff_free(len(sys_.dof_map), constraints),) + _isin_layout(sys_.dof_map)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            assert not a.flags.writeable
        free = ref[0]
        for block, full in ((sys_._kf, sys_.stiffness), (sys_._mf, sys_.mass)):
            if not isinstance(full, np.ndarray):
                block, full = block.toarray(), full.toarray()
            assert _bits_equal(block, full[np.ix_(free, free)])

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
        assert clamped._kf.shape == (30, 30) and clamped._kf.base is not clamped.stiffness


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


def _stored_equal(a, b):
    """Dense arrays, or CSC data, indices and indptr, bitwise equal with
    their dtypes."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and _bits_equal(a, b)
    return _bits_equal(a.data, b.data) and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in ((a.indices, b.indices), (a.indptr, b.indptr)))


def _assert_same_disk(got, ref):
    """Two solve_disk results bitwise equal: K, M, free blocks, dof tables,
    mode vectors and ModeResults."""
    (sys_a, modes_a, res_a), (sys_b, modes_b, res_b) = got, ref
    for name in ("stiffness", "mass", "_kf", "_mf"):
        assert _stored_equal(getattr(sys_a, name), getattr(sys_b, name))
    assert sys_a.dof_map == sys_b.dof_map and sys_a.constraints == sys_b.constraints
    for name in ("_free", "_tdofs", "_tnode_dofs"):
        a, b = getattr(sys_a, name), getattr(sys_b, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert [repr(f) for f, _ in modes_a] == [repr(f) for f, _ in modes_b]
    assert all(_bits_equal(va, vb) for (_, va), (_, vb) in zip(modes_a, modes_b))
    assert len(res_a) == len(res_b)
    for a, b in zip(res_a, res_b):
        assert repr(a.to_dict()) == repr(b.to_dict())   # repr of every float


@pytest.fixture
def cold_disk_topologies():
    """An empty disk-topology cache before and after the test."""
    fem._disk_topology.cache_clear()
    yield
    fem._disk_topology.cache_clear()


class TestDiskTopology:
    """mesh_disk builds each ring count's topology once (_disk_topology):
    connectivity, per-node ring index and cos/sin, the scatter plan and the
    rim order. Meshes, systems and modes are bitwise those of the uncached
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
        # the same mesh built by a caller: no topology, its own plan
        caller = Mesh(nodes=mesh.nodes.copy(), elements=mesh.elements.copy(),
                      kind="plane_stress_2d")
        assert caller._topology is None
        _assert_same_disk(fem.solve_disk(ref_disk, silicon, caller), cold)

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
            if not isinstance(a, np.ndarray):
                a, b = a.toarray(), b.toarray()
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12 * abs(b).max())
        freqs = [f for f, _ in solve_modes(sys_, 9)[3:]]
        assert freqs == pytest.approx([f for f, _ in solve_modes(base, 9)[3:]], rel=1e-9)

    def test_rim_order_is_the_computed_one(self, ref_disk):
        for divisor in (4.4, 6, 9, 16, 31):
            for radius in (1e-9, ref_disk.radius, 1.0, 1e3):
                mesh = mesh_disk(DiskGeometry(radius, 0.1 * radius), radius / divisor)
                assert np.array_equal(mesh._topology.rim, fem._rim_nodes(mesh.nodes))

    @pytest.mark.parametrize("divisor", [5, 12])
    def test_symmetry_gate_reads_the_stored_matrices(self, monkeypatch, ref_disk, silicon,
                                                     divisor):
        # the gate's max|A - A^T| and max|A| on the slot sums are those of the
        # stored K and M
        recorded = []
        gate = fem._gate

        def recording(k, kt, m, mt, mf, positive_definite):
            recorded.append((abs(k - kt).max(), abs(k).max(), abs(m - mt).max(), abs(m).max()))
            return gate(k, kt, m, mt, mf, positive_definite)

        monkeypatch.setattr(fem, "_gate", recording)
        sys_ = assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))
        ref = []
        for a in (sys_.stiffness, sys_.mass):
            if not isinstance(a, np.ndarray):
                a = a.toarray()
            ref += [abs(a - a.T).max(), abs(a).max()]
        assert recorded == [tuple(ref)] and ref[0] > 0

    @pytest.mark.parametrize("divisor", [5, 8])
    def test_asymmetric_element_matrix_refused(self, monkeypatch, ref_disk, silicon,
                                               divisor):
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
            fem._unit_beam_system(n, True)

    def test_cache_is_bounded(self):
        assert fem._disk_topology.cache_info().maxsize == fem._DISK_TOPOLOGY_CACHE == 8

    def test_topology_is_read_only(self, ref_disk):
        top = mesh_disk(ref_disk, ref_disk.radius / 8)._topology
        arrays = [top.ring, top.unit, top.elements, top.rim, top.plan.slot, top.plan.rows,
                  top.plan.indptr, top.plan.transpose, top.plan.layout.free]
        assert all(not a.flags.writeable for a in arrays)
        assert all(a.dtype == np.int32 for a in arrays[4:8])


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
    """_positive_definite factors only the even-dof block of a matrix whose
    even and odd dofs are uncoupled with equal blocks (a disk's mass); it
    agrees with the full factorization on any symmetric matrix."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_agrees_with_full_factorization(self, sparse):
        verdicts = {True: [], False: []}
        for seed in range(400):
            a, decoupled = _component_matrices(seed)
            eig = np.linalg.eigvalsh(a)
            if abs(eig).min() < 1e-6 * abs(eig).max():   # too near singular to compare
                continue
            stored = fem._csc_type()(a) if sparse else a
            block = fem._component_block(stored)
            assert (block is not None) == decoupled
            if block is not None:
                assert type(block) is type(stored) and block.shape == (len(a) // 2,) * 2
            assert fem._positive_definite(stored) == (eig.min() > 0)
            verdicts[decoupled].append(eig.min() > 0)
        for found in verdicts.values():   # PD and indefinite, decoupled and coupled
            assert 20 < sum(found) < len(found) - 20

    def test_disk_mass_is_reduced(self, disk_r12, monkeypatch):
        block = fem._component_block(disk_r12.mass)
        assert block is not None and block.shape[0] == len(disk_r12.dof_map) // 2
        assert _bits_equal(block.toarray(), disk_r12.mass.toarray()[0::2, 0::2])
        sizes = []
        lu = fem._symmetric_lu

        def recording(a):
            sizes.append(a.shape[0])
            return lu(a)

        monkeypatch.setattr(fem, "_symmetric_lu", recording)
        assert fem._positive_definite(disk_r12.mass)
        assert sizes == [len(disk_r12.dof_map) // 2]

    @pytest.mark.parametrize("divisor", [5, 8])
    @pytest.mark.parametrize("coupled", [False, True])
    def test_indefinite_mass_template_refused(self, monkeypatch, ref_disk, silicon,
                                              divisor, coupled):
        template = fem._ME_TRI.copy()
        template[[0, 1], [2, 3]] = template[[2, 3], [0, 1]] = 3.0   # |offdiag| > diag
        if coupled:
            template[0, 1] = template[1, 0] = 0.01
        monkeypatch.setattr(fem, "_ME_TRI", template)
        with pytest.raises(InvariantError, match="mass matrix not positive-definite"):
            assemble_disk(ref_disk, silicon, mesh_disk(ref_disk, ref_disk.radius / divisor))


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
        # evaluated, and the solve fails rather than skip it
        geom = DiskGeometry(3e-6, 0.4e-306)
        with pytest.raises(EigenSolveError, match="overflow"):
            disk_modal_fem(geom, silicon, mesh_disk(geom, 0.6e-6), n_modes=2)

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
