import math

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import csc_array
from scipy.sparse import eye_array as sparse_eye

from resokit import fem
from resokit.analytic import beam_mode_frequency, disk_wineglass_frequency
from resokit.core import BeamGeometry, DiskGeometry, VibrationAxis
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
        sys_ = assemble_beam(ref_beam, silicon, 160)
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
        calls = []
        scatter = fem._scatter

        def recording(dofs, ke, me, ndof, n_free):
            calls.append((dofs, ke, me, ndof))
            return scatter(dofs, ke, me, ndof, n_free)

        monkeypatch.setattr(fem, "_scatter", recording)
        sys_ = assemble(*args)
        (dofs, ke, me, ndof), = calls
        return sys_, _dense_scatter(dofs, ke, ndof), _dense_scatter(dofs, me, ndof)

    def _check(self, sys_, k_ref, m_ref):
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
    def test_beam_bitwise_dense_scatter(self, monkeypatch, silicon, axis, clamped, n):
        geom = BeamGeometry(10e-6, 0.46e-6, 0.4e-6, axis)
        sys_, k_ref, m_ref = self._assemble_recording(
            monkeypatch, assemble_beam, geom, silicon, n, clamped)
        self._check(sys_, k_ref, m_ref)

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
        if vec[sys_._tdofs[np.argmax(np.abs(vec[sys_._tdofs]))]] < 0:
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
    def test_dense_beam_equals_loop(self, ref_beam, silicon, n, clamped, k):
        sys_ = assemble_beam(ref_beam, silicon, n, clamped)
        vals, vecs = eigh(sys_._kf, sys_._mf, subset_by_index=(0, k - 1))
        self._check(solve_modes(sys_, k), _loop_normalized(sys_, vals, vecs))

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
