"""In-house FEM modal solver.

Beam eigenmodes use 2-node Euler-Bernoulli elements (cubic Hermite shape
functions, consistent mass). Disk in-plane eigenmodes use linear-triangle
plane-stress elements on a structured polar mesh. Element matrices are
built for all elements at once and scattered in one step.

One threshold, _SPARSE_MIN_DOF (300 free dofs), picks both how K and M are
stored and how they are solved. At or below it, assembly scatters into
dense ndof x ndof arrays, Cholesky proves the mass matrix SPD and LAPACK
dsygvx, called directly as scipy.linalg.eigh would call it, returns the
modes. Above it, assembly scatters straight into CSC (no dense matrix is
ever built), the mass matrix is proved SPD with a sparse LDL^T, and the
lowest modes come from shift-invert Lanczos (ARPACK) on a sparse LU of
K - sigma*M, polished by one inverse-iteration step and a Rayleigh-Ritz
projection (dsygvx again). LAPACK is faster on small systems,
and ARPACK needs k well below n: a sparse system asked for k >= n/4 modes
is solved densely too. Both paths share the residual gate, normalization
and sign convention.

scipy.linalg and scipy.sparse are imported inside the functions that call
them: importing this module, or building a mesh, loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import BeamGeometry, DiskGeometry, Material, ModeResult, VibrationAxis
from .errors import (AmbiguousAngularOrderError, EigenSolveError, InvariantError,
                     MeshError, RigidBodyModeError)

_SYM_RTOL = 1e-12          # symmetry tolerance for assembled matrices
_RESIDUAL_BOUND = 1e-8     # relative eigen-residual bound per returned mode
_RIGID_RATIO = 1e-6        # rigid eigenvalue threshold vs first elastic
_SPARSE_MIN_DOF = 300      # more free dofs than this: sparse validation and solve
_AMBIGUITY_RATIO = 0.1     # harmonic energy gap below which an angular order is ambiguous
_TRANSLATIONAL = frozenset(("w", "ux", "uy"))
# most rings mesh_disk builds: radius/1000 is already 3 million nodes
_MAX_RINGS = 1000


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mesh:
    """Nodes + connectivity. kind is 'beam_1d' or 'plane_stress_2d'.

    beam_1d: nodes (N, 1) x-coordinates, elements (E, 2) segments.
    plane_stress_2d: nodes (N, 2), elements (E, 3) CCW triangles.
    """

    nodes: np.ndarray
    elements: np.ndarray
    kind: str

    def __post_init__(self):
        nodes = _readonly(np.asarray(self.nodes, dtype=float))
        elements = _readonly(np.asarray(self.elements, dtype=int))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if self.kind not in ("beam_1d", "plane_stress_2d"):
            raise MeshError(f"unknown mesh kind {self.kind!r}")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise MeshError("element connectivity index out of range")
        if self.kind == "beam_1d":
            if elements.shape[1] != 2:
                raise MeshError("beam_1d elements must have 2 nodes")
            lengths = np.abs(nodes[elements[:, 1], 0] - nodes[elements[:, 0], 0])
            if np.any(lengths <= 0):
                raise MeshError("degenerate beam element (zero length)")
        else:
            if elements.shape[1] != 3:
                raise MeshError("plane_stress_2d elements must have 3 nodes")
            if np.any(self.triangle_areas() <= 0):
                raise MeshError("degenerate or negatively oriented triangle")

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes[self.elements]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


@dataclass(frozen=True)
class AssembledSystem:
    """Assembled K, M with dof bookkeeping.

    dof_map[i] = (node index, component), component in {'w','theta','ux','uy'}.
    constraints is the sorted tuple of fixed dof indices. mesh is kept for
    mode identification and export.

    K and M are stored read-only, in the form the solver uses: with at most
    _SPARSE_MIN_DOF free dofs as C-ordered dense arrays, above it as CSC
    (sorted row indices, no duplicate or explicit zero entries, index
    arrays of their own, `nbytes` = bytes of data + indices + indptr).
    Either form is accepted and converted: a dense matrix above the
    threshold with scipy's csc_array, a sparse one at or below it with
    toarray.
    """

    stiffness: object
    mass: object
    dof_map: tuple
    constraints: tuple
    mesh: Mesh | None = field(default=None, compare=False)
    # Built once by __post_init__. _kf/_mf are the free-dof blocks of K and
    # M, stored as K and M are. _tdofs lists the translational dofs; row j
    # of _tnode_dofs holds the translational dofs of the j-th node that has
    # any, padded with ndof.
    _free: np.ndarray = field(init=False, repr=False, compare=False)
    _kf: object = field(init=False, repr=False, compare=False)
    _mf: object = field(init=False, repr=False, compare=False)
    _tdofs: np.ndarray = field(init=False, repr=False, compare=False)
    _tnode_dofs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "dof_map", tuple(self.dof_map))
        object.__setattr__(self, "constraints", tuple(sorted(self.constraints)))
        n = len(self.dof_map)
        fixed = np.zeros(n, dtype=bool)
        for i in self.constraints:
            if not 0 <= i < n:
                raise InvariantError(f"constraint {i!r} is not a dof index in [0, {n})")
            fixed[i] = True
        free = _readonly(np.flatnonzero(~fixed))
        sparse = len(free) > _SPARSE_MIN_DOF
        k, m = _stored(self.stiffness, sparse), _stored(self.mass, sparse)
        object.__setattr__(self, "stiffness", k)
        object.__setattr__(self, "mass", m)
        if k.shape != (n, n) or m.shape != (n, n):
            raise InvariantError("stiffness/mass/dof_map sizes inconsistent")
        blocks = []
        for name, a in (("stiffness", k), ("mass", m)):
            if not np.isfinite(a.data if sparse else a).all():
                raise InvariantError(f"{name} matrix has non-finite entries")
            if abs(a - a.T).max() > _SYM_RTOL * abs(a).max():
                raise InvariantError(f"{name} matrix not symmetric")
            blocks.append(a[:, free][free] if len(free) < n else a)
        if not _positive_definite(blocks[1]):
            raise InvariantError("mass matrix not positive-definite on free dofs")
        tdofs, tnode_dofs = _translational_layout(self.dof_map)
        for name, value in (("_free", free), ("_kf", blocks[0]), ("_mf", blocks[1]),
                            ("_tdofs", tdofs), ("_tnode_dofs", tnode_dofs)):
            object.__setattr__(self, name, value)

    def free_dofs(self) -> np.ndarray:
        return self._free


@cache
def _csc_type():
    """The CSC class K and M are stored as: scipy's csc_array, plus the
    `nbytes` that dense arrays have. Built on first use, so that importing
    this module loads no scipy module."""
    from scipy.sparse import csc_array

    class CSC(csc_array):
        @property
        def nbytes(self) -> int:
            return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    return CSC


def _stored(a, sparse: bool):
    """K or M in the form AssembledSystem stores it (see its docstring)."""
    if not sparse:
        return _readonly(np.asarray(a.toarray(order="C") if hasattr(a, "tocsc") else a,
                                    dtype=float))
    csc = _csc_type()
    if type(a) is not csc:   # a caller's matrix; assembly builds canonical CSC
        a = csc(a, dtype=float, copy=True)
        a.sum_duplicates()
        a.eliminate_zeros()
    for part in (a.data, a.indices, a.indptr):
        part.flags.writeable = False
    return a


def _symmetric_lu(a):
    """Sparse LU of a CSC matrix with symmetric structure: a fill-reducing
    ordering of A + A^T, and the diagonal pivot whenever it is nonzero."""
    from scipy.sparse.linalg import splu
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _positive_definite(a) -> bool:
    """Dense: Cholesky succeeds. CSC: the symmetric LU pivots only on the
    diagonal (perm_r == perm_c, so it is an LDL^T) and every pivot is
    positive."""
    if isinstance(a, np.ndarray):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    try:
        lu = _symmetric_lu(a)
    except RuntimeError:   # exactly singular
        return False
    return bool(np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0))


def _translational_layout(dof_map):
    """(translational dofs ascending, per-node translational dof table).

    Table rows follow node number; each row lists the node's translational
    dofs in dof order, padded with len(dof_map).
    """
    nodes, comps = zip(*dof_map)
    tdofs = np.flatnonzero(np.fromiter(map(_TRANSLATIONAL.__contains__, comps),
                                       dtype=bool, count=len(comps)))
    tnodes = np.array(nodes)[tdofs]
    order = np.argsort(tnodes, kind="stable")
    tnodes = tnodes[order]
    # new[j]: the j-th dof in node order is its node's first
    new = np.empty(len(tnodes), dtype=bool)
    new[:1] = True
    np.not_equal(tnodes[1:], tnodes[:-1], out=new[1:])
    row = np.cumsum(new) - 1
    col = np.arange(len(tnodes)) - np.flatnonzero(new)[row]
    table = np.full((int(new.sum()), int(col.max(initial=0)) + 1), len(dof_map))
    table[row, col] = tdofs[order]
    return _readonly(tdofs), _readonly(table)


def _scatter(dofs: np.ndarray, ke: np.ndarray, me: np.ndarray, ndof: int,
             n_free: int):
    """(K, M): element matrices ke[e], me[e] summed, in element order, at
    rows and columns dofs[e] of ndof x ndof matrices.

    Dense with at most _SPARSE_MIN_DOF free dofs. Above it, CSC built from
    the triplets (Davis, Direct Methods for Sparse Linear Systems, ch. 2):
    one sort of the keys col*ndof + row, shared by K and M, and one
    bincount per matrix, so each entry is the sum the dense scatter forms.
    Exact zeros (cancelled couplings) are dropped, as a dense-to-CSC
    conversion drops them.
    """
    if n_free <= _SPARSE_MIN_DOF:
        flat = (dofs[:, :, None] * ndof + dofs[:, None, :]).ravel()
        return tuple(np.bincount(flat, weights=e.ravel(), minlength=ndof * ndof)
                     .reshape(ndof, ndof) for e in (ke, me))
    keys, slot = np.unique((dofs[:, None, :] * ndof + dofs[:, :, None]).ravel(),
                           return_inverse=True)
    csc = _csc_type()
    out = []
    for e in (ke, me):
        data = np.bincount(slot, weights=e.ravel(), minlength=len(keys))
        nonzero = data != 0
        cols, rows = np.divmod(keys[nonzero], ndof)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ndof))))
        out.append(csc((data[nonzero], rows, indptr), shape=(ndof, ndof)))
    return tuple(out)


# ---------------------------------------------------------------------------
# beam assembly

def _beam_section(geom: BeamGeometry):
    """(area, bending inertia) about the axis selected by vibration_axis."""
    w, t = geom.width, geom.thickness
    if geom.vibration_axis is VibrationAxis.IN_PLANE:
        inertia = t * np.float_power(w, 3) / 12.0    # deflection along width
    else:
        inertia = w * np.float_power(t, 3) / 12.0    # deflection along thickness
    return w * t, inertia


def assemble_beam(geom: BeamGeometry, mat: Material, n_elements: int,
                  clamped: bool = True) -> AssembledSystem:
    """Euler-Bernoulli beam with consistent mass; both ends clamped by default."""
    if n_elements < 2:
        raise InvariantError(f"n_elements must be >= 2, got {n_elements}")
    le = geom.length / n_elements
    # powers by libm pow, as Python's **, but an overflow (or a division by
    # an le^3 that underflows) is a non-finite entry AssembledSystem refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        area, inertia = _beam_section(geom)
        ei, ral = mat.youngs_modulus * inertia, mat.density * area * le
        le2, le3 = np.float_power(le, 2), np.float_power(le, 3)
        k_scale = ei / le3
        ke = k_scale * np.array([
            [12, 6 * le, -12, 6 * le],
            [6 * le, 4 * le2, -6 * le, 2 * le2],
            [-12, -6 * le, 12, -6 * le],
            [6 * le, 2 * le2, -6 * le, 4 * le2]])
        me = (ral / 420.0) * np.array([
            [156, 22 * le, 54, -13 * le],
            [22 * le, 4 * le2, 13 * le, -3 * le2],
            [54, 13 * le, 156, -22 * le],
            [-13 * le, -3 * le2, -22 * le, 4 * le2]])
    if not k_scale > 0:   # an underflow: a zero K would give 0 Hz modes
        raise InvariantError(f"beam element stiffness EI/le^3 must be > 0, got {float(k_scale)!r}")

    n_nodes = n_elements + 1
    ndof = 2 * n_nodes
    dofs = 2 * np.arange(n_elements)[:, None] + np.arange(4)
    constraints = (0, 1, ndof - 2, ndof - 1) if clamped else ()
    k, m = _scatter(dofs, np.broadcast_to(ke, (n_elements, 4, 4)),
                    np.broadcast_to(me, (n_elements, 4, 4)), ndof,
                    ndof - len(constraints))

    dof_map = tuple((node, comp) for node in range(n_nodes) for comp in ("w", "theta"))
    mesh = Mesh(nodes=np.linspace(0.0, geom.length, n_nodes)[:, None],
                elements=np.column_stack([np.arange(n_elements),
                                          np.arange(1, n_elements + 1)]),
                kind="beam_1d")
    return AssembledSystem(k, m, dof_map, constraints, mesh)


# ---------------------------------------------------------------------------
# disk mesh + plane-stress assembly

def mesh_disk(geom: DiskGeometry, target_edge: float) -> Mesh:
    """Structured polar mesh: ring i at radius R*i/m carries 6*i nodes.

    Near-equilateral triangles, deterministic construction, boundary nodes
    exactly on the circle. m is chosen so the radial step matches
    target_edge.
    """
    r_out = geom.radius
    if not 0 < target_edge < r_out / 4:
        raise MeshError(f"target_edge must be in (0, radius/4), got {target_edge}")
    if not r_out / target_edge <= _MAX_RINGS:
        raise MeshError(f"target_edge {target_edge} needs more than {_MAX_RINGS} rings")
    m = max(4, round(r_out / target_edge))
    nodes = [(0.0, 0.0)]
    rings = [[0]]
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
            c = inner[0]
            for j in range(no):
                tris.append((c, outer[j], outer[(j + 1) % no]))
            continue
        # advance whichever ring pointer trails in angle (two-pointer strip)
        a = b = 0
        while a < ni or b < no:
            take_inner = (b >= no) or (a < ni and (a + 1) * no <= (b + 1) * ni)
            if take_inner:
                tris.append((inner[a % ni], outer[b % no], inner[(a + 1) % ni]))
                a += 1
            else:
                tris.append((inner[a % ni], outer[b % no], outer[(b + 1) % no]))
                b += 1
    return Mesh(nodes=np.array(nodes), elements=np.array(tris, dtype=int),
                kind="plane_stress_2d")


def assemble_disk(geom: DiskGeometry, mat: Material, mesh: Mesh) -> AssembledSystem:
    """Plane-stress CST stiffness + consistent mass, free boundary."""
    if mesh.kind != "plane_stress_2d":
        raise MeshError("disk assembly needs a plane_stress_2d mesh")
    e_mod, nu, rho, t = (mat.youngs_modulus, mat.poisson_ratio,
                         mat.density, geom.thickness)
    d_mat = e_mod / (1 - nu**2) * np.array([
        [1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
    me_template = np.array([
        [2, 0, 1, 0, 1, 0], [0, 2, 0, 1, 0, 1], [1, 0, 2, 0, 1, 0],
        [0, 1, 0, 2, 0, 1], [1, 0, 1, 0, 2, 0], [0, 1, 0, 1, 0, 2]]) / 12.0

    n = len(mesh.nodes)
    x, y = mesh.nodes[mesh.elements, 0], mesh.nodes[mesh.elements, 1]  # (E, 3)
    det = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
           - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
    area = 0.5 * det
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)   # b_i = y_j - y_l
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)   # c_i = x_l - x_j
    b_mat = np.zeros((len(det), 3, 6))
    b_mat[:, 0, 0::2] = b
    b_mat[:, 1, 1::2] = c
    b_mat[:, 2, 0::2] = c
    b_mat[:, 2, 1::2] = b
    b_mat *= (1.0 / det)[:, None, None]
    # batched matmul, not einsum: it rounds exactly as the per-element B^T D B
    ke = (t * area)[:, None, None] * (b_mat.transpose(0, 2, 1) @ d_mat @ b_mat)
    me = (rho * t * area)[:, None, None] * me_template
    dofs = (2 * mesh.elements[:, :, None] + np.arange(2)).reshape(-1, 6)
    k, m = _scatter(dofs, ke, me, 2 * n, 2 * n)

    dof_map = tuple((node, comp) for node in range(n) for comp in ("ux", "uy"))
    return AssembledSystem(k, m, dof_map, (), mesh)


# ---------------------------------------------------------------------------
# eigensolver

def _translational_amplitude(sys: AssembledSystem, vecs: np.ndarray) -> np.ndarray:
    """Per-node displacement magnitude from translational dof components
    (the last axis of `vecs` runs over dofs, as in _rim_radial)."""
    padded = np.concatenate((vecs, np.zeros(vecs.shape[:-1] + (1,))), axis=-1)
    return np.hypot.reduce(padded[..., sys._tnode_dofs], axis=-1, initial=0.0)


@cache
def _dsygvx_lwork(n: int) -> int:
    """Workspace length dsygvx asks for on an n x n lower-triangle pencil."""
    from scipy.linalg.lapack import dsygvx_lwork
    work, info = dsygvx_lwork(n, uplo="L")
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsygvx_lwork returned info {info}")
    return int(work)


def _dense_modes(a: np.ndarray, b: np.ndarray, k: int):
    """k lowest eigenpairs of the dense symmetric-definite pencil (a, b),
    ascending, from LAPACK dsygvx on the lower triangles.

    The call, workspace and slicing are those of scipy.linalg.eigh(a, b,
    subset_by_index=(0, k - 1)), so the pairs are bitwise eigh's; eigh's
    argument checks are left out (AssembledSystem validated K and M).
    """
    from scipy.linalg.lapack import dsygvx
    vals, vecs, found, _, info = dsygvx(a, b, range="I", il=1, iu=k, uplo="L",
                                        lwork=_dsygvx_lwork(a.shape[0]))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK dsygvx returned info {info}")
    return vals[:found], vecs[:, :found]


def _shift_invert_modes(kk, mm, k: int):
    """k lowest eigenpairs of the CSC pencil (kk, mm), ascending; needs 4k < n.

    The shift sits just below zero, at 1e-12 of the median diagonal ratio,
    so K - sigma*M is positive definite even with rigid-body modes (a shift
    of 1e-6 of that ratio returned wrong eigenpairs on 1024-element and
    free-free beams). ARPACK starts from a fixed vector, so the result is
    deterministic, and finds 2k pairs: asked for k alone it split
    degenerate disk pairs at the window edge, missed an eigenvalue at k = 12
    on disks R/8 to R/20 and left residuals up to 1e-7. One
    inverse-iteration step with the same factorization and a 2k x 2k
    Rayleigh-Ritz projection then bring the disk residuals below 1e-9.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = kk.shape[0]
    sigma = -1e-12 * float(np.median(kk.diagonal() / mm.diagonal()))
    lu = _symmetric_lu(kk - sigma * mm)
    op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    _, vecs = eigsh(kk, 2 * k, M=mm, sigma=sigma, OPinv=op, v0=np.ones(n))
    x = lu.solve(mm @ vecs)
    vals, q = _dense_modes(x.T @ (kk @ x), x.T @ (mm @ x), k)
    return vals, x @ q


def solve_modes(sys: AssembledSystem, k: int):
    """k lowest modes of K*phi = lambda*M*phi on the constrained system.

    Returns [(frequency_hz, mode_vector)] sorted ascending. Mode vectors are
    full length (zeros at constrained dofs) and normalized to unit maximum
    translational displacement. Deterministic for fixed input.
    """
    free = sys.free_dofs()
    if not 1 <= k <= len(free):
        raise EigenSolveError(f"k must be in [1, {len(free)}], got {k}")
    kk, mm = sys._kf, sys._mf
    try:
        if isinstance(kk, np.ndarray):
            vals, vecs = _dense_modes(kk, mm, k)
        elif 4 * k >= len(free):
            vals, vecs = _dense_modes(kk.toarray(), mm.toarray(), k)
        else:
            vals, vecs = _shift_invert_modes(kk, mm, k)
    except (np.linalg.LinAlgError, RuntimeError) as exc:   # ArpackError is a RuntimeError
        raise EigenSolveError(f"generalized eigensolver failed: {exc}") from None

    # residual bound is meaningful only away from the rigid-body null space
    kv = kk @ vecs
    with np.errstate(over="ignore"):
        norm_kv, norm_v = np.linalg.norm(kv, axis=0), np.linalg.norm(vecs, axis=0)
    if not (np.isfinite(norm_kv).all() and np.isfinite(norm_v).all()):
        # M-normalized vectors of a mass matrix near the float floor
        raise EigenSolveError("mode vector norms overflow; the residual cannot be gated")
    elastic = norm_kv > 1e-9 * float(abs(kk).max()) * norm_v
    resid = np.linalg.norm(kv - vals * (mm @ vecs), axis=0) / np.where(elastic, norm_kv, 1.0)
    bad = np.flatnonzero(elastic & (resid > _RESIDUAL_BOUND))
    if bad.size:
        raise EigenSolveError(
            f"eigen-residual {resid[bad[0]]:.2e} exceeds {_RESIDUAL_BOUND:.0e} "
            f"for mode {bad[0]}")

    full = np.zeros((len(vals), len(sys.dof_map)))
    full[:, free] = vecs.T
    peak = np.max(_translational_amplitude(sys, full), axis=1)
    full /= np.where(peak > 0, peak, 1.0)[:, None]
    # sign convention: largest-magnitude translational dof positive
    tvals = full[:, sys._tdofs]
    lead = tvals[np.arange(len(full)), np.argmax(np.abs(tvals), axis=1)]
    full[lead < 0] *= -1.0
    return [(math.sqrt(max(lam, 0.0)) / (2 * math.pi), vec)
            for lam, vec in zip(vals.tolist(), full)]


def _rim_radial(mesh: Mesh, vectors: np.ndarray):
    """Angles of the outer-rim nodes, ascending, and the radial displacement
    u_r there of each mode vector (the last axis of `vectors` runs over
    dofs, so one vector gives one row and a stack gives one row each)."""
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    bnd = np.flatnonzero(r >= float(r.max()) * (1 - 1e-9))
    theta = np.arctan2(mesh.nodes[bnd, 1], mesh.nodes[bnd, 0])
    order = np.argsort(theta)
    bnd, theta = bnd[order], theta[order]
    x, y = mesh.nodes[bnd, 0], mesh.nodes[bnd, 1]
    return theta, (vectors[..., 2 * bnd] * x + vectors[..., 2 * bnd + 1] * y) / r[bnd]


def _dominant_harmonic(theta: np.ndarray, u_rad: np.ndarray) -> int:
    """Index of the cos/sin harmonic of u_rad(theta) with the largest
    energy; see identify_angular_order."""
    nb = len(theta)
    n = np.arange(max(1, (nb - 1) // 2) + 1)
    scale = np.where(n == 0, 1.0 / nb, 2.0 / nb)  # DC component has no pair
    a = np.sum(u_rad * np.cos(n[:, None] * theta), axis=1) * scale
    b = np.sum(u_rad * np.sin(n[:, None] * theta), axis=1) * scale
    energies = a * a + b * b
    top = int(np.argmax(energies))
    rest = energies.copy()
    rest[top] = -1.0
    second = int(np.argmax(rest))
    e1, e2 = energies[top], energies[second]
    if e1 <= 0:
        raise AmbiguousAngularOrderError("boundary radial displacement is zero",
                                         (top, second))
    if (e1 - e2) / e1 < _AMBIGUITY_RATIO:
        raise AmbiguousAngularOrderError(
            f"harmonics {top} and {second} within {_AMBIGUITY_RATIO:.0%} energy",
            (top, second))
    return top


def identify_angular_order(mode_vector: np.ndarray, mesh: Mesh) -> int:
    """Dominant harmonic of the boundary radial displacement.

    Projects u_r(theta) on the outer ring onto cos/sin harmonics and returns
    the index with the largest energy. Raises AmbiguousAngularOrderError
    when the two largest harmonic energies are within 10% of each other.
    """
    if mesh.kind != "plane_stress_2d":
        raise MeshError("angular order identification needs a disk mesh")
    theta, u_rad = _rim_radial(mesh, mode_vector)
    return _dominant_harmonic(theta, u_rad)


def disk_modal_fem(geom: DiskGeometry, mat: Material, mesh: Mesh,
                   n_modes: int = 6):
    """Free-boundary elastic disk modes as ModeResults.

    Discards the 3 rigid-body modes, labels each elastic mode with its
    boundary angular order, and reduces it to effective parameters at the
    rim radial antinode (m_eff = phi^T M phi with max |u_r| on the boundary
    scaled to 1).
    """
    return solve_disk(geom, mat, mesh, n_modes)[2]


def solve_disk(geom: DiskGeometry, mat: Material, mesh: Mesh, n_modes: int = 6):
    """Assemble and solve a free disk once: (system, elastic modes as
    [(frequency_hz, mode_vector)], their ModeResults as disk_modal_fem
    returns them)."""
    sys = assemble_disk(geom, mat, mesh)
    modes = solve_modes(sys, n_modes + 3)
    lam = np.array([(2 * math.pi * f)**2 for f, _ in modes])
    if len(lam) < 4:
        raise RigidBodyModeError("need at least 4 modes to separate rigid body motion")
    first_elastic = lam[3]
    n_rigid = int(np.sum(lam[:4] < _RIGID_RATIO * first_elastic))
    if n_rigid != 3:
        raise RigidBodyModeError(
            f"expected 3 rigid-body modes for a free disk, found {n_rigid}")

    theta, u_rads = _rim_radial(mesh, np.array([vec for _, vec in modes[3:]]))
    free = sys.free_dofs()

    results = []
    for (freq, vec), u_rad in zip(modes[3:], u_rads):
        try:
            order = _dominant_harmonic(theta, u_rad)
        except AmbiguousAngularOrderError:
            order = 0
        rim = float(np.max(np.abs(u_rad)))
        if rim <= 0:
            continue
        scaled = vec[free] / rim
        m_eff = float(scaled @ sys._mf @ scaled)
        w0 = 2 * math.pi * freq
        amp = _translational_amplitude(sys, vec)
        shape = amp / np.max(amp)
        results.append(ModeResult(frequency=freq, mode_order=order,
                                  effective_mass=m_eff,
                                  effective_stiffness=w0 * w0 * m_eff,
                                  mode_shape=shape))
    return sys, modes[3:], results


# ---------------------------------------------------------------------------
# export

def export_mesh(mesh: Mesh, path):
    """Plain-text mesh: 'node i x [y]' and 'elem i n0 n1 [n2]' lines."""
    with open(path, "w") as f:
        f.write(f"# mesh kind={mesh.kind} nodes={len(mesh.nodes)} "
                f"elements={len(mesh.elements)}\n")
        for i, xy in enumerate(mesh.nodes):
            f.write("node " + str(i) + " " + " ".join(repr(float(v)) for v in xy) + "\n")
        for i, conn in enumerate(mesh.elements):
            f.write("elem " + str(i) + " " + " ".join(str(int(v)) for v in conn) + "\n")


def export_modes_csv(sys: AssembledSystem, modes, path):
    """CSV of nodal displacement components for each (freq, vector) pair."""
    mesh = sys.mesh
    nodes, comp_of = (np.asarray(v) for v in zip(*sys.dof_map))
    comps, col = np.unique(comp_of, return_inverse=True)
    # dof_of[node, c] is the dof of component comps[c] at node, -1 if none
    dof_of = np.full((len(mesh.nodes), len(comps)), -1)
    dof_of[nodes, col] = np.arange(len(sys.dof_map))
    with open(path, "w") as f:
        header = ["node"] + [f"coord{ax}" for ax in range(mesh.nodes.shape[1])]
        for k, (freq, _) in enumerate(modes):
            header += [f"mode{k}_f{freq:.6g}_{c}" for c in comps]
        f.write(",".join(header) + "\n")
        for node in range(len(mesh.nodes)):
            row = [str(node)] + [repr(float(v)) for v in mesh.nodes[node]]
            for _, vec in modes:
                row += [repr(float(vec[i])) if i >= 0 else "" for i in dof_of[node]]
            f.write(",".join(row) + "\n")
