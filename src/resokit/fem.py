"""In-house FEM modal solver.

Beam eigenmodes use 2-node Euler-Bernoulli elements (cubic Hermite shape
functions, consistent mass). Disk in-plane eigenmodes use linear-triangle
plane-stress elements on a structured polar mesh. Element matrices are
built for all elements at once. One function, _plan, numbers the dofs of
a mesh topology and works out where each element entry is summed; one
function, _system, sums the element matrices by that plan and gates the
result, for the unit beam and every disk.

One threshold, _SPARSE_MIN_DOF (300 free dofs), picks both how K and M are
stored and how they are solved. At or below it, assembly scatters into
dense ndof x ndof arrays, Cholesky proves the mass matrix SPD and LAPACK
dsygvx, called directly as scipy.linalg.eigh would call it, returns the
modes. Above it, assembly sums straight into CSC (no dense matrix is
ever built), the mass matrix is proved SPD with a sparse LDL^T, and the
lowest modes come from shift-invert Lanczos (ARPACK) on a sparse LU of
K - sigma*M, polished by one inverse-iteration step and a Rayleigh-Ritz
projection (dsygvx again). LAPACK is faster on small systems,
and ARPACK needs k well below n: a sparse system asked for k >= n/4 modes
is solved densely too. Both paths share the gates, normalization and
sign convention. Every returned mode passes a Jacobi-scaled normwise
backward-error gate (_BACKWARD_BOUND); modes away from the rigid-body
null space also pass the relative residual gate (_RESIDUAL_BOUND).

A beam is a scaled copy of its unit system. With le = L/n and D = diag(1,
le, 1, le, ...), assemble_beam's K is (EI/le^3) D K0 D and its M is
(rho*A*le/420) D M0 D, where K0 and M0 scatter _KE0 and _ME0, the only
beam element matrices, and depend only on (n_elements, clamped). The unit
system (K0, M0) is built and gated once per (n_elements, clamped) and kept
in a small LRU cache; a beam scales its stored entries (and those of its
free blocks) by the pattern (1, le, le^2) of D.D, which is bitwise the
sum of the scaled element matrices, and shares its dof numbering, free
dofs and CSC index arrays. Each beam still passes the value gate on its
own entries (finite, symmetric, M positive-definite on the free dofs), the
last by a banded Cholesky (LAPACK dpbtrf, half-bandwidth 3), O(n).
Jacobi scaling undoes the congruence, so the norms ||DKD||_F and
||DMD||_F of the backward-error gate are computed once per unit system.

A disk is built from its cached topology. Everything about mesh_disk's
mesh with m rings but the radius (connectivity, each node's ring index
and cos/sin, the dof tables, the plan and the rim nodes in angle order)
is built once per m and kept in a small LRU cache (_disk_topology). A
call scales the per-node terms by the radius, bitwise the nodes built one
by one, forms the element matrices and sums them with one bincount per
matrix into the plan's slots. The value gate reads each slot and its
transpose slot, the same symmetry number as on the stored matrices. The
CST mass is Ms (x) I2 up to the dof order (ux and uy uncoupled, with
equal blocks), so _positive_definite factors only the n/2 x n/2 block Ms
whenever the stored entries show that structure: an exact reduction. A
mesh built by a caller gets its plan from the same function, uncached.

A beam is solved once per mesh. The pencils are congruent (Golub & Van
Loan, Matrix Computations, sec. 8.7), so K0 psi = mu M0 psi gives the
beam's pairs exactly: lambda = mu * ratio with ratio = (EI/le^3) /
(rho*A*le/420), and phi = psi / d on the free dofs. assemble_beam refuses a
ratio that is not finite and > 0, so every beam it returns maps through
the unit pencil. solve_modes takes (mu, psi) from a small LRU cache keyed
by (n_elements, clamped, k), filled through the dense/sparse dispatch
above; the gates, normalization and sign convention then run on the
beam's own K and M. Disks, and systems built with AssembledSystem(...)
directly, are assembled, gated and solved directly.

scipy.linalg and scipy.sparse are imported inside the functions that call
them: importing this module, or building a mesh, loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .core import BeamGeometry, DiskGeometry, Material, ModeResult, VibrationAxis
from .errors import (AmbiguousAngularOrderError, EigenSolveError, InvariantError,
                     MeshError, RigidBodyModeError)

_SYM_RTOL = 1e-12          # symmetry tolerance for assembled matrices
_RESIDUAL_BOUND = 1e-8     # relative eigen-residual bound per returned mode
_BACKWARD_BOUND = 1e-12    # Jacobi-scaled backward-error bound per returned mode
_RIGID_RATIO = 1e-6        # rigid eigenvalue threshold vs first elastic
_SPARSE_MIN_DOF = 300      # more free dofs than this: sparse validation and solve
_SHIFT_RATIO = 1e-9        # shift-invert sigma, below 0, vs the median diag(K)/diag(M)
_AMBIGUITY_RATIO = 0.1     # harmonic energy gap below which an angular order is ambiguous
_SIGN_RTOL = 1e-6          # translational entries this close to the largest tie for the sign
_UNIT_BEAM_CACHE = 8       # unit-beam systems and eigenpair sets kept, each
_DISK_TOPOLOGY_CACHE = 8   # disk ring counts whose topology is kept
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
    # Set by mesh_disk only: the cached _DiskTopology of its ring count,
    # whose scatter plan and rim order assembly and mode identification reuse
    _topology: object = field(default=None, init=False, repr=False, compare=False)

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


class _Layout(NamedTuple):
    """The dof tables of a system (see AssembledSystem): dof_map and the
    sorted constraints as tuples, the free dofs, the translational dofs and
    the per-node translational dof table."""
    dof_map: tuple
    constraints: tuple
    free: np.ndarray
    tdofs: np.ndarray
    tnode_dofs: np.ndarray


def _layout(dof_map, constraints) -> _Layout:
    dof_map = tuple(dof_map)
    constraints = tuple(sorted(constraints))
    n = len(dof_map)
    fixed = np.zeros(n, dtype=bool)
    for i in constraints:
        if not 0 <= i < n:
            raise InvariantError(f"constraint {i!r} is not a dof index in [0, {n})")
        fixed[i] = True
    return _Layout(dof_map, constraints, _readonly(np.flatnonzero(~fixed)),
                   *_translational_layout(dof_map))


@dataclass(frozen=True)
class AssembledSystem:
    """Assembled K, M with dof bookkeeping.

    dof_map[i] = (node index, component), component in {'w','theta','ux','uy'}.
    constraints is the sorted tuple of fixed dof indices. mesh is kept for
    mode identification and export.

    K and M are stored read-only, in the form the solver uses: with at most
    _SPARSE_MIN_DOF free dofs as C-ordered dense arrays, above it as CSC
    (sorted row indices, no duplicate or explicit zero entries, K's and
    M's index arrays apart, `nbytes` = bytes of data + indices + indptr; a
    beam shares its read-only index arrays with its cached unit system).
    Either form is accepted and converted: a dense matrix above the
    threshold with scipy's csc_array, a sparse one at or below it with
    toarray.
    """

    stiffness: object
    mass: object
    dof_map: tuple
    constraints: tuple
    mesh: Mesh | None = field(default=None, compare=False)
    # Set by assemble_beam only: (n_elements, clamped, d on the free dofs,
    # (EI/le^3) / (rho*A*le/420), (||DKD||_F, ||DMD||_F) of the backward
    # error), the congruence that maps the unit-beam pairs to this
    # system's (see the module docstring).
    _unit_beam: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # The _Layout tables and the free-dof blocks _kf/_mf of K and M, stored
    # as K and M are. _tdofs lists the translational dofs; row j of
    # _tnode_dofs holds the translational dofs of the j-th node that has
    # any, padded with ndof. Systems built by _system and assemble_beam
    # share the tables of their plan or unit system.
    _free: np.ndarray = field(init=False, repr=False, compare=False)
    _kf: object = field(init=False, repr=False, compare=False)
    _mf: object = field(init=False, repr=False, compare=False)
    _tdofs: np.ndarray = field(init=False, repr=False, compare=False)
    _tnode_dofs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = _layout(self.dof_map, self.constraints)
        n = len(layout.dof_map)
        sparse = len(layout.free) > _SPARSE_MIN_DOF
        k, m = _stored(self.stiffness, sparse), _stored(self.mass, sparse)
        if k.shape != (n, n) or m.shape != (n, n):
            raise InvariantError("stiffness/mass/dof_map sizes inconsistent")
        kf, mf = _free_blocks(layout.free, k, m)
        _gate(k, k.T, m, m.T, mf, _positive_definite)
        self._set(layout, k, m, kf, mf, self.mesh)

    @classmethod
    def _of(cls, layout: _Layout, k, m, kf, mf, mesh: Mesh | None = None,
            unit_beam: tuple | None = None) -> "AssembledSystem":
        """The system of K, M and their free blocks, already stored and gated
        by the caller (no __post_init__)."""
        sys = object.__new__(cls)
        sys._set(layout, k, m, kf, mf, mesh, unit_beam)
        return sys

    def _set(self, layout, k, m, kf, mf, mesh, unit_beam=None):
        for name, value in (("stiffness", k), ("mass", m), ("dof_map", layout.dof_map),
                            ("constraints", layout.constraints), ("mesh", mesh),
                            ("_unit_beam", unit_beam), ("_free", layout.free),
                            ("_kf", kf), ("_mf", mf), ("_tdofs", layout.tdofs),
                            ("_tnode_dofs", layout.tnode_dofs)):
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


def _free_blocks(free: np.ndarray, k, m):
    """The free-dof blocks of K and M: K and M themselves when no dof is
    fixed."""
    if len(free) == k.shape[0]:
        return k, m
    return tuple(a[:, free][free] for a in (k, m))


def _symmetric_lu(a):
    """Sparse LU of a CSC matrix with symmetric structure: a fill-reducing
    ordering of A + A^T, and the diagonal pivot whenever it is nonzero."""
    from scipy.sparse.linalg import splu
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _values(a) -> np.ndarray:
    """The stored entries of K, M or a free block: the dense array itself,
    or the CSC data."""
    return a if isinstance(a, np.ndarray) else a.data


def _nonzeros(a):
    """(pos, rows, cols) of the nonzero stored entries of a dense or CSC a:
    their positions in _values(a).ravel(), ascending, and their rows and
    columns."""
    if isinstance(a, np.ndarray):
        rows, cols = np.nonzero(a)
        return rows * a.shape[1] + cols, rows, cols
    pos = np.flatnonzero(a.data)
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    return pos, a.indices[pos], cols[pos]


def _gate(k, kt, m, mt, mf, positive_definite):
    """The value gate of every system: K and M finite and symmetric, and M
    positive-definite on the free dofs (positive_definite(mf)). k and m are
    K and M, or arrays of their stored entries; kt and mt hold the same
    entries of the transposes."""
    for name, a, at in (("stiffness", k, kt), ("mass", m, mt)):
        if not np.isfinite(_values(a)).all():
            raise InvariantError(f"{name} matrix has non-finite entries")
        if abs(a - at).max() > _SYM_RTOL * abs(a).max():
            raise InvariantError(f"{name} matrix not symmetric")
    if not positive_definite(mf):
        raise InvariantError("mass matrix not positive-definite on free dofs")


def _component_block(a):
    """The block of a on its even dofs, stored as a is, when the even and
    odd dofs are uncoupled and their two blocks are equal (a = Ms (x) I2 up
    to the dof order, as the CST mass of a disk is); None otherwise."""
    n = a.shape[0]
    if n % 2 or n == 0:
        return None
    if isinstance(a, np.ndarray):
        even = a[0::2, 0::2]
        if a[0::2, 1::2].any() or a[1::2, 0::2].any() or not np.array_equal(even, a[1::2, 1::2]):
            return None
        return even
    counts = np.diff(a.indptr)
    if not np.array_equal(counts[0::2], counts[1::2]):
        return None
    even = np.repeat(np.arange(n) % 2 == 0, counts)   # entries of the even columns
    rows = a.indices
    if not (np.array_equal(rows % 2 == 0, even) and np.array_equal(rows[even], rows[~even] - 1)
            and np.array_equal(a.data[even], a.data[~even])):
        return None
    indptr = np.concatenate(([0], np.cumsum(counts[0::2])))
    return _csc_type()((a.data[even], rows[even] // 2, indptr), shape=(n // 2, n // 2))


def _positive_definite(a) -> bool:
    """Dense: Cholesky succeeds. CSC: the symmetric LU pivots only on the
    diagonal (perm_r == perm_c, so it is an LDL^T) and every pivot is
    positive. Where _component_block finds a = Ms (x) I2, the test runs on
    Ms alone, an exact reduction: a is positive-definite iff Ms is."""
    block = _component_block(a)
    if block is not None:
        a = block
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


def _band_positive_definite(a, band) -> bool:
    """Banded Cholesky (LAPACK dpbtrf, O(n kd^2)) succeeds on a, a dense or
    CSC matrix whose nonzero entries lie within kd of the diagonal. band is
    (src, dst, n, kd): the stored entries src of a's lower band go to the
    flat positions dst of the (n, kd + 1) array whose row j is column j
    from the diagonal down."""
    from scipy.linalg.lapack import dpbtrf
    src, dst, n, kd = band
    ab = np.zeros(n * (kd + 1))
    ab[dst] = _values(a).ravel()[src]
    _, info = dpbtrf(ab.reshape(n, kd + 1).T, lower=1, overwrite_ab=1)
    return info == 0


def _lower_band(a):
    """(src, dst, n, kd) of _band_positive_definite for the dense or CSC
    symmetric matrix a: kd is the largest distance of a nonzero entry from
    the diagonal, src the nonzero stored entries on or below it."""
    pos, rows, cols = _nonzeros(a)
    lower = rows >= cols
    offset = rows[lower] - cols[lower]
    kd = int(offset.max(initial=0))
    return (_readonly(pos[lower]), _readonly(cols[lower] * (kd + 1) + offset),
            a.shape[0], kd)


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


class _Plan(NamedTuple):
    """How the element matrices of one mesh topology are summed into K and M.

    slot[e, p, q] (int32) is the stored entry that entry (p, q) of element
    e's matrix is summed into. With at most _SPARSE_MIN_DOF free dofs it is
    a row-major position in the dense ndof x ndof matrix (n_slots = ndof^2)
    and rows, indptr and transpose are None. Above it, the slots are the
    n_slots distinct (row, column) pairs in CSC order (column, then row):
    rows (int32) and indptr place them, and transpose[s] (int32) is the
    slot of the transpose of slot s.
    """
    layout: _Layout
    slot: np.ndarray
    n_slots: int
    rows: np.ndarray | None
    indptr: np.ndarray | None
    transpose: np.ndarray | None


def _plan(elements: np.ndarray, comps: tuple, n_nodes: int,
          fixed_nodes: tuple = ()) -> _Plan:
    """The _Plan of elements[e] on n_nodes nodes, each carrying the dofs
    comps, numbered node-major; every dof of fixed_nodes is constrained."""
    nc = len(comps)
    ndof = nc * n_nodes
    dofs = (nc * elements[:, :, None] + np.arange(nc)).reshape(len(elements), -1)
    layout = _layout(((node, comp) for node in range(n_nodes) for comp in comps),
                     (nc * node + i for node in fixed_nodes for i in range(nc)))
    shape = dofs.shape + dofs.shape[1:]
    if len(layout.free) <= _SPARSE_MIN_DOF:
        slot = dofs[:, :, None] * ndof + dofs[:, None, :]
        return _Plan(layout, _readonly(slot.astype(np.int32)), ndof * ndof, None, None, None)
    keys, slot = np.unique((dofs[:, None, :] * ndof + dofs[:, :, None]).ravel(),
                           return_inverse=True)
    cols, rows = np.divmod(keys, ndof)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ndof))))
    transpose = np.searchsorted(keys, rows * ndof + cols)
    return _Plan(layout, _readonly(slot.reshape(shape).astype(np.int32)), len(keys),
                 *(_readonly(a.astype(np.int32)) for a in (rows, indptr, transpose)))


def _system(plan: _Plan, ke, me, mesh: Mesh | None = None) -> AssembledSystem:
    """The gated AssembledSystem of element matrices ke[e], me[e] (or one
    pair for every element) summed by plan.

    One bincount per matrix over the plan's slots (Davis, Direct Methods
    for Sparse Linear Systems, ch. 2) sums each entry in element order, as
    a dense scatter does. In CSC, exact zeros (cancelled couplings, the
    uncoupled ux-uy entries of a disk's mass) are dropped, as a
    dense-to-CSC conversion drops them; the symmetry gate reads every slot
    and its transpose slot, the union of the patterns of K and K^T, so it
    computes max|K - K^T| as on the stored matrices.
    """
    layout, shape = plan.layout, plan.slot.shape
    ndof = len(layout.dof_map)
    slot = plan.slot.ravel()
    k_sum, m_sum = (np.bincount(slot, weights=np.broadcast_to(e, shape).ravel(),
                                minlength=plan.n_slots) for e in (ke, me))
    if plan.rows is None:
        k, m = (_readonly(s.reshape(ndof, ndof)) for s in (k_sum, m_sum))
        gated = (k, k.T, m, m.T)
    else:
        k, m = (_compressed(plan, s) for s in (k_sum, m_sum))
        gated = (k_sum, k_sum[plan.transpose], m_sum, m_sum[plan.transpose])
    kf, mf = _free_blocks(layout.free, k, m)
    _gate(*gated, mf, _positive_definite)
    return AssembledSystem._of(layout, k, m, kf, mf, mesh)


def _compressed(plan: _Plan, data: np.ndarray):
    """The read-only CSC matrix of the slot sums data, less its exact zeros,
    with index arrays of its own (int64, as scipy builds them from int64
    triplets)."""
    keep = data != 0
    indptr = np.concatenate(([0], np.cumsum(keep)))[plan.indptr]
    ndof = len(plan.indptr) - 1
    a = _csc_type()((data[keep], plan.rows[keep].astype(np.int64), indptr),
                    shape=(ndof, ndof))
    for part in (a.data, a.indices, a.indptr):
        part.flags.writeable = False
    return a


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


# The only beam element matrices, those of a unit beam: an element of length
# le is (EI/le^3) D _KE0 D and (rho*A*le/420) D _ME0 D, D = diag(1, le, 1, le)
_KE0 = np.array([[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]])
_ME0 = np.array([[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22],
                 [-13, -3, -22, 4]])


class _Entries(NamedTuple):
    """The nonzero stored entries of a unit-beam matrix: their flat positions
    in _values, their values, their parity (how many of their row and
    column dofs are rotations, int8), for K and M the position in this
    table of each entry's transpose, and the matrix's form: the unit CSC
    matrix itself (whose index arrays a beam shares), or the shape of the
    dense array, which is not kept."""
    pos: np.ndarray
    values: np.ndarray
    parity: np.ndarray
    transpose: np.ndarray | None
    form: object


class _UnitBeam(NamedTuple):
    """A cached unit beam: its dof tables, the _Entries of K0, M0 and their
    free blocks (kf is k when no dof is fixed), the lower band of the free
    mass block for _band_positive_definite, and (||DK0D||_F, ||DM0D||_F) on
    the free dofs, D = |diag K0|^-1/2, for the backward-error gate."""
    layout: _Layout
    k: _Entries
    m: _Entries
    kf: _Entries
    mf: _Entries
    band: tuple
    norms: tuple


@lru_cache(maxsize=_UNIT_BEAM_CACHE)
def _unit_beam_system(n_elements: int, clamped: bool) -> _UnitBeam:
    """The _UnitBeam on n_elements, built from _KE0 and _ME0 by _system and
    gated as every system is. The band's half-bandwidth kd is 3 under
    node-major numbering."""
    plan = _plan(np.arange(n_elements)[:, None] + np.arange(2), ("w", "theta"),
                 n_elements + 1, (0, n_elements) if clamped else ())
    unit = _system(plan, _KE0, _ME0)
    odd = np.arange(len(unit.dof_map), dtype=np.int8) % 2

    def entries(a, dof_odd, with_transpose):
        values = _values(a).ravel()
        pos, rows, cols = _nonzeros(a)
        transpose = None
        if with_transpose:
            key = rows * a.shape[0] + cols
            order = np.argsort(key)
            transpose = _readonly(order[np.searchsorted(key, cols * a.shape[0] + rows,
                                                        sorter=order)].astype(np.int32))
        # CSC stores no zero, so its values are its data
        return _Entries(_readonly(pos.astype(np.int32)),
                        _readonly(values if len(pos) == len(values) else values[pos]),
                        _readonly(dof_odd[rows] + dof_odd[cols]), transpose,
                        a.shape if isinstance(a, np.ndarray) else a)

    k, m = (entries(a, odd, True) for a in (unit.stiffness, unit.mass))
    kf, mf = ((k, m) if unit._kf is unit.stiffness else
              (entries(a, odd[unit.free_dofs()], False) for a in (unit._kf, unit._mf)))
    return _UnitBeam(plan.layout, k, m, kf, mf, _lower_band(unit._mf),
                     _scaled_norms(unit._kf, unit._mf))


def _scaled(entries: _Entries, values: np.ndarray):
    """The matrix of entries' form with values at its nonzero entries,
    stored as the unit matrix was: a CSC result shares its read-only index
    arrays."""
    form = entries.form
    if isinstance(form, tuple):
        dense = np.zeros(form[0] * form[1])
        dense[entries.pos] = values
        return _readonly(dense.reshape(form))
    return _csc_type()((_readonly(values), form.indices, form.indptr), shape=form.shape)


def assemble_beam(geom: BeamGeometry, mat: Material, n_elements: int,
                  clamped: bool = True) -> AssembledSystem:
    """Euler-Bernoulli beam with consistent mass; both ends clamped by default.

    K = (EI/le^3) D K0 D and M = (rho*A*le/420) D M0 D, formed entry by
    entry from the cached unit system (K0, M0) with D.D as a pattern of
    (1, le, le^2): bitwise the sum of the scaled element matrices, since
    two elements feeding one entry give an exact doubling or an exact 0.
    """
    if n_elements < 2:
        raise InvariantError(f"n_elements must be >= 2, got {n_elements}")
    le = geom.length / n_elements
    # powers by libm pow, as Python's **, but an overflow (or a division by
    # an le^3 that underflows) is a non-finite entry the gate refuses
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        area, inertia = _beam_section(geom)
        ei, ral = mat.youngs_modulus * inertia, mat.density * area * le
        k_scale, m_scale = ei / np.float_power(le, 3), ral / 420.0
        ratio = k_scale / m_scale
        s = np.array([1.0, le, np.float_power(le, 2)])
    if not k_scale > 0:   # an underflow: a zero K would give 0 Hz modes
        raise InvariantError(f"beam element stiffness EI/le^3 must be > 0, got {float(k_scale)!r}")

    n_nodes = n_elements + 1
    mesh = Mesh(nodes=np.linspace(0.0, geom.length, n_nodes)[:, None],
                elements=np.arange(n_elements)[:, None] + np.arange(2), kind="beam_1d")
    unit = _unit_beam_system(n_elements, clamped)
    ek, em, ekf, emf = unit.k, unit.m, unit.kf, unit.mf
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        kv, mv = k_scale * (ek.values * s[ek.parity]), m_scale * (em.values * s[em.parity])
        k, m = _scaled(ek, kv), _scaled(em, mv)
        if ekf is ek:
            kf, mf = k, m
        else:
            kf = _scaled(ekf, k_scale * (ekf.values * s[ekf.parity]))
            mf = _scaled(emf, m_scale * (emf.values * s[emf.parity]))
    _gate(kv, kv[ek.transpose], mv, mv[em.transpose], mf,
          lambda a: _band_positive_definite(a, unit.band))
    if not 0 < ratio < math.inf:   # the unit-beam pairs could not be scaled back
        raise InvariantError("beam eigenvalue scale (EI/le^3)/(rho*A*le/420) must be "
                             f"finite and > 0, got {float(ratio)!r}")
    # a subnormal entry is rounded on a fixed grid, so it is not the exact
    # doubling that the sum of two element entries is
    smallest = float(min(abs(kv).min(), abs(mv).min()))
    if not smallest >= np.finfo(float).tiny:
        raise InvariantError(f"beam matrix entries must be normal floats, got {smallest!r}")
    # the dof tables are the unit system's; K, M, their free blocks and the
    # mesh are this beam's. Jacobi scaling undoes the congruence, so the
    # scaled norms of the backward error are the unit's, ||DMD|| over ratio.
    d_free = _readonly(np.tile((1.0, le), n_nodes)[unit.layout.free])
    norm_k, norm_m = unit.norms
    return AssembledSystem._of(unit.layout, k, m, kf, mf, mesh,
                               (n_elements, clamped, d_free, float(ratio),
                                (norm_k, norm_m / float(ratio))))


# ---------------------------------------------------------------------------
# disk mesh + plane-stress assembly

# The consistent mass of a linear triangle per unit rho*t*area, dofs
# (ux, uy) per node: the even and odd dofs are uncoupled and equal
_ME_TRI = np.array([
    [2, 0, 1, 0, 1, 0], [0, 2, 0, 1, 0, 1], [1, 0, 2, 0, 1, 0],
    [0, 1, 0, 2, 0, 1], [1, 0, 1, 0, 2, 0], [0, 1, 0, 1, 0, 2]]) / 12.0


class _DiskTopology(NamedTuple):
    """What mesh_disk's mesh with m rings is for every radius: the ring
    index (float) and (cos, sin) of each node's angle, the elements, their
    _Plan, and the outer-rim nodes in ascending angle (_rim_nodes of the
    unit-radius mesh: the order of the angles does not change with the
    radius)."""
    ring: np.ndarray
    unit: np.ndarray
    elements: np.ndarray
    plan: _Plan
    rim: np.ndarray


@lru_cache(maxsize=_DISK_TOPOLOGY_CACHE)
def _disk_topology(m: int) -> _DiskTopology:
    """The _DiskTopology of m rings: ring i carries 6*i nodes at angles
    2*pi*j/(6*i) (math.cos and math.sin), and each ring strip is cut into
    triangles by advancing whichever ring pointer trails in angle."""
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
    ring, unit = _readonly(np.array(ring, dtype=float)), _readonly(np.array(unit))
    elements = _readonly(np.array(tris, dtype=int))
    return _DiskTopology(ring, unit, elements, _plan(elements, ("ux", "uy"), len(ring)),
                         _readonly(_rim_nodes((ring / m)[:, None] * unit)))


def mesh_disk(geom: DiskGeometry, target_edge: float) -> Mesh:
    """Structured polar mesh: ring i at radius R*i/m carries 6*i nodes.

    Near-equilateral triangles, deterministic construction, boundary nodes
    exactly on the circle. m is chosen so the radial step matches
    target_edge. The topology of each m is built once and cached
    (_disk_topology); a node is (R*i/m) * (cos, sin) of its angle.
    """
    r_out = geom.radius
    if not 0 < target_edge < r_out / 4:
        raise MeshError(f"target_edge must be in (0, radius/4), got {target_edge}")
    if not r_out / target_edge <= _MAX_RINGS:
        raise MeshError(f"target_edge {target_edge} needs more than {_MAX_RINGS} rings")
    m = max(4, round(r_out / target_edge))
    topology = _disk_topology(m)
    mesh = Mesh(nodes=(r_out * topology.ring / m)[:, None] * topology.unit,
                elements=topology.elements, kind="plane_stress_2d")
    object.__setattr__(mesh, "_topology", topology)
    return mesh


def assemble_disk(geom: DiskGeometry, mat: Material, mesh: Mesh) -> AssembledSystem:
    """Plane-stress CST stiffness + consistent mass, free boundary.

    A mesh from mesh_disk is summed by its cached topology's plan; any
    other mesh builds its plan here.
    """
    if mesh.kind != "plane_stress_2d":
        raise MeshError("disk assembly needs a plane_stress_2d mesh")
    e_mod, nu, rho, t = (mat.youngs_modulus, mat.poisson_ratio,
                         mat.density, geom.thickness)
    d_mat = e_mod / (1 - nu**2) * np.array([
        [1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])

    x, y = mesh.nodes[mesh.elements, 0], mesh.nodes[mesh.elements, 1]  # (E, 3)
    area = mesh.triangle_areas()
    b = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)   # b_i = y_j - y_l
    c = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)   # c_i = x_l - x_j
    b_mat = np.zeros((len(area), 3, 6))
    b_mat[:, 0, 0::2] = b
    b_mat[:, 1, 1::2] = c
    b_mat[:, 2, 0::2] = c
    b_mat[:, 2, 1::2] = b
    b_mat *= (0.5 / area)[:, None, None]   # 1/det, det = 2*area exactly
    # batched matmul, not einsum: it rounds exactly as the per-element B^T D B
    ke = (t * area)[:, None, None] * (b_mat.transpose(0, 2, 1) @ d_mat @ b_mat)
    me = (rho * t * area)[:, None, None] * _ME_TRI
    plan = (_plan(mesh.elements, ("ux", "uy"), len(mesh.nodes)) if mesh._topology is None
            else mesh._topology.plan)
    return _system(plan, ke, me, mesh)


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

    The shift sits below zero, at _SHIFT_RATIO of the median diagonal
    ratio, so K - sigma*M is positive definite even with rigid-body modes.
    The ratio trades accuracy for Lanczos steps: nearer zero (1e-12)
    K - sigma*M is nearly singular, its solves lose digits in the rigid
    directions and some disk modes end above _BACKWARD_BOUND; farther from
    it (1e-7, 1e-6) ARPACK restarts more often, for up to a third more LU
    solves (sweeps in README.md, "Cost of one design analysis").
    ARPACK starts from a fixed vector, so the result is deterministic, and
    finds 2k pairs: asked for k alone it split degenerate disk pairs at
    the window edge, missed an eigenvalue at k = 12 on disks R/8 to R/20
    and left residuals up to 1e-7. One inverse-iteration step with the
    same factorization and a 2k x 2k Rayleigh-Ritz projection then bring
    the disk residuals below 1e-9.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = kk.shape[0]
    sigma = -_SHIFT_RATIO * float(np.median(kk.diagonal() / mm.diagonal()))
    lu = _symmetric_lu(kk - sigma * mm)
    op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    _, vecs = eigsh(kk, 2 * k, M=mm, sigma=sigma, OPinv=op, v0=np.ones(n))
    x = lu.solve(mm @ vecs)
    vals, q = _dense_modes(x.T @ (kk @ x), x.T @ (mm @ x), k)
    return vals, x @ q


def _pencil_modes(kk, mm, k: int):
    """k lowest eigenpairs of the free-dof pencil (kk, mm), stored as
    AssembledSystem stores it: LAPACK for a dense pencil or for k >= n/4,
    shift-invert Lanczos otherwise."""
    if isinstance(kk, np.ndarray):
        return _dense_modes(kk, mm, k)
    if 4 * k >= kk.shape[0]:
        return _dense_modes(kk.toarray(), mm.toarray(), k)
    return _shift_invert_modes(kk, mm, k)


@lru_cache(maxsize=_UNIT_BEAM_CACHE)
def _unit_beam_modes(n_elements: int, clamped: bool, k: int):
    """k lowest eigenpairs (mu, psi) of the cached unit-beam pencil (K0, M0)
    on its free dofs, as read-only arrays, solved as the beam's own pencil
    would be. A dense pencil is rebuilt from its entries."""
    unit = _unit_beam_system(n_elements, clamped)
    vals, vecs = _pencil_modes(_scaled(unit.kf, unit.kf.values),
                               _scaled(unit.mf, unit.mf.values), k)
    return _readonly(vals), _readonly(vecs)


def _eigenpairs(sys: AssembledSystem, k: int):
    """k lowest eigenpairs of the system's free-dof pencil: eigenvalues
    ascending, eigenvectors as columns. A beam from assemble_beam maps the
    cached unit-beam pairs (see the module docstring)."""
    if sys._unit_beam is None:
        return _pencil_modes(sys._kf, sys._mf, k)
    n_elements, clamped, d_free, ratio, _ = sys._unit_beam
    mu, psi = _unit_beam_modes(n_elements, clamped, k)
    return mu * ratio, psi / d_free[:, None]


def _jacobi(kk) -> np.ndarray:
    """d = |diag(K)|^-1/2 of the Jacobi scaling D = diag(d), 1 where K_ii is 0."""
    diag = np.abs(kk.diagonal())
    return 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))


def _scaled_norms(kk, mm):
    """(||DKD||_F, ||DMD||_F) of the free-dof pencil (kk, mm), D = diag(d)
    of _jacobi; inf where a norm overflows."""
    d = _jacobi(kk)
    d2 = d * d

    def scaled_norm(a):
        if isinstance(a, np.ndarray):   # ||DAD||_F^2 = d^2 . (A o A) d^2
            return float(np.sqrt(d2 @ ((a * a) @ d2)))
        cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
        return float(np.linalg.norm(d[a.indices] * a.data * d[cols]))

    with np.errstate(over="ignore", invalid="ignore"):
        return scaled_norm(kk), scaled_norm(mm)


def _backward_errors(kk, mm, vals, vecs, r, norms) -> np.ndarray:
    """Jacobi-scaled normwise backward error of each pair (lambda, v) of the
    free-dof pencil (kk, mm), r = kk v - lambda mm v (Tisseur, "Backward
    error and condition of polynomial eigenvalue problems", Linear Algebra
    Appl. 309, 2000): ||D r|| / ((||DKD||_F + |lambda| ||DMD||_F) ||v / d||),
    D = diag(d) of _jacobi and norms = (||DKD||_F, ||DMD||_F). O(n). NaN
    where a norm overflows."""
    d = _jacobi(kk)
    norm_k, norm_m = norms
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.linalg.norm(d[:, None] * r, axis=0)
        den = ((norm_k + np.abs(vals) * norm_m)
               * np.linalg.norm(vecs / d[:, None], axis=0))
        # a zero denominator means K = 0 and lambda = 0, so r = 0 too
        berr = num / np.where(den > 0, den, 1.0)
    return np.where(np.isfinite(den), berr, np.nan)


def solve_modes(sys: AssembledSystem, k: int):
    """k lowest modes of K*phi = lambda*M*phi on the constrained system.

    Returns [(frequency_hz, mode_vector)] sorted ascending. Mode vectors are
    full length (zeros at constrained dofs) and normalized to unit maximum
    translational displacement; the lowest-index translational dof within
    _SIGN_RTOL of the largest magnitude is positive. Deterministic for fixed
    input.
    """
    free = sys.free_dofs()
    if not 1 <= k <= len(free):
        raise EigenSolveError(f"k must be in [1, {len(free)}], got {k}")
    kk, mm = sys._kf, sys._mf
    try:
        vals, vecs = _eigenpairs(sys, k)
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
    r = kv - vals * (mm @ vecs)
    resid = np.linalg.norm(r, axis=0) / np.where(elastic, norm_kv, 1.0)
    bad = np.flatnonzero(elastic & (resid > _RESIDUAL_BOUND))
    if bad.size:
        raise EigenSolveError(
            f"eigen-residual {resid[bad[0]]:.2e} exceeds {_RESIDUAL_BOUND:.0e} "
            f"for mode {bad[0]}")
    # every mode, rigid ones too, passes the backward-error gate; a beam's
    # scaled norms are those of its unit system
    norms = _scaled_norms(kk, mm) if sys._unit_beam is None else sys._unit_beam[4]
    berr = _backward_errors(kk, mm, vals, vecs, r, norms)
    bad = np.flatnonzero(~(berr <= _BACKWARD_BOUND))
    if bad.size:
        raise EigenSolveError(
            f"backward error {berr[bad[0]]:.2e} exceeds {_BACKWARD_BOUND:.0e} "
            f"for mode {bad[0]}")

    full = np.zeros((len(vals), len(sys.dof_map)))
    full[:, free] = vecs.T
    peak = np.max(_translational_amplitude(sys, full), axis=1)
    full /= np.where(peak > 0, peak, 1.0)[:, None]
    # sign convention: the two peaks of an antisymmetric mode differ only by
    # rounding, so the first entry near the largest magnitude decides
    tvals = full[:, sys._tdofs]
    mag = np.abs(tvals)
    first = np.argmax(mag >= (1 - _SIGN_RTOL) * mag.max(axis=1, keepdims=True), axis=1)
    lead = tvals[np.arange(len(full)), first]
    full[lead < 0] *= -1.0
    return [(math.sqrt(max(lam, 0.0)) / (2 * math.pi), vec)
            for lam, vec in zip(vals.tolist(), full)]


def _rim_nodes(nodes: np.ndarray) -> np.ndarray:
    """The outer-rim nodes of a disk mesh, in ascending angle."""
    r = np.hypot(nodes[:, 0], nodes[:, 1])
    bnd = np.flatnonzero(r >= float(r.max()) * (1 - 1e-9))
    return bnd[np.argsort(np.arctan2(nodes[bnd, 1], nodes[bnd, 0]))]


def _rim_radial(mesh: Mesh, vectors: np.ndarray):
    """Angles of the outer-rim nodes, ascending, and the radial displacement
    u_r there of each mode vector (the last axis of `vectors` runs over
    dofs, so one vector gives one row and a stack gives one row each)."""
    bnd = _rim_nodes(mesh.nodes) if mesh._topology is None else mesh._topology.rim
    x, y = mesh.nodes[bnd, 0], mesh.nodes[bnd, 1]
    return (np.arctan2(y, x),
            (vectors[..., 2 * bnd] * x + vectors[..., 2 * bnd + 1] * y) / np.hypot(x, y))


def _harmonic_basis(theta: np.ndarray):
    """(cos, sin, scale) of the harmonics n = 0..max(1, (nb - 1) // 2) at
    the nb rim angles theta, one row per n, for _dominant_harmonic."""
    nb = len(theta)
    n = np.arange(max(1, (nb - 1) // 2) + 1)
    scale = np.where(n == 0, 1.0 / nb, 2.0 / nb)  # DC component has no pair
    return np.cos(n[:, None] * theta), np.sin(n[:, None] * theta), scale


def _dominant_harmonic(basis, u_rad: np.ndarray) -> int:
    """Index of the cos/sin harmonic of u_rad with the largest energy, on
    the _harmonic_basis of its rim angles; see identify_angular_order."""
    cos, sin, scale = basis
    a = np.sum(u_rad * cos, axis=1) * scale
    b = np.sum(u_rad * sin, axis=1) * scale
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
    return _dominant_harmonic(_harmonic_basis(theta), u_rad)


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
    basis = _harmonic_basis(theta)
    free = sys.free_dofs()

    results = []
    for (freq, vec), u_rad in zip(modes[3:], u_rads):
        try:
            order = _dominant_harmonic(basis, u_rad)
        except AmbiguousAngularOrderError:
            order = 0
        rim = float(np.max(np.abs(u_rad)))
        if rim <= 0:
            continue
        scaled = vec[free] / rim
        m_eff = float(scaled @ (sys._mf @ scaled))   # M v: a CSC M needs no transposed copy
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
