"""In-house FEM modal solver.

Beam eigenmodes use 2-node Euler-Bernoulli elements (cubic Hermite shape
functions, consistent mass). Disk in-plane eigenmodes use linear-triangle
plane-stress elements on a structured polar mesh. Element matrices are
built for all elements at once. One function, _plan, numbers the dofs of
a mesh topology and works out where each element entry is summed; one
function, _system, sums the element matrices by that plan and gates the
result, for the unit beam, every reference disk and every disk on a
caller's mesh. _system certifies the mass positive-definite by its
element matrices, with no factorization (Wathen's bound); only a system
built with AssembledSystem(...) from a caller's matrices, which has no
elements, has its mass factored (_positive_definite).

K and M are stored in one form at every size: CSCMatrix, a read-only
canonical CSC record with numpy arrays. One threshold, _SPARSE_MIN_DOF
(300 free dofs), picks how a pencil is factored and solved. At or below
it, numpy alone does it: the modes come from the dense copies (toarray)
by a Cholesky reduction and numpy.linalg.eigh (_dense_modes), and a
product with a stored matrix is a numpy bincount. Above it, the lowest
modes come from shift-invert Lanczos (ARPACK) on a sparse LU of
K - sigma*M, polished by an inverse-iteration step and a Rayleigh-Ritz
projection (the dense solve again), repeated at most twice while a pair
is near a gate, and products go through scipy's CSC kernel. The dense
solve is faster on small systems, and ARPACK needs k well below n: a
larger system asked for k >= n/4 modes is solved densely too. Both paths
share the gates, normalization and sign convention. Every returned mode
passes a Jacobi-scaled normwise backward-error gate (_BACKWARD_BOUND). The
relative residual gate (_RESIDUAL_BOUND) applies only to the modes
_accuracy calls elastic, ||K v|| > 1e-9 max|K| ||v||: a disk's elastic
modes, but no mode of the shipped micrometre beam clamped with 48 or more
elements, whose lowest bending modes fall below that share of max|K|
(README).

A beam, and a disk on mesh_disk's mesh, is a scaled copy of a cached
reference system (Golub & Van Loan, Matrix Computations, sec. 8.7). The
reference is built by _system, gated once with margins, and kept in a
small LRU cache with what its copies read (_Reference): the largest and
smallest |entry| of K0 and M0 in each class of D.D, the scaled norms of
the backward-error gate and, for a beam, the class of each entry. A copy
(_mapped) forms no element matrix: K = c_K D K0 D and M = c_M D M0 D are
its scalars and D times the stored entries of K0 and M0, bitwise the sum
of its scaled element matrices, sharing the reference's dof tables and CSC
index arrays. A copy is certified by its congruence, not gated again.
Rounding is monotone, so its largest and smallest entries in a class are
the reference's scaled (_certified). A copy whose entries are all finite
and normal is symmetric and has M positive-definite: its rounding is a
componentwise relative perturbation too small to use up the margins its
reference was gated and certified with, and by Sylvester's law of inertia
the congruence keeps M definite (see _Reference). Its free-dof pencil is
congruent to the reference's, so the reference pairs K0 psi = mu M0 psi
give the copy's exactly: lambda = mu * ratio, ratio = c_K / c_M, and phi =
psi / d, d the diagonal of D on the free dofs. Jacobi scaling undoes the
congruence, so the scaled norms are the reference's, ||DMD||_F over ratio.
solve_modes takes (mu, psi) from one small LRU cache keyed by the
reference and k, filled through the factorization dispatch above; the
gates, normalization and sign convention then run on the copy's own K and
M. The two cases differ in D:

- A beam's reference is its unit beam: K0 and M0 scatter _KE0 and _ME0,
  the only beam element matrices, and depend only on (n_elements,
  clamped). With le = L/n, c_K = EI/le^3, c_M = rho*A*le/420 and D =
  diag(1, le, 1, le, ...), so a copy multiplies each entry by the pattern
  (1, le, le^2) of D.D at its parity (how many of its row and column dofs
  are rotations), the class of the entry; two elements feeding one entry
  give an exact doubling or an exact 0.
- A disk's reference is the disk of (m, nu) on mesh_disk's mesh with m
  rings: the silicon preset at R0 = 3 um, t0 = 0.4 um. Everything about
  that mesh but the radius (connectivity, each node's ring index and
  cos/sin, the dof tables, the plan and the rim nodes in angle order) is
  built once per m (_disk_topology). The CST stiffness is
  t*E/(1 - nu^2) K^(m, nu), independent of the radius, and the mass
  rho*t*R^2 M^(m), with R the mesh's own radius, so D = d I is a scalar
  and all entries form one class: c_K = t*E/(t0*E0),
  c_M = d^2 = rho*t*R^2/(rho0*t0*R0^2) and
  ratio = (E/(rho*R^2)) / (E0/(rho0*R0^2)).

A beam whose ratio is not a normal float or whose K or M has an entry
below the normal float range (where the congruence holds only to the
subnormal grid) is refused. A disk whose ratio is not finite and > 0 or
whose K or M would have such an entry, a disk on a mesh built by a
caller and a system built with AssembledSystem(...) directly are solved
directly, unless the eigenvalue scale of their pencil (the median of
diag K / diag M) is not a normal float. A caller's mesh gets its plan
from the same function, uncached, and its element matrices are summed
and certified as a reference disk's are.

The reference disk's scale matters: ARPACK accepts a Ritz value
theta = 1/(lambda - sigma) once its error bound is below
eps * max(eps^(2/3), |theta|) (tol 0), and theta is far below eps^(2/3)
here, so the Lanczos steps depend on the eigenvalue scale E/(rho*R^2).
This reference takes as many steps as the physical disks of
fem-converge; a 20 um one took about a fifth more, a unit-scale pencil
about two thirds more (README). solve_disk maps more: the reference
disk's finished solve (_finish_disk, cached per (m, nu, n_modes) by
_reference_modes), whose eigenvalues are multiplied by ratio and whose
normalized mode vectors (rigid ones too), angular orders, pair basis and
mode shapes are the disk's as they are: scaling to unit peak
displacement takes the scalar d out. All n_modes + 3 mapped pairs pass
the gates of solve_modes on the disk's own K and M in one _accuracy
call, or the disk is refused, as a beam is; only the effective masses
are computed per disk, from its own mass and rim.

solve_disk reports each degenerate pair of one angular order n > 0 in one
basis: M-orthonormalized and rotated within its span so that the first
member's rim u_r has no sin(n theta) part and the second's no
cos(n theta) part. Its effective mass and mode shape are then properties
of the design, not of the basis a solver returned. A rotated pair passes
the gates of solve_modes, or the pair keeps the basis it was solved in.
To see a pair at the window's edge whole, a disk's own solve
(_finish_disk) keeps one spare pair beyond the wanted modes: the next
Ritz pair of the shift-invert window of 2k (no wider window), or of the
dense solve; a spare that fails a gate is dropped, never refused.

scipy is imported only where it does the work, inside the functions of
the sparse path (_symmetric_lu, _shift_invert_modes, _positive_definite
and the products of CSCMatrix above the threshold): importing this
module, building a mesh, or assembling and solving a pencil of at most
_SPARSE_MIN_DOF free dofs (a beam of up to 151 clamped elements, a
mesh_disk disk up to R/6) loads no scipy module. A caller's scipy sparse
matrix is still accepted by AssembledSystem(...).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import BeamGeometry, DiskGeometry, Material, ModeResult, VibrationAxis
from .errors import (AmbiguousAngularOrderError, EigenSolveError, InvariantError,
                     MeshError, RigidBodyModeError)

_SYM_RTOL = 1e-12          # symmetry tolerance for assembled matrices
# the relative rounding of a scaled copy's entry, at most: two products
# (u each) and libm's le^2 (under one ulp), with room to spare
_COPY_ROUNDING = 4 * np.finfo(float).eps
# the Jacobi-scaled element mass template (_ME0, _ME_TRI) must have its
# smallest eigenvalue above this, which by Wathen's bound is a floor on
# every assembled mass's (_system): far above _COPY_ROUNDING times the
# entries in a row, far below the 0.0389 of _ME0 and the 0.5 of _ME_TRI
_MASS_MARGIN = 1e-6
_RESIDUAL_BOUND = 1e-8     # relative eigen-residual bound per returned mode
_BACKWARD_BOUND = 1e-12    # Jacobi-scaled backward-error bound per returned mode
_RIGID_RATIO = 1e-6        # rigid eigenvalue threshold vs first elastic
_SPARSE_MIN_DOF = 300      # more free dofs than this: sparse factorization and solve
_SHIFT_RATIO = 1e-9        # shift-invert sigma, below 0, vs the median diag(K)/diag(M)
_AMBIGUITY_RATIO = 0.1     # harmonic energy gap below which an angular order is ambiguous
_SIGN_RTOL = 1e-6          # translational entries this close to the largest tie for the sign
_UNIT_CACHE = 8            # beam and disk references, reference eigenpair sets and
                           # finished reference-disk solves kept, each
_POLISH_REPEATS = 2        # extra inverse-iteration steps at most, per sparse solve
_POLISH_MARGIN = 0.25      # repeat the step while a pair is above this share of a bound
# relative eigenvalue gap of a degenerate disk pair, at most: such pairs of
# the fem-converge disks are at most 9e-14 apart, the split n = 3 pairs of
# mesh_disk's 6-fold mesh at least 1.2e-3 (README)
_PAIR_GAP = 1e-9
_DISK_TOPOLOGY_CACHE = 8   # disk ring counts whose topology is kept
_TRANSLATIONAL = frozenset(("w", "ux", "uy"))
# most rings mesh_disk builds: radius/1000 is already 3 million nodes
_MAX_RINGS = 1000
# the reference disk of the disk congruence: the silicon preset (Young's
# modulus, density) at radius 3 um, thickness 0.4 um (configs/disk.json)
_REF_DISK = (169e9, 2330.0, 3e-6, 0.4e-6)


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
    # whose scatter plan and rim order assembly and mode identification
    # reuse, and the radius its nodes were scaled to
    _topology: object = field(default=None, init=False, repr=False, compare=False)
    _radius: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = _readonly(np.asarray(self.nodes, dtype=float))
        elements = _readonly(np.asarray(self.elements, dtype=int))
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        if self.kind not in ("beam_1d", "plane_stress_2d"):
            raise MeshError(f"unknown mesh kind {self.kind!r}")
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise MeshError("element connectivity index out of range")
        if not np.isfinite(nodes).all():
            raise MeshError("node coordinates must be finite")
        if self.kind == "beam_1d":
            if elements.shape[1] != 2:
                raise MeshError("beam_1d elements must have 2 nodes")
            with np.errstate(over="ignore"):
                sizes = np.abs(nodes[elements[:, 1], 0] - nodes[elements[:, 0], 0])
            what = "beam element lengths"
        else:
            if elements.shape[1] != 3:
                raise MeshError("plane_stress_2d elements must have 3 nodes")
            sizes, what = self.triangle_areas(), "triangle areas"
        # <= 0: degenerate or negatively oriented; an overflow is inf or NaN
        bad = ~((0 < sizes) & (sizes < math.inf))
        if bad.any():
            raise MeshError(f"{what} must be finite and > 0, got {float(sizes[bad][0])!r}")

    def triangle_areas(self) -> np.ndarray:
        """Signed area of each triangle, positive if counter-clockwise; an
        area that overflows is not finite."""
        p = self.nodes[self.elements]
        with np.errstate(over="ignore", invalid="ignore"):
            return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                          - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))


class _Layout(NamedTuple):
    """The dof tables of a system (see AssembledSystem): dof_map and the
    sorted constraints as tuples, the free dofs, the translational dofs
    and the per-node translational dof table, whose row j holds the
    translational dofs of the j-th node that has any, padded with ndof."""
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


class _Congruence(NamedTuple):
    """How a system's free-dof pencil maps from a cached reference pencil
    (see the module docstring): key is the reference's builder and its
    arguments (_reference), the reference pairs (mu, psi) are
    _reference_pairs(key, k), and the system's are lambda = mu * ratio and
    phi = psi / d (d a column on the free dofs, or a scalar). norms are
    (||DKD||_F, ||DMD||_F) of the backward-error gate, mapped from the
    reference's."""
    key: tuple
    ratio: float
    d: object
    norms: tuple


@dataclass(frozen=True)
class AssembledSystem:
    """Assembled K, M with dof bookkeeping.

    dof_map[i] = (node index, component), component in {'w','theta','ux','uy'}.
    constraints is the sorted tuple of fixed dof indices. mesh is kept for
    mode identification and export.

    K and M are stored read-only in one form at every size: CSCMatrix,
    canonical CSC (sorted row indices, no duplicate or explicit zero
    entries, K's and M's index arrays apart, int32 indices and indptr
    where they fit, `nbytes` = bytes of data + indices + indptr; a scaled
    copy shares its read-only index arrays with its cached reference).
    A caller's dense array is converted by numpy alone, a caller's scipy
    sparse matrix canonicalized on a copy (_stored).
    """

    stiffness: object
    mass: object
    dof_map: tuple
    constraints: tuple
    mesh: Mesh | None = field(default=None, compare=False)
    # Set by _mapped (assemble_beam, and assemble_disk on a mesh_disk
    # mesh): the _Congruence that maps cached reference pairs to this
    # system's.
    _congruence: _Congruence | None = field(default=None, init=False, repr=False,
                                            compare=False)
    # The _Layout of dof_map and constraints, and the free-dof blocks
    # _kf/_mf of K and M, stored as K and M are. Systems built by _system
    # and _mapped share the layout of their plan or reference.
    _layout: _Layout = field(init=False, repr=False, compare=False)
    _kf: object = field(init=False, repr=False, compare=False)
    _mf: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layout = _layout(self.dof_map, self.constraints)
        n = len(layout.dof_map)
        k, m = _stored(self.stiffness), _stored(self.mass)
        if k.shape != (n, n) or m.shape != (n, n):
            raise InvariantError("stiffness/mass/dof_map sizes inconsistent")
        kf, mf = _free_blocks(layout.free, k, m)
        _gate(k.data, _transposed(k), m.data, _transposed(m))
        if not _positive_definite(mf):   # no elements to certify it by
            raise InvariantError("mass matrix not positive-definite on free dofs")
        self._set(layout, k, m, kf, mf, self.mesh)

    @classmethod
    def _of(cls, layout: _Layout, k, m, kf, mf, mesh: Mesh | None = None,
            congruence: _Congruence | None = None) -> "AssembledSystem":
        """The system of K, M and their free blocks, already stored and gated
        by the caller (no __post_init__)."""
        sys = object.__new__(cls)
        sys._set(layout, k, m, kf, mf, mesh, congruence)
        return sys

    def _set(self, layout, k, m, kf, mf, mesh, congruence=None):
        for name, value in (("stiffness", k), ("mass", m), ("dof_map", layout.dof_map),
                            ("constraints", layout.constraints), ("mesh", mesh),
                            ("_congruence", congruence), ("_layout", layout),
                            ("_kf", kf), ("_mf", mf)):
            object.__setattr__(self, name, value)

    def free_dofs(self) -> np.ndarray:
        return self._layout.free


class CSCMatrix:
    """A read-only sparse matrix in canonical compressed sparse column
    (CSC) form, the form AssembledSystem stores K and M in: data holds the
    stored entries column by column, indices their rows (sorted within
    each column, no duplicates) and indptr where each column starts; no
    stored entry is an exact zero. nbytes is the bytes of data, indices
    and indptr. toarray() is the dense copy, diagonal() the main diagonal,
    and A @ x the product with a 1-D or 2-D array x.

    A product is summed per row in column order by numpy alone (np.bincount,
    as scipy's CSC kernel sums it, so bitwise its result) on matrices with
    at most _SPARSE_MIN_DOF rows. A larger one goes through scipy's
    compiled CSC kernel: the csc_array of the index arrays is built once
    (checked by scipy's constructor) and shared by every matrix with those
    index arrays, as a scaled copy shares them with its reference
    (_scaled); each matrix's own csc_array is a shallow copy of it with its
    data. Records sharing index arrays share what is worked out from them
    (_pattern): the column of each entry and the flat slots of numpy's
    products, where the diagonal is stored and that csc_array.
    """

    __slots__ = ("data", "indices", "indptr", "shape", "_pattern", "_sparse")

    def __init__(self, data, indices, indptr, shape, pattern=None):
        self.data, self.indices, self.indptr = (_readonly(a) for a in (data, indices, indptr))
        self.shape = tuple(int(n) for n in shape)
        self._pattern = {} if pattern is None else pattern
        self._sparse = None

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def _columns(self) -> np.ndarray:
        """The column of each entry: kept where numpy's products read it."""
        cols = self._pattern.get("columns")
        if cols is None:
            cols = _readonly(_index_array(_columns(self.indptr)))
            if self.shape[0] <= _SPARSE_MIN_DOF:
                self._pattern["columns"] = cols
        return cols

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.indices, self._columns()] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        where = self._pattern.get("diagonal")
        if where is None:
            cols = self._columns()
            on = np.flatnonzero(self.indices == cols)
            where = self._pattern["diagonal"] = (_readonly(cols[on]), _readonly(on))
        out = np.zeros(min(self.shape))
        out[where[0]] = self.data[where[1]]
        return out

    def __matmul__(self, x):
        x = np.asarray(x)
        if self.shape[0] > _SPARSE_MIN_DOF:
            return self._scipy() @ x
        # y[i] sums data * x[column] over row i's entries in column order
        terms = np.take(x, self._columns(), axis=0).astype(float, copy=False)
        with np.errstate(over="ignore", invalid="ignore"):   # overflows are inf, as scipy's
            terms *= self.data if x.ndim == 1 else self.data[:, None]
        if x.ndim == 1:
            return np.bincount(self.indices, weights=terms, minlength=self.shape[0])
        m = x.shape[1]
        slots = self._pattern.get("slots")   # kept for the last number of vectors
        if slots is None or slots.size != terms.size:   # the flat (row, vector) slots
            slots = self._pattern["slots"] = _readonly(
                (self.indices[:, None] * m + np.arange(m)).ravel())
        out = np.bincount(slots, weights=terms.ravel(), minlength=self.shape[0] * m)
        return out.reshape(self.shape[0], m)

    def _scipy(self):
        """This matrix as a scipy csc_array on its own arrays (see above)."""
        if self._sparse is None:
            template = self._pattern.get("scipy")
            if template is None:
                from scipy.sparse import csc_array
                self._sparse = self._pattern["scipy"] = csc_array(
                    (self.data, self.indices, self.indptr), shape=self.shape)
            else:
                self._sparse = copy.copy(template)
                self._sparse.data = self.data
        return self._sparse


def _index_array(a) -> np.ndarray:
    """a as CSC index array: int32, or int64 where int32 cannot hold it."""
    a = np.asarray(a)
    fits = a.size == 0 or a.max() <= np.iinfo(np.int32).max
    return a.astype(np.int32 if fits else np.int64, copy=False)


def _stored(a) -> CSCMatrix:
    """K or M in the form AssembledSystem stores it: a CSCMatrix as it is
    (assembly builds canonical ones), a caller's scipy sparse matrix
    canonicalized on a copy, and any other 2-D numeric array converted by
    numpy alone, its exact zeros dropped."""
    if type(a) is CSCMatrix:
        return a
    try:
        if hasattr(a, "tocsc"):   # scipy sparse: the caller has loaded scipy
            a = a.tocsc(copy=True).astype(float)
            a.sum_duplicates()
            a.eliminate_zeros()
            return CSCMatrix(a.data, _index_array(a.indices), _index_array(a.indptr), a.shape)
        dense = np.array(a, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"got a {dense.ndim}-D array")
    except (TypeError, ValueError) as exc:
        raise InvariantError("stiffness and mass must be 2-D numeric matrices: "
                             f"{exc}") from None
    stored = dense.T != 0   # column by column; NaN is kept for the gate
    _, rows = np.nonzero(stored)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(stored, axis=1))))
    return CSCMatrix(dense.T[stored], _index_array(rows), _index_array(indptr), dense.shape)


def _transposed(a: CSCMatrix) -> np.ndarray:
    """The entry of A^T at each stored entry of the square CSC matrix a (0
    where A stores none): with a.data, the entries _gate compares."""
    if not len(a.data):
        return a.data
    n = a.shape[0]
    rows, cols = a.indices.astype(np.int64), a._columns().astype(np.int64)
    keys = cols * n + rows   # ascending: canonical CSC
    wanted = rows * n + cols
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, a.data[at], 0.0)


def _columns(indptr) -> np.ndarray:
    """The column of each stored entry of a CSC matrix (or each slot of a
    _Plan) with column pointers indptr."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _free_blocks(free: np.ndarray, k, m):
    """The free-dof blocks of K and M: K and M themselves when no dof is
    fixed."""
    if len(free) == k.shape[0]:
        return k, m
    return _principal(k, free), _principal(m, free)


def _principal(a: CSCMatrix, keep: np.ndarray) -> CSCMatrix:
    """The principal submatrix of a on the ascending indices keep, with
    index arrays of its own: renumbering keeps each column's rows sorted."""
    new = np.full(a.shape[0], -1)
    new[keep] = np.arange(len(keep))
    rows, cols = new[a.indices], new[a._columns()]
    inside = (rows >= 0) & (cols >= 0)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols[inside], minlength=len(keep)))))
    return CSCMatrix(a.data[inside], _index_array(rows[inside]), _index_array(indptr),
                     (len(keep), len(keep)))


def _symmetric_lu(a):
    """Sparse LU of a scipy CSC matrix with symmetric structure: a
    fill-reducing ordering of A + A^T, and the diagonal pivot whenever it
    is nonzero."""
    from scipy.sparse.linalg import splu
    return splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def _gate(k, kt, m, mt, parity=None):
    """The value gate of a system that is solved as it is or is a
    reference: K and M finite and symmetric. k and m are K and M, or arrays
    of their entries; kt and mt hold the same entries of the transposes.
    Whether M is positive-definite on the free dofs is the caller's test:
    _system certifies it by the element matrices, AssembledSystem(...)
    factors it (_positive_definite).

    A reference (parity given: the D.D class of each entry, see
    _Reference) passes it with the margin that its scaled copies inherit:
    symmetric in each class to _SYM_RTOL less 3 _COPY_ROUNDING of the
    class's largest entry. A copy is not gated again: its reference's
    extremes certify it (_certified)."""
    rtol = _SYM_RTOL if parity is None else _SYM_RTOL - 3 * _COPY_ROUNDING
    for name, a, at in (("stiffness", k, kt), ("mass", m, mt)):
        largest = np.abs(a).max(initial=0.0)   # NaN if an entry is NaN
        if not np.isfinite(largest):
            raise InvariantError(f"{name} matrix has non-finite entries")
        skew = abs(a - at)
        if parity is not None and parity.any() and skew.any():
            # several classes: each entry against the largest of its class
            class_max = np.array([abs(a[parity == p]).max(initial=0) for p in range(3)])
            asymmetric = np.any(skew > rtol * class_max[parity])
        else:
            asymmetric = skew.max(initial=0.0) > rtol * largest
        if asymmetric:
            raise InvariantError(f"{name} matrix not symmetric")


def _positive_definite(a: CSCMatrix) -> bool:
    """Whether the symmetric CSC matrix a is positive-definite. With at
    most _SPARSE_MIN_DOF rows: numpy's Cholesky of the dense copy (its
    lower triangle) succeeds. Above: the symmetric LU pivots only on the
    diagonal (perm_r == perm_c, so it is an LDL^T) and every pivot is
    positive."""
    if a.shape[0] <= _SPARSE_MIN_DOF:
        try:
            np.linalg.cholesky(a.toarray())
        except np.linalg.LinAlgError:
            return False
        return True
    try:
        lu = _symmetric_lu(a._scipy())
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


class _Plan(NamedTuple):
    """How the element matrices of one mesh topology are summed into K and M.

    slot[e, p, q] (int32) is the slot that entry (p, q) of element e's
    matrix is summed into. The slots are the distinct (row, column) pairs
    of the elements' dofs in CSC order (column, then row): rows (int32,
    one per slot) and indptr place them, and transpose[s] (int32) is the
    slot of the transpose of slot s.
    """
    layout: _Layout
    slot: np.ndarray
    rows: np.ndarray
    indptr: np.ndarray
    transpose: np.ndarray


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
    keys, slot = np.unique((dofs[:, None, :] * ndof + dofs[:, :, None]).ravel(),
                           return_inverse=True)
    cols, rows = np.divmod(keys, ndof)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=ndof))))
    transpose = np.searchsorted(keys, rows * ndof + cols)
    return _Plan(layout, _readonly(slot.reshape(shape).astype(np.int32)),
                 *(_readonly(a.astype(np.int32)) for a in (rows, indptr, transpose)))


def _system(plan: _Plan, ke, me, scale, mesh: Mesh | None = None, odd=None) -> AssembledSystem:
    """The gated AssembledSystem of element stiffness matrices ke[e] (or
    one for every element) and element masses scale[e] * me (a scalar
    scale: one for every element), summed by plan. A reference is gated
    with margins (_gate): odd marks its dofs that D scales by le (a beam's
    rotations; none of a disk's), so that an entry's D.D class is odd at
    its row plus odd at its column.

    One bincount per matrix over the plan's slots (Davis, Direct Methods
    for Sparse Linear Systems, ch. 2) sums each entry in element order, as
    a dense scatter does. Exact zeros (cancelled couplings, the uncoupled
    ux-uy entries of a disk's mass) are dropped, as a dense-to-CSC
    conversion drops them; the symmetry gate reads every slot and its
    transpose slot, the union of the patterns of K and K^T, so it computes
    max|K - K^T| as on the stored matrices.

    M is certified positive-definite on the free dofs by its elements,
    with no factorization (Wathen, "Realistic eigenvalue bounds for the
    Galerkin mass matrix", IMA J. Numer. Anal. 7, 1987). Let a be the
    smallest eigenvalue of the Jacobi-scaled template J^-1/2 me J^-1/2,
    J = diag(me). Each element has x_e^T me x_e >= a x_e^T J x_e, so their
    sum with weights scale[e] > 0 has x^T M x >= a x^T diag(M) x. For x
    on the free dofs that is the free block M_f, whose Jacobi-scaled
    eigenvalues are therefore at least a (as Cauchy interlacing gives for a
    principal submatrix) once diag(M_f) > 0: every free dof lies in some
    element. Where diag(M_f) is normal, the rounded products and sums move
    each Jacobi-scaled entry by at most about c eps, c the elements that
    feed it (|me_ij| <= (me_ii me_jj)^1/2; a product below the normal range
    is off by at most eps tiny / 2), and the eigenvalues by that times the
    entries in a row: far below a, which must exceed _MASS_MARGIN. A
    template below the margin, a scale not finite and > 0 or a free dof in
    no element is refused as not positive-definite; a free diagonal entry
    below the normal range as not normal.
    """
    layout, shape = plan.layout, plan.slot.shape
    slot = plan.slot.ravel()
    with np.errstate(invalid="ignore"):   # inf * 0: the gate reports a non-finite scale
        masses = np.multiply.outer(scale, me)
    k_sum, m_sum = (np.bincount(slot, weights=np.broadcast_to(e, shape).ravel(),
                                minlength=len(plan.rows)) for e in (ke, masses))
    k, m = (_compressed(plan, s) for s in (k_sum, m_sum))
    kf, mf = _free_blocks(layout.free, k, m)
    parity = None if odd is None else odd[plan.rows] + odd[_columns(plan.indptr)]
    _gate(k_sum, k_sum[plan.transpose], m_sum, m_sum[plan.transpose], parity)
    j, diag = np.diagonal(me), mf.diagonal()
    if not (np.all((0 < scale) & (scale < math.inf)) and np.all(j > 0) and np.all(diag > 0)
            and np.linalg.eigvalsh(me / np.sqrt(np.outer(j, j))).min() > _MASS_MARGIN):
        raise InvariantError("mass matrix not positive-definite on free dofs")
    least = float(diag.min(initial=math.inf))
    if not least >= np.finfo(float).tiny:
        raise InvariantError(f"mass matrix entries must be normal floats, got {least!r}")
    return AssembledSystem._of(layout, k, m, kf, mf, mesh)


def _compressed(plan: _Plan, data: np.ndarray) -> CSCMatrix:
    """The CSC matrix of the slot sums data, less its exact zeros, with
    int32 index arrays of its own."""
    keep = data != 0
    indptr = np.concatenate(([0], np.cumsum(keep)))[plan.indptr].astype(np.int32)
    ndof = len(plan.indptr) - 1
    return CSCMatrix(data[keep], plan.rows[keep], indptr, (ndof, ndof))


# ---------------------------------------------------------------------------
# scaled copies of a reference system

class _Reference(NamedTuple):
    """A cached reference system that beams or disks are scaled copies of
    (see the module docstring): the system, gated with margins (_gate)
    and its mass certified (_system); the (largest, smallest) |entry| of K and of M in each D.D class
    (arrays by class: a beam's 0, 1, 2, a disk's one); (||DKD||_F,
    ||DMD||_F) of its free-dof pencil, D = |diag K|^-1/2, for the
    backward-error gate; and the class of each stored entry of
    _blocks(system) (int8: a beam's parity, how many of its row and column
    dofs are rotations; 0 for a disk).

    The margins certify every copy whose entries are finite and normal
    (_certified), with no gate of its own (Demmel & Veselic, "Jacobi's
    method is more accurate than QR", SIAM J. Matrix Anal. Appl. 13, 1992).
    A copy's entry in class p is fl(fl(x dd_p) c), x the reference's entry
    and dd_p = d_i d_j, so it is c d_i d_j x (1 + e) with |e| <=
    _COPY_ROUNDING while no product leaves the normal range.
    - Symmetric: x_ij and x_ji share a class, so the copy's two entries
      differ by at most c dd_p (|x_ij - x_ji| + 2 e m_p), m_p the class's
      largest |x|. The reference's |x_ij - x_ji| <= (_SYM_RTOL - 3 e) m_p
      keeps that below _SYM_RTOL times the copy's largest entry.
    - Mass positive-definite: Jacobi scaling undoes the congruence, so the
      copy's scaled free-dof mass is A0 + E, A0 the reference's, with
      |E_ij| <= e |A0_ij| <= e (A0 is definite with unit diagonal). So
      ||E|| <= e r, r the most entries in a row (6 for a beam, 7 for a
      disk), about 6e-15. The reference's build certified lambda_min(A0)
      by Wathen's element bound (_system): at least the Jacobi-scaled
      element template's, which exceeds _MASS_MARGIN = 1e-6, less a
      rounding of the same order as e r. So by Weyl's inequality and
      Sylvester's law of inertia the copy's mass is definite. The measured
      lambda_min(A0) is 0.25 for unit beams and 0.5 for reference disks
      (the templates': 0.0389 for _ME0, 0.5 for _ME_TRI).
    A beam copy's inner products x dd_p stay normal whenever its K is
    finite: le below 1.5e-154, where le^2 is subnormal, makes le^3 = 0 and
    c_K not finite; otherwise every dd_p is normal and every |x| >= 1."""
    system: AssembledSystem
    extremes: tuple
    norms: tuple
    parity: tuple


def _reference(key: tuple) -> _Reference:
    """The cached _Reference of a _Congruence key: (builder, *its arguments)."""
    return key[0](*key[1:])


def _blocks(sys: AssembledSystem) -> tuple:
    """K and M of sys, then their free blocks where a dof is fixed."""
    if sys._kf is sys.stiffness:
        return sys.stiffness, sys.mass
    return sys.stiffness, sys.mass, sys._kf, sys._mf


def _scaled(a: CSCMatrix, scale, pattern=None) -> CSCMatrix:
    """scale * A for the CSC matrix a, its entries first multiplied by
    pattern if given (a beam's D.D), sharing a's read-only index arrays
    and what is worked out from them (CSCMatrix)."""
    return CSCMatrix(scale * (a.data if pattern is None else a.data * pattern),
                     a.indices, a.indptr, a.shape, a._pattern)


def _reference_of(sys: AssembledSystem, odd) -> _Reference:
    """The _Reference of sys, a reference system summed and gated by
    _system(..., odd): the class of each stored entry, and the extremes of
    each class."""
    free = odd[sys._layout.free]
    parity = tuple(_readonly(o[a.indices] + o[a._columns()])
                   for a, o in zip(_blocks(sys), (odd, odd, free, free)))
    extremes = []
    for a, p in zip((sys.stiffness, sys.mass), parity):
        mags = [abs(a.data[p == c]) for c in range(p.max() + 1)]
        extremes.append(tuple(_readonly(np.array([f(x) for x in mags])) for f in (np.max, np.min)))
    return _Reference(sys, tuple(extremes), _scaled_norms(sys._kf, sys._mf), parity)


def _certified(key: tuple, k_scale, m_scale, dd=1.0) -> list:
    """The smallest |entry| of K and of M of the scaled copy that
    _mapped(key, k_scale, m_scale, ..., dd) builds (dd by class, 1 for a
    disk), or InvariantError if an entry would not be finite: the
    reference's extremes in each class, scaled as its entries are, are the
    copy's, since rounding is monotone. A copy whose entries are all finite
    and normal is certified by its reference (_Reference)."""
    smallest = []
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for name, scale, (largest, least) in zip(("stiffness", "mass"), (k_scale, m_scale),
                                                  _reference(key).extremes):
            if not np.isfinite(scale * (largest * dd)).all():
                raise InvariantError(f"{name} matrix has non-finite entries")
            smallest.append((scale * (least * dd)).min())
    return smallest


def _mapped(key: tuple, k_scale, m_scale, ratio, d, mesh: Mesh, dd=None) -> AssembledSystem:
    """The system whose K and M are k_scale and m_scale times the stored
    entries of the reference of key (a beam's each first multiplied by dd
    at its parity: D.D), with the _Congruence (key, ratio, d) to it. It
    shares the reference's dof tables and index arrays. It is not gated:
    the caller has certified it (_certified: every entry finite and
    normal) and refused a ratio that is not a normal float."""
    ref = _reference(key)
    base = ref.system
    k, m, *free = (_scaled(a, scale, None if dd is None else dd[p]) for a, scale, p in
                   zip(_blocks(base), (k_scale, m_scale) * 2, ref.parity))
    kf, mf = free or (k, m)
    norm_k, norm_m = ref.norms
    norms = norm_k, float(norm_m / ratio)
    return AssembledSystem._of(base._layout, k, m, kf, mf, mesh,
                               _Congruence(key, float(ratio), d, norms))


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


@lru_cache(maxsize=_UNIT_CACHE)
def _beam_reference(n_elements: int, clamped: bool) -> _Reference:
    """The _Reference of the unit beam on n_elements, built from _KE0 and
    _ME0 by _system and gated as every reference is."""
    plan = _plan(np.arange(n_elements)[:, None] + np.arange(2), ("w", "theta"),
                 n_elements + 1, (0, n_elements) if clamped else ())
    odd = np.arange(2 * (n_elements + 1), dtype=np.int8) % 2   # the rotation dofs
    return _reference_of(_system(plan, _KE0, _ME0, 1.0, odd=odd), odd)


def assemble_beam(geom: BeamGeometry, mat: Material, n_elements: int,
                  clamped: bool = True) -> AssembledSystem:
    """Euler-Bernoulli beam with consistent mass; both ends clamped by default.

    K = (EI/le^3) D K0 D and M = (rho*A*le/420) D M0 D, a scaled copy
    (_mapped) of the cached unit beam (K0, M0) with D.D as a pattern of
    (1, le, le^2): bitwise the sum of the scaled element matrices, since
    two elements feeding one entry give an exact doubling or an exact 0.
    The copy is certified by the unit beam's extremes (_certified):
    refused where an entry is not finite or, as it would not be exact,
    below the normal range.
    """
    if isinstance(n_elements, bool) or not isinstance(n_elements, (int, np.integer)):
        raise InvariantError(f"n_elements must be an integer, got {n_elements!r}")
    if n_elements < 2:
        raise InvariantError(f"n_elements must be >= 2, got {n_elements}")
    le = geom.length / n_elements
    # powers by libm pow, as Python's **, but an overflow (or a division by
    # an le^3 that underflows) is a non-finite entry, refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        area, inertia = _beam_section(geom)
        ei, ral = mat.youngs_modulus * inertia, mat.density * area * le
        k_scale, m_scale = ei / np.float_power(le, 3), ral / 420.0
        ratio = k_scale / m_scale
        dd = np.array([1.0, le, np.float_power(le, 2)])
    if not k_scale > 0:   # an underflow: a zero K would give 0 Hz modes
        raise InvariantError(f"beam element stiffness EI/le^3 must be > 0, got {float(k_scale)!r}")

    n_nodes = n_elements + 1
    mesh = Mesh(nodes=np.linspace(0.0, geom.length, n_nodes)[:, None],
                elements=np.arange(n_elements)[:, None] + np.arange(2), kind="beam_1d")
    key = (_beam_reference, n_elements, clamped)
    smallest_k, smallest_m = _certified(key, k_scale, m_scale, dd)
    # a subnormal entry is rounded on a fixed grid, so it is not the exact
    # doubling that the sum of two element entries is; M is certified
    # definite only where its entries are normal, so that is refused first.
    # A ratio that is not a normal float could not scale the unit pairs
    # back to full precision, nor the unit's ||DMD||_F (_mapped) finitely
    tiny = np.finfo(float).tiny
    if smallest_m >= tiny and not tiny <= ratio < math.inf:
        raise InvariantError("beam eigenvalue scale (EI/le^3)/(rho*A*le/420) must be "
                             f"a normal float, got {float(ratio)!r}")
    smallest = float(min(smallest_k, smallest_m))
    if not smallest >= tiny:
        raise InvariantError(f"beam matrix entries must be normal floats, got {smallest!r}")
    d = np.tile((1.0, le), n_nodes)   # the diagonal of D; the clamped end dofs are fixed
    return _mapped(key, k_scale, m_scale, ratio, _readonly((d[2:-2] if clamped else d)[:, None]),
                   mesh, dd)


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
    _Plan, the outer-rim nodes in ascending angle (_rim_nodes of the
    unit-radius mesh: the order of the angles does not change with the
    radius) and m."""
    ring: np.ndarray
    unit: np.ndarray
    elements: np.ndarray
    plan: _Plan
    rim: np.ndarray
    rings: int


@lru_cache(maxsize=_DISK_TOPOLOGY_CACHE)
def _disk_topology(m: int) -> _DiskTopology:
    """The _DiskTopology of m rings: ring i carries 6*i nodes, numbered from
    1 + 3*i*(i-1), at angles 2*pi*j/(6*i) (math.cos and math.sin, so the
    nodes keep libm's rounding), and each strip between rings i and i+1
    is cut by the two-pointer walk that advances whichever ring trails in
    angle: a stable merge of the inner steps a (key (a+1)*n_o) and the
    outer steps b (key (b+1)*n_i), the inner step first on ties. A step's
    place in the strip is its own index plus the other ring's steps before
    it, so the strips are built as array expressions."""
    i = np.arange(1, m + 1)
    ring = np.repeat(i, 6 * i)
    j = np.arange(ring.size) - 3 * ring * (ring - 1)
    th = (2 * math.pi * j / (6 * ring)).tolist()
    unit = np.empty((ring.size + 1, 2))
    unit[0] = (1.0, 0.0)
    unit[1:, 0] = np.fromiter(map(math.cos, th), float, len(th))
    unit[1:, 1] = np.fromiter(map(math.sin, th), float, len(th))
    ring = np.concatenate(([0.0], ring))

    # strip s (rings s and s+1; the center strip is s = 0) holds triangles
    # 6*s^2 .. 6*(s+1)^2 - 1
    tris = np.empty((6 * m * m, 3), dtype=int)
    c = np.arange(6)
    tris[:6] = np.stack([0 * c, 1 + c, 1 + (c + 1) % 6], axis=1)
    s = np.arange(1, m)
    si = np.repeat(s, 6 * s)                  # inner step a of strip si
    a = np.arange(si.size) - 3 * si * (si - 1)
    first, n_i, n_o = 1 + 3 * si * (si - 1), 6 * si, 6 * (si + 1)
    b = ((a + 1) * n_o + n_i - 1) // n_i - 1  # outer keys below the step's
    tris[6 * si * si + a + b] = np.stack(
        [first + a, first + n_i + b, first + (a + 1) % n_i], axis=1)
    so = np.repeat(s, 6 * (s + 1))            # outer step b of strip so
    b = np.arange(so.size) - 3 * (so - 1) * (so + 2)
    first, n_i, n_o = 1 + 3 * so * (so - 1), 6 * so, 6 * (so + 1)
    a = (b + 1) * n_i // n_o                  # inner keys up to the step's
    tris[6 * so * so + a + b] = np.stack(
        [first + a % n_i, first + n_i + b, first + n_i + (b + 1) % n_o], axis=1)
    ring, unit, elements = _readonly(ring), _readonly(unit), _readonly(tris)
    plan = _plan(elements, ("ux", "uy"), len(ring))
    return _DiskTopology(ring, unit, elements, plan,
                         _readonly(_rim_nodes((ring / m)[:, None] * unit)), m)


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
    return _disk_mesh(max(4, round(r_out / target_edge)), r_out)


def _disk_mesh(m: int, r_out: float) -> Mesh:
    """mesh_disk's mesh with m rings at radius r_out."""
    topology = _disk_topology(m)
    mesh = Mesh(nodes=(r_out * topology.ring / m)[:, None] * topology.unit,
                elements=topology.elements, kind="plane_stress_2d")
    object.__setattr__(mesh, "_topology", topology)
    object.__setattr__(mesh, "_radius", r_out)
    return mesh


def assemble_disk(geom: DiskGeometry, mat: Material, mesh: Mesh) -> AssembledSystem:
    """Plane-stress CST stiffness + consistent mass, free boundary.

    On a mesh from mesh_disk, K and M are a scaled copy (_mapped) of the
    reference disk of the mesh's ring count and Poisson ratio (see the
    module docstring), certified by the reference's extremes
    (_certified). Any other mesh, or a disk that cannot be mapped
    exactly, has its element matrices summed here and is solved directly.
    """
    if mesh.kind != "plane_stress_2d":
        raise MeshError("disk assembly needs a plane_stress_2d mesh")
    e_mod, nu, rho, t = (mat.youngs_modulus, mat.poisson_ratio,
                         mat.density, geom.thickness)
    if mesh._topology is not None:
        e_ref, rho_ref, r_ref, t_ref = _REF_DISK
        r = mesh._radius
        with np.errstate(divide="ignore", over="ignore", invalid="ignore", under="ignore"):
            ratio = np.float64(e_mod) / (rho * r * r) / (e_ref / (rho_ref * r_ref * r_ref))
            k_scale = np.float64(t) * e_mod / (t_ref * e_ref)
            m_scale = np.float64(rho) * t * r * r / (rho_ref * t_ref * r_ref * r_ref)
            d = np.sqrt(m_scale)
        if 0 < ratio < math.inf and 0 < d < math.inf:
            key = (_disk_reference, mesh._topology.rings, nu)
            # a copy with an entry below the normal range would not be exact
            if min(_certified(key, k_scale, m_scale)) >= np.finfo(float).tiny:
                return _mapped(key, k_scale, m_scale, ratio, float(d), mesh)
    return _disk_system(mesh, e_mod, nu, rho, t)


@lru_cache(maxsize=_UNIT_CACHE)
def _disk_reference(rings: int, nu: float) -> _Reference:
    """The _Reference of the disk (_REF_DISK, nu) on mesh_disk's mesh with
    this many rings, summed and gated by _disk_system."""
    e_ref, rho_ref, r_ref, t_ref = _REF_DISK
    mesh = _disk_mesh(rings, r_ref)
    odd = np.zeros(2 * len(mesh.nodes), np.int8)   # D = d I: one class
    return _reference_of(_disk_system(mesh, e_ref, nu, rho_ref, t_ref, odd), odd)


def _disk_system(mesh: Mesh, e_mod, nu, rho, t, odd=None) -> AssembledSystem:
    """_system of the CST elements of a disk of thickness t and material
    (e_mod, nu, rho) on mesh, with no congruence recorded; odd as there
    for a reference disk. An entry that overflows is left to the gate to
    report."""
    with np.errstate(over="ignore", invalid="ignore"):
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
        scale = rho * t * area
    topology = mesh._topology
    plan = (_plan(mesh.elements, ("ux", "uy"), len(mesh.nodes)) if topology is None
            else topology.plan)
    return _system(plan, ke, _ME_TRI, scale, mesh, odd)


# ---------------------------------------------------------------------------
# eigensolver

def _translational_amplitude(sys: AssembledSystem, vecs: np.ndarray) -> np.ndarray:
    """Per-node displacement magnitude from translational dof components
    (the last axis of `vecs` runs over dofs, as in _rim_radial)."""
    padded = np.concatenate((vecs, np.zeros(vecs.shape[:-1] + (1,))), axis=-1)
    return np.hypot.reduce(padded[..., sys._layout.tnode_dofs], axis=-1, initial=0.0)


def _dense_modes(a: np.ndarray, b: np.ndarray, k: int):
    """k lowest eigenpairs (vals, vecs) of the dense symmetric-definite
    pencil (a, b), ascending, by numpy alone: the Cholesky factor B = L L^T
    (of b's lower triangle), the standard pencil C = L^-1 A L^-T solved by
    numpy.linalg.eigh (C's lower triangle) and the vectors L^-T y, which
    are B-orthonormal. LinAlgError if b is not positive definite or C or
    a returned pair is not finite (as on a pencil whose eigenvalues
    overflow).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        l_inv = np.linalg.inv(np.linalg.cholesky(b))
        c = l_inv @ a @ l_inv.T
        if not np.isfinite(c).all():
            raise np.linalg.LinAlgError("the reduced pencil L^-1 A L^-T is not finite")
        vals, y = np.linalg.eigh(c)
        vals, vecs = vals[:k], l_inv.T @ y[:, :k]
    if not (np.isfinite(vals).all() and np.isfinite(vecs).all()):
        raise np.linalg.LinAlgError(f"of the {k} lowest eigenpairs, some are not finite")
    return vals, vecs


def _eigenvalue_scale(kk, mm) -> float:
    """The median diag(K)/diag(M) of the free-dof CSC pencil (kk, mm): the
    scale of its eigenvalues (inf where it overflows)."""
    with np.errstate(over="ignore"):
        return float(np.median(kk.diagonal() / mm.diagonal()))


def _shift_invert_modes(kk, mm, k: int, *, spare: int = 0, residual_margin: bool = True):
    """k lowest eigenpairs (vals, vecs) of the CSC pencil (kk, mm),
    ascending, and up to spare more from the same window; needs 4k < n.

    The shift sits below zero, at _SHIFT_RATIO of the eigenvalue scale
    (_eigenvalue_scale), so K - sigma*M is positive definite even with
    rigid-body modes. The ratio trades accuracy for Lanczos steps: nearer
    zero (1e-12) K - sigma*M is nearly singular, its solves lose digits in
    the rigid directions and some disk modes end above _BACKWARD_BOUND;
    farther from it (1e-7, 1e-6) ARPACK restarts more often, for up to a
    third more LU solves (sweeps in README.md, "Cost of one design
    analysis").
    ARPACK starts from a fixed vector, so the result is deterministic; a
    shift below the normal range or an M-norm of that vector that
    overflows is refused (LinAlgError) before ARPACK runs. It finds 2k
    pairs: asked for k alone it split degenerate disk pairs at
    the window edge, missed an eigenvalue at k = 12 on disks R/8 to R/20
    and left residuals up to 1e-7. An inverse-iteration step with the
    same factorization and a 2k x 2k Rayleigh-Ritz projection then bring
    the disk residuals below 1e-9; the spare pairs are Ritz pairs of that
    projection, so they cost no wider window. The step is repeated, at most
    _POLISH_REPEATS times, while a returned pair is above _POLISH_MARGIN of
    the backward-error bound or, with residual_margin, an elastic one above
    it of the residual bound, so that a pair mapped to a congruent pencil
    keeps a margin. The Jacobi-scaled backward error is the same on every
    diagonally congruent pencil, the relative residual only on a scalar
    multiple: a unit beam's is not its beams' (residual_margin False).
    """
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = kk.shape[0]
    sigma = -_SHIFT_RATIO * _eigenvalue_scale(kk, mm)
    with np.errstate(over="ignore"):
        start = float(mm.data.sum())   # v0^T M v0 of ARPACK's start vector v0 = (1, ..., 1)
    if not (-sigma >= np.finfo(float).tiny and start < math.inf):
        # else ARPACK fails, and LAPACK (DLASCL) writes to stdout on the way
        raise np.linalg.LinAlgError(f"ARPACK needs a normal shift and a finite v0^T M v0, "
                                    f"got {sigma!r} and {start!r}")
    ks, ms = kk._scipy(), mm._scipy()
    lu = _symmetric_lu(ks - sigma * ms)
    op = LinearOperator((n, n), matvec=lu.solve, dtype=float)
    _, x = eigsh(ks, 2 * k, M=ms, sigma=sigma, OPinv=op, v0=np.ones(n))
    norms = _scaled_norms(kk, mm)
    kept = k + spare
    for _ in range(1 + _POLISH_REPEATS):
        x = lu.solve(ms @ x)
        # Lanczos vectors of an extreme but normal pencil can overflow here
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = x.T @ (ks @ x), x.T @ (ms @ x)
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise np.linalg.LinAlgError("the Rayleigh-Ritz projection is not finite")
        vals, q = _dense_modes(a, b, 2 * k)
        x = x @ q
        vals_k, x_k = vals[:kept], x[:, :kept]
        elastic, resid, berr = _accuracy(kk, mm, vals_k, x_k, norms)
        if np.all(berr <= _POLISH_MARGIN * _BACKWARD_BOUND) and not (
                residual_margin and np.any(elastic & (resid > _POLISH_MARGIN * _RESIDUAL_BOUND))):
            break
    return vals_k, x_k


def _pencil_modes(kk, mm, k: int, *, spare: int = 0, residual_margin: bool = True):
    """k lowest eigenpairs (vals, vecs) of the free-dof CSC pencil (kk,
    mm), and up to spare more: the dense solve of the dense copies
    (_dense_modes) with at most _SPARSE_MIN_DOF free dofs or for k >= n/4,
    shift-invert Lanczos otherwise (spare and residual_margin as there)."""
    n = kk.shape[0]
    if n <= _SPARSE_MIN_DOF or 4 * k >= n:
        return _dense_modes(kk.toarray(), mm.toarray(), min(k + spare, n))
    return _shift_invert_modes(kk, mm, k, spare=spare, residual_margin=residual_margin)


@lru_cache(maxsize=_UNIT_CACHE)
def _reference_pairs(key: tuple, k: int):
    """k lowest eigenpairs (mu, psi) of the free-dof pencil of the reference
    of key (_reference), as read-only arrays, solved as a copy's own pencil
    would be. Only a scalar congruence maps the relative residual, so a
    beam's solve keeps no margin on it (_shift_invert_modes)."""
    ref = _reference(key)
    vals, vecs = _pencil_modes(ref.system._kf, ref.system._mf, k,
                               residual_margin=key[0] is _disk_reference)
    return _readonly(vals), _readonly(vecs)


def _jacobi(kk) -> np.ndarray:
    """d = |diag(K)|^-1/2 of the Jacobi scaling D = diag(d), 1 where K_ii is 0."""
    diag = np.abs(kk.diagonal())
    return 1.0 / np.sqrt(np.where(diag > 0, diag, 1.0))


def _scaled_norms(kk, mm):
    """(||DKD||_F, ||DMD||_F) of the free-dof CSC pencil (kk, mm),
    D = diag(d) of _jacobi; inf where a norm overflows."""
    d = _jacobi(kk)
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(float(np.linalg.norm(d[a.indices] * a.data * d[a._columns()]))
                     for a in (kk, mm))


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
    vals, full, _ = _solve(sys, k)
    return [(_frequency(lam), vec) for lam, vec in zip(vals.tolist(), full)]


def _frequency(lam: float) -> float:
    """The frequency in Hz of the eigenvalue lam (rad^2/s^2), 0 below 0."""
    return math.sqrt(max(lam, 0.0)) / (2 * math.pi)


def _solve(sys: AssembledSystem, k: int, spare: int = 0):
    """The gated modes of solve_modes, and up to spare more where the solve
    has them at no extra cost: (eigenvalues, full-length normalized mode
    vectors as rows, the scaled norms of the backward-error gate).

    A system with a congruence maps the cached reference pairs (see the
    module docstring); any other is solved on its own pencil, or refused
    before the dense solve or ARPACK sees it if its eigenvalue scale is
    not a normal float. The gates then run on the system's own K and M
    (_gated)."""
    free = sys.free_dofs()
    k = _count("k", k, len(free))
    kk, mm = sys._kf, sys._mf
    c = sys._congruence
    if c is None:
        scale = _eigenvalue_scale(kk, mm)
        if not np.finfo(float).tiny <= scale < math.inf:
            raise EigenSolveError("eigenvalue scale median(diag K / diag M) must be a "
                                  f"normal float, got {scale!r}")
    try:
        if c is None:
            vals, vecs = _pencil_modes(kk, mm, k, spare=spare)
        else:
            mu, psi = _reference_pairs(c.key, k)
            vals, vecs = mu[:k + spare] * c.ratio, psi[:, :k + spare] / c.d
    except (np.linalg.LinAlgError, RuntimeError) as exc:   # ArpackError is a RuntimeError
        raise EigenSolveError(f"generalized eigensolver failed: {exc}") from None

    # a mapped system's scaled norms are mapped from its reference's
    norms = _scaled_norms(kk, mm) if c is None else c.norms
    kept = _gated(*_accuracy(kk, mm, vals, vecs, norms), k)
    full = np.zeros((kept, len(sys.dof_map)))
    full[:, free] = vecs[:, :kept].T
    _normalize(sys, full)
    return vals[:kept], full, norms


def _gated(elastic, resid, berr, k: int) -> int:
    """How many pairs of an _accuracy (elastic, resid, berr) are kept: the
    first k must pass the gates of solve_modes, or EigenSolveError names
    the first that does not; the spare pairs after them are kept up to the
    first that fails a gate."""
    bad = np.flatnonzero(elastic[:k] & (resid[:k] > _RESIDUAL_BOUND))
    if bad.size:
        raise EigenSolveError(
            f"eigen-residual {resid[bad[0]]:.2e} exceeds {_RESIDUAL_BOUND:.0e} "
            f"for mode {bad[0]}")
    # every mode, rigid ones too, passes the backward-error gate
    bad = np.flatnonzero(~(berr[:k] <= _BACKWARD_BOUND))
    if bad.size:
        raise EigenSolveError(
            f"backward error {berr[bad[0]]:.2e} exceeds {_BACKWARD_BOUND:.0e} "
            f"for mode {bad[0]}")
    return k + int(np.argmin(np.append(_passed(elastic, resid, berr)[k:], False)))


def _count(name: str, k, most: int) -> int:
    """k, a number of modes, as an int: an integer (not a bool) in
    [1, most], or EigenSolveError."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= most:
        raise EigenSolveError(f"{name} must be an integer in [1, {most}], got {k!r}")
    return int(k)


def _passed(elastic, resid, berr) -> np.ndarray:
    """Which pairs of an _accuracy pass the gates of solve_modes: the
    backward-error bound, and the residual bound where elastic."""
    return ~(elastic & (resid > _RESIDUAL_BOUND)) & (berr <= _BACKWARD_BOUND)


def _accuracy(kk, mm, vals, vecs, norms):
    """(elastic, resid, berr) of the pairs (vals, vecs) of the free-dof
    CSC pencil (kk, mm): which pairs are away from the rigid-body null
    space, where the relative residual ||K v - lambda M v|| / ||K v|| of
    resid is meaningful, and the backward error of each (_backward_errors,
    norms its scaled norms). EigenSolveError if a vector norm overflows."""
    kv = kk @ vecs
    with np.errstate(over="ignore"):
        norm_kv, norm_v = np.linalg.norm(kv, axis=0), np.linalg.norm(vecs, axis=0)
    if not (np.isfinite(norm_kv).all() and np.isfinite(norm_v).all()):
        # M-normalized vectors of a mass matrix near the float floor
        raise EigenSolveError("mode vector norms overflow; the residual cannot be gated")
    # every nonzero of K is stored, so max|K| is that of its data
    elastic = norm_kv > 1e-9 * float(abs(kk.data).max(initial=0.0)) * norm_v
    r = kv - vals * (mm @ vecs)
    resid = np.linalg.norm(r, axis=0) / np.where(elastic, norm_kv, 1.0)
    return elastic, resid, _backward_errors(kk, mm, vals, vecs, r, norms)


def _normalize(sys: AssembledSystem, full: np.ndarray) -> None:
    """Scale each full-length mode vector (a row of full) in place to unit
    maximum translational displacement, then apply the sign convention: the
    two peaks of an antisymmetric mode differ only by rounding, so the
    first translational entry near the largest magnitude is made positive."""
    peak = np.max(_translational_amplitude(sys, full), axis=1)
    full /= np.where(peak > 0, peak, 1.0)[:, None]
    tvals = full[:, sys._layout.tdofs]
    mag = np.abs(tvals)
    first = np.argmax(mag >= (1 - _SIGN_RTOL) * mag.max(axis=1, keepdims=True), axis=1)
    lead = tvals[np.arange(len(full)), first]
    full[lead < 0] *= -1.0


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
    returns them).

    A disk on a mesh_disk mesh maps the finished solve of its reference
    disk (_reference_modes): the eigenvalues times the ratio of its
    congruence, and the reference's mode vectors, angular orders and mode
    shapes. All n_modes + 3 mapped pairs, rigid ones too, must pass the
    gates of solve_modes on the disk's own K and M (_gated), as a mapped
    beam's must. A disk on a caller's mesh, or one assembled directly, is
    finished on its own pencil (_finish_disk). The effective masses are
    computed from the disk's own mass and rim (_disk_results).
    """
    sys = assemble_disk(geom, mat, mesh)
    n_modes = _count("n_modes", n_modes, len(sys.free_dofs()) - 3)
    c = sys._congruence
    if c is None:
        modes = _finish_disk(sys, n_modes)
        return sys, *_disk_results(sys, modes.lam, modes)
    modes = _reference_modes(c.key, n_modes)
    lam = modes.lam * c.ratio
    _gated(*_accuracy(sys._kf, sys._mf, lam, modes.vecs.T, c.norms), len(lam))
    _rigid_check(lam)
    return sys, *_disk_results(sys, lam, modes)


class _DiskModes(NamedTuple):
    """A free disk's finished solve (_finish_disk): the n_modes + 3
    eigenvalues, rigid-body modes first; the full-length mode vectors as
    rows, normalized as solve_modes normalizes and each degenerate pair in
    its canonical basis; the angular order and the mode shape (translational
    amplitude per node, unit maximum) of each elastic mode. Arrays are
    read-only: a reference disk's are shared by every disk mapped from it."""
    lam: np.ndarray
    vecs: np.ndarray
    orders: tuple
    shapes: np.ndarray


@lru_cache(maxsize=_UNIT_CACHE)
def _reference_modes(key: tuple, n_modes: int) -> _DiskModes:
    """The finished solve of the reference disk of key (_reference) with
    n_modes elastic modes."""
    return _finish_disk(_reference(key).system, n_modes)


def _rigid_check(lam: np.ndarray) -> None:
    """RigidBodyModeError unless exactly 3 of a free disk's 4 lowest
    eigenvalues lam lie below _RIGID_RATIO of the fourth."""
    n_rigid = int(np.sum(lam[:4] < _RIGID_RATIO * lam[3]))
    if n_rigid != 3:
        raise RigidBodyModeError(
            f"expected 3 rigid-body modes for a free disk, found {n_rigid}")


def _finish_disk(sys: AssembledSystem, n_modes: int) -> _DiskModes:
    """The _DiskModes of the free disk sys, solved on its own pencil.

    Each degenerate pair (neighbouring elastic modes of one angular order
    n > 0, eigenvalues within _PAIR_GAP) is reported in one basis
    (_canonical_pair) where both rotated members pass the gates of
    solve_modes, then normalized as solve_modes normalizes. The solve
    keeps one spare pair beyond the wanted modes (_solve), so that a pair
    at the window's edge is whole; it is dropped at the end.
    """
    wanted = n_modes + 3
    lam, vecs, norms = _solve(sys, wanted, spare=1)
    _rigid_check(lam)
    elastic = vecs[3:]
    theta, u_rads = _rim_radial(sys.mesh, elastic)
    basis = _harmonic_basis(theta)
    orders = []
    for u_rad in u_rads:
        try:
            orders.append(_dominant_harmonic(basis, u_rad))
        except AmbiguousAngularOrderError:
            orders.append(0)
    firsts, i = [], 0
    while i < min(n_modes, len(orders) - 1):
        n = orders[i]
        if n > 0 and orders[i + 1] == n and lam[4 + i] - lam[3 + i] <= _PAIR_GAP * lam[4 + i]:
            firsts.append(i)
            i += 1
        i += 1
    if firsts:
        # turn every pair, gate them together and keep those that pass whole
        free = sys.free_dofs()
        rows = np.ravel([(i, i + 1) for i in firsts])
        turned = np.concatenate([_canonical_pair(sys, basis[1][orders[i]], u_rads[i:i + 2],
                                                 elastic[i:i + 2]) for i in firsts])
        passed = _passed(*_accuracy(sys._kf, sys._mf, lam[3 + rows], turned[:, free].T,
                                    norms))
        whole = passed.reshape(-1, 2).all(axis=1).repeat(2)
        rows, turned = rows[whole], turned[whole]
        _normalize(sys, turned)
        elastic[rows] = turned
    amp = _translational_amplitude(sys, elastic[:n_modes])
    return _DiskModes(_readonly(lam[:wanted]), _readonly(vecs[:wanted]),
                      tuple(orders[:n_modes]), _readonly(amp / amp.max(axis=1, keepdims=True)))


def _disk_results(sys: AssembledSystem, lam: np.ndarray, modes: _DiskModes):
    """(elastic modes as [(frequency_hz, mode_vector)], their ModeResults)
    of the free disk sys with eigenvalues lam and finished solve modes: the
    effective mass of each is phi^T M phi with the disk's own M, phi scaled
    to max |u_r| = 1 on the disk's own rim."""
    freqs = [_frequency(x) for x in lam[3:].tolist()]
    vecs = modes.vecs[3:]
    free = sys.free_dofs()
    results = []
    for freq, vec, u_rad, order, shape in zip(freqs, vecs, _rim_radial(sys.mesh, vecs)[1],
                                              modes.orders, modes.shapes):
        rim = float(np.max(np.abs(u_rad)))
        if rim <= 0:
            continue
        scaled = vec[free] / rim
        m_eff = float(scaled @ (sys._mf @ scaled))   # M v: a CSC M needs no transposed copy
        w0 = 2 * math.pi * freq
        results.append(ModeResult(frequency=freq, mode_order=order,
                                  effective_mass=m_eff,
                                  effective_stiffness=w0 * w0 * m_eff,
                                  mode_shape=shape))
    return list(zip(freqs, vecs)), results


def _canonical_pair(sys: AssembledSystem, sin_n, u_rads, pair):
    """The degenerate pair of full-length mode vectors (the rows of pair,
    whose rim u_r are the rows of u_rads) in its canonical basis, not yet
    normalized; sin_n is sin(n theta) at the rim angles (the pair as given
    if its rim u_r has no such part). The pair is M-orthonormalized and
    rotated within its span so that the first member's rim u_r has no
    sin(n theta) part, which puts an antinode at theta = 0. The second
    member is M-orthogonal to it, so its rim u_r has no cos(n theta) part:
    the 60-degree symmetry of mesh_disk's mesh turns the pair by n * 60
    degrees, which for n not a multiple of 3 makes the map from the pair to
    its rim (cos, sin) parts a scaled rotation."""
    free = sys.free_dofs()
    w = pair[:, free]
    chol = np.linalg.cholesky(w @ (sys._mf @ w.T))
    w = np.linalg.solve(chol, w)          # M-orthonormal rows
    s = np.linalg.solve(chol, u_rads @ sin_n)   # their rim sin(n theta) parts
    if not np.hypot(*s) > 0:
        return pair
    full = np.zeros_like(pair)
    full[:, free] = np.array([[s[1], -s[0]], [s[0], s[1]]]) @ w
    return full


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
