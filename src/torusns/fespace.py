"""Mixed velocity/pressure finite element spaces on the periodic mesh.

Velocity: continuous piecewise-linear vector fields enriched with one
interior bubble (the product of the four barycentric coordinates, scaled
to peak value one) per element and component.  Pressure: continuous
piecewise linears.  Both spaces represent zero-mean fields; the saddle
systems impose the mean constraint through scalar Lagrange multipliers.
The L2 projections eliminate theirs in closed form: the mass matrix maps
the constant function to the basis integrals, so the zero-mean
projection is M^-1 b minus a multiple of the constant.

A single quadrature rule (degree 11 by default) is used for every
integral in the package.  At that degree all products of discrete
fields that appear anywhere downstream are integrated exactly, so the
algebraic identities the solver is tested against hold at roundoff and
cannot drift apart between modules using different rules.

Element tables are computed once per Kuhn type (there are only six
element shapes up to translation) and contracted per Kuhn type: element
matrices take one matmul per type's stride-6 slice, and field samples
one matmul per type for a whole stack of coefficient vectors
(`_samples_of_type`), in type-major layout (vector, component, element
of the type, point), so a caller can hold one type's samples of several
fields at a time.  The E-major evaluators (`velocity_values` and its
kin) write those blocks into the stride-6 element layout.
Trigonometric data are evaluated the same way: every quadrature point is
an element corner plus one of its type's reference offsets, and the
corners of each type's elements are the mesh vertices, in order, so a
type's samples are one factored complex product (`_values_of_type`,
`TrigPoly.value_on`) instead of a cos and a sin per mode and point.
The projections of data (through `_scalar_load`), the weighted forms
and the local energy balance's test factors (`diagnostics`) sample one
type at a time and drop its samples once contracted; only
`field_values`, for the pointwise forms that read every point at once
(the commutator defects, `torusns check`), writes all six types into one
(E, Q[, 3]) array.  A type's samples are the same matmul operand either
way, so the numbers are bitwise those of the whole-mesh stack.
Every weighted form (the commutator constants' matrices and the local
energy balance's) goes through `_weighted_matrix`: its caller builds K
trigonometric weights by exact algebra (products, gradient components,
Laplacian), and it samples them one type's (E/6, Q, K) block at a time
against a per-type product table of basis values and gradients.

Every global matrix is summed from element matrices through a `_Pattern`:
the CSR structure of one dofmap pair, with the data slot of every element
entry, so that assembly is one `np.bincount` into a fixed data array.  A
space builds its patterns once, on first use (`VelocitySpace.pattern`,
`.block_pattern`, `.vector_pattern`, `PressureSpace.pattern`); the vector
ones are the scalar one repeated in a 3 x 3 block grid, derived from it
without a sort, in int32; the grid's slots skip its diagonal blocks.

Every cell owns the same dofs: 7 scalar velocity ones, its vertex c and
the bubbles n^3 + 6 c + t of its six elements, and 1 pressure one, its
vertex (`cell_dofs`).  A shift by whole cells permutes them, so the two
mass matrices are solved by their lattice Fourier blocks over that map
(`Operators.Ms_solver` and `.Mp_solver`, `linsolve.LatticeSolver`), the
four measured constants are extreme eigenvalues of such blocks
(`linsolve.cell_symbols`), and nothing here is factorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linsolve import LatticeSolver, cell_symbols
from .mesh import KUHN_OFFSETS, PeriodicMesh
from .quadrature import DEFAULT_DEGREE, TetRule, tet_rule
from .trig import TrigPoly, TrigVector

N_LOCAL = 5          # 4 vertex functions + 1 bubble
N_LOCAL_P = 4
#: blocks per product of `_scalar_quadform` (four velocity states): a
#: product gathers QUADFORM_ROWS values per matrix entry, and with 24 a
#: report's peak memory at n=4 was 1.2 MB higher, at the same speed
QUADFORM_ROWS = 12
#: states per block of a report's passes over a trajectory (norms, balance
#: forms, divergence scan): a block's rows are two `_scalar_quadform`
#: products
ROWS = 8

#: Levi-Civita symbol, eps_{ijk} = (e_i x e_j)_k
_EPS = np.cross(np.eye(3)[:, None], np.eye(3))


def _reference_basis(points):
    """Values and gradients of [lam0, lam1, lam2, lam3, bubble]."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    lam = np.stack([1.0 - x - y - z, x, y, z], axis=1)       # (Q, 4)
    dlam = np.array([[-1.0, -1.0, -1.0],
                     [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])                        # (4, 3)
    bubble = 256.0 * lam.prod(axis=1)
    vals = np.concatenate([lam, bubble[:, None]], axis=1)     # (Q, 5)
    dbubble = np.zeros((points.shape[0], 3))
    for a in range(4):
        others = [b for b in range(4) if b != a]
        dbubble += np.outer(lam[:, others].prod(axis=1), dlam[a])
    dbubble *= 256.0
    grads = np.concatenate(
        [np.broadcast_to(dlam, (points.shape[0], 4, 3)).copy(),
         dbubble[:, None, :]], axis=1)                        # (Q, 5, 3)
    return vals, grads


class ElementTables:
    """Per-Kuhn-type basis tables for one mesh and one quadrature rule:
    values `N` (the same for every type) and gradients `grad`, (6, Q, 5, K)
    with K = 1 and 3.  Element e uses table e % 6 (the mesh layout).  Its
    quadrature points are its cube corner mesh.vertices[e // 6] plus
    offsets[e % 6], (6, Q, 3); `field_values` evaluates data there
    without gathering them."""

    def __init__(self, mesh: PeriodicMesh, rule: TetRule):
        a = mesh.cell_size
        self.w_phys = a ** 3 * rule.weights          # |det J| = a^3, all types
        vals, dN = _reference_basis(rule.points)
        self.N = np.broadcast_to(vals[:, :, None], (6,) + vals.shape + (1,))
        self.grad = np.empty((6, rule.n_points, N_LOCAL, 3))
        self.offsets = np.empty((6, rule.n_points, 3))
        for t in range(6):
            off = KUHN_OFFSETS[t]
            jhat = (off[1:] - off[0]).T
            self.grad[t] = dN @ np.linalg.inv(jhat) / a
            self.offsets[t] = a * (off[0] + rule.points @ jhat.T)

    @cached_property
    def _trilinear(self):
        """(6, 3, 5, 5, 5) integrals sum_q w_q d_l N_c N_a N_b per type,
        index [t, l, c, a, b]: exact at degree 11 (degree 3 + 4 + 4)."""
        N = self.N[0, :, :, 0]
        return np.einsum("q,tqcl,qa,qb->tlcab", self.w_phys, self.grad, N, N)

    @cached_property
    def transport(self):
        """(6, 15, 25) tensor of the antisymmetric transport: nodal values
        u[k c] of the advecting field times row (k c) give the element
        matrix 0.5 [(u.grad N_b, N_a) - (u.grad N_a, N_b)], index 5 a + b."""
        T = self._trilinear.transpose(0, 1, 3, 4, 2)  # sum N_c d_k N_b N_a
        return (0.5 * (T - T.swapaxes(-1, -2))).reshape(6, 3 * N_LOCAL, -1)

    @cached_property
    def rotation(self):
        """(6, 15, 150) tensor of the rotational form: nodal values u[k c]
        times row (k c) give the element matrix eps_{imj} ((curl u)_m N_b,
        N_a) on the vector basis, index (5 i + a) 15 + 5 j + b less the
        zero entries j = i, with (curl N_c e_k)_m = eps_{mlk} d_l N_c."""
        R = np.einsum("imj,mlk,tlcab->tkciajb", _EPS, _EPS, self._trilinear)
        off = np.kron(1 - np.eye(3), np.ones((N_LOCAL, N_LOCAL))).ravel() > 0
        return R.reshape(6, 3 * N_LOCAL, -1)[:, :, off]


def _samples_of_type(coeffs, dofmap, table, k):
    """Samples of a stack of S coefficient vectors at the quadrature points
    of the Kuhn-type-k elements (every sixth element, from k), type-major:
    for coeffs (S, C, n) of C components on `dofmap` (E, A), out[s, c, i,
    q, d] = sum_a coeffs[s, c, dofmap[6 i + k, a]] table[k, q, a, d] over
    the table's first A functions (pressure: the vertex part).  One
    (S C n_k, A) @ (A, Q D) product into a contiguous (S, C, n_k, Q, D)
    array, with no transposed write."""
    nodal = coeffs[:, :, dofmap[k::6]]                      # (S, C, n_k, A)
    A = nodal.shape[-1]
    _, Q, _, D = table.shape
    prod = nodal.reshape(-1, A) @ table[k, :, :A].transpose(1, 0, 2).reshape(
        A, Q * D)
    return prod.reshape(nodal.shape[:3] + (Q, D))


def _evaluate(coeffs, dofmap, table):
    """out[e, q, c, d] of one coefficient vector coeffs (C, n): the
    E-major layout of `_samples_of_type`, each type's block written into
    its stride-6 slice of `out`."""
    out = np.empty((len(dofmap), table.shape[1], len(coeffs), table.shape[3]))
    for k in range(6):
        out[k::6] = _samples_of_type(coeffs[None], dofmap, table,
                                     k)[0].transpose(1, 2, 0, 3)
    return out


def _local_matrices(spaces, left, right):
    """Element matrices loc[e, a, b] = sum_q w_q sum_k left[.., q, a, k]
    right[e % 6, q, b, k], one matmul per Kuhn type.

    The left side is either sampled per point, (E, Q, A, K), or a per-type
    table (6, Q, A, K) used for every cube, or a function of the type t
    returning that type's samples, (E/6, Q, A, K), so that one type's
    exist at a time; the right side is always a per-type table
    (6, Q, B, K).
    """
    E = spaces.mesh.n_tets
    loc = None
    for t in range(6):
        s = (left(t) if callable(left) else
             left[t::6] if len(left) == E else left[t:t + 1])
        if loc is None:
            loc = np.empty((E, s.shape[2], right.shape[2]))
            weights = np.repeat(spaces.tables.w_phys, s.shape[3])  # (q, k)
        s = s.transpose(0, 2, 1, 3).reshape(len(s), s.shape[2], -1)
        r = right[t].transpose(1, 0, 2).reshape(right.shape[2], -1)
        loc[t::6] = s @ (r * weights).T           # (n, A, QK) @ (QK, B)
    return loc


def _product_table(left, right):
    """(6, Q, A*B, K) table of the products left[.., a, k] right[.., b, k]
    of two per-type tables, local index B*a + b (K may broadcast)."""
    prod = left[:, :, :, None] * right[:, :, None]
    return prod.reshape(prod.shape[:2] + (-1, prod.shape[-1]))


def _weighted_matrix(spaces, weights, table, pattern) -> _CSR:
    """Weighted form on a square `pattern`: element entries sum_q w_q
    sum_k f_k(x_q) table[e % 6, q, A a + b, k] of K trigonometric weights
    f_k (TrigPoly, built by exact algebra), sampled here one Kuhn type at
    a time into an (E/6, Q, 1, K) stack, and a per-type product table
    (6, Q, A A, K)."""
    def samples(t):
        out = np.empty((spaces.mesh.n_vertices, spaces.tables.w_phys.size,
                        1, len(weights)))
        for k, f in enumerate(weights):
            out[:, :, 0, k] = _values_of_type(spaces, f, t)
        return out
    return pattern.assemble(_local_matrices(spaces, samples, table))


class _CSR:
    """A sparse matrix on a `_Pattern`, the package's one sparse type: the
    pattern's shared CSR arrays (`indptr`, `indices`, `shape`) and its
    own `data`, in the pattern's entry order.

    `@` takes a vector (n,) or a column stack (n, k), read as the rows of
    its transpose, so the transpose of a C stack of vectors is read in
    place, and the answer is the transpose of a C array of rows.  Each
    entry sums its row's products one at a time, in the order of the
    row's entries, from zero: the order of scipy's compiled CSR loop, so
    a column of a stack is bitwise the product with that column alone,
    and a product is bitwise scipy's where that loop rounds each product
    before adding it (as on x86-64).  The rows are gathered per row group
    of the pattern (`_Pattern.groups`) and multiplied by the matrix's
    data in that layout, gathered on the first product; the data are
    read-only from then on, since a change would not reach the products.
    Like a compiled loop, a product warns of no overflow or invalid
    value: inf and NaN reach the guards."""

    def __init__(self, pattern, data):
        self.pattern, self.data = pattern, data
        self.indptr, self.indices = pattern.indptr, pattern.indices
        self.shape = pattern.shape

    @cached_property
    def _grouped(self):
        """The data in the layout of `_Pattern.groups`: (L, R) per group."""
        grouped = [self.data[slots] for _, slots, _ in self.pattern.groups]
        self.data.flags.writeable = False
        return grouped

    def __matmul__(self, x):
        x = np.asarray(x)
        y = _products([self], x if x.ndim == 1 else x.T)[0]
        return y if x.ndim == 1 else y.T

    @property
    def T(self) -> "_CSR":
        """The transpose, on the transposed pattern."""
        transpose = self.pattern.transpose
        return transpose.matrix(self.data[transpose.source])


def _products(matrices, rows):
    """A x for every matrix A of `matrices`, which share one pattern, and
    every row x of `rows`, (..., n): (len(matrices), ..., m).  Per row
    group of the pattern the rows are gathered once, and the matrices
    share that gather (see `_CSR`)."""
    pattern = matrices[0].pattern
    y = np.zeros((len(matrices),) + rows.shape[:-1] + (pattern.shape[0],))
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (r, _, cols) in enumerate(pattern.groups):
            gathered = np.take(rows, cols, axis=-1)        # (..., L, R)
            for out, matrix in zip(y, matrices):
                # over l, the outer axis of C-contiguous operands, einsum
                # adds v[l, r] x[l, r] to out[r] for l in turn, and makes
                # no array of the products
                out[..., r] = np.einsum("lr,...lr->...r", matrix._grouped[g],
                                        gathered)
    return y


class _Pattern:
    """Sparsity pattern of the matrices summed from element matrices on
    one dofmap pair: CSR `indptr` and `indices` (int32, sorted, without
    duplicates; read-only, since every matrix made here shares them) and,
    where assembly goes through it, the data `slot` of each element entry
    (int32, (E, A, B); the block grid's, (E, 6 A A), skips its diagonal
    blocks).  Explicit zeros stay stored, so one pattern
    serves every matrix of the pair; its matrices are `_CSR`."""

    def __init__(self, indptr, indices, shape, slot=None):
        for a in (indptr, indices):
            a.flags.writeable = False
        self.indptr, self.indices, self.shape = indptr, indices, shape
        self.slot = slot

    @classmethod
    def of(cls, row_dof, col_dof):
        """The pattern of the element entries (row_dof[e, a],
        col_dof[e, b]); every dof occurs in its dofmap, so the largest
        ones fix the shape."""
        n_rows, n_cols = int(row_dof.max()) + 1, int(col_dof.max()) + 1
        keys = (row_dof.astype(np.int64)[:, :, None] * n_cols
                + col_dof[:, None, :])
        entries, slot = np.unique(keys.ravel(), return_inverse=True)
        counts = np.bincount(entries // n_cols, minlength=n_rows)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        return cls(indptr, (entries % n_cols).astype(np.int32),
                   (n_rows, n_cols), slot.reshape(keys.shape).astype(np.int32))

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def matrix(self, data) -> _CSR:
        """The matrix with entries `data`, in the pattern's order."""
        return _CSR(self, data)

    def assemble(self, loc) -> _CSR:
        """Sum element matrices loc[e, a, b] (any shape holding the E A B
        entries in that order) into the pattern's entries."""
        return self.matrix(np.bincount(self.slot.ravel(), np.ravel(loc),
                                       minlength=self.nnz))

    @cached_property
    def groups(self):
        """The rows of each length L that occurs, for the products of
        `_CSR`: (rows (R,), slots (L, R) of their entries in the data,
        columns (L, R)), intp, entry l of row r at [l, r]; a row's entries
        are a column of the (L, R) arrays, so a product sums over their
        outer axis, one entry at a time."""
        length = np.diff(self.indptr)
        out = []
        # the lengths that occur, without np.unique, which imports
        # numpy.ma (13 ms) to look for a mask
        for L in np.flatnonzero(np.bincount(length)[1:]) + 1:
            rows = np.flatnonzero(length == L)
            slots = self.indptr[rows] + np.arange(L, dtype=np.intp)[:, None]
            out.append((rows, slots, self.indices[slots].astype(np.intp)))
        return out

    @cached_property
    def transpose(self) -> "_Pattern":
        """The pattern of the transposed matrices; its `source` holds the
        entry of this pattern that each of its entries is."""
        n_rows, n_cols = self.shape
        source = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(n_rows, dtype=np.int32),
                         np.diff(self.indptr))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(
            self.indices, minlength=n_cols))]).astype(np.int32)
        transpose = _Pattern(indptr, rows[source], (n_cols, n_rows))
        transpose.source = source
        return transpose

    def block_diagonal(self) -> "_Pattern":
        """The pattern of diag(S, S, S) on the vector dofs c n + i, for a
        square pattern of S: three shifted copies (no element slots; its
        data are S's, tiled three times)."""
        n, nnz = self.shape[0], self.nnz
        indptr = np.concatenate([self.indptr[:-1] + c * nnz for c in range(3)]
                                + [[3 * nnz]]).astype(np.int32)
        indices = np.concatenate([self.indices + c * n for c in range(3)])
        return _Pattern(indptr, indices.astype(np.int32), (3 * n, 3 * n))

    def block_grid(self) -> "_Pattern":
        """This square pattern in each block of a 3 x 3 grid: the pattern
        on the vector dofmap [dof, dof + n, dof + 2 n], local index A c + a.

        Row (ci, r) holds row r's entries for cj = 0, 1, 2 in turn, so
        entry k of block (ci, cj) sits at ci 3 nnz + 3 indptr[r] +
        cj len(r) + (k - indptr[r]): indices and element slots follow from
        this pattern's without a sort, and `diagonal` (3, nnz) is where
        the diagonal blocks hold this pattern's entries.  Element slots
        are kept for the entries ci != cj only, (E, 6 A A) in order."""
        n, nnz = self.shape[0], self.nnz
        length = np.diff(self.indptr)
        row = np.repeat(np.arange(n, dtype=np.int32), length)
        start = 2 * self.indptr[row] + np.arange(nnz, dtype=np.int32)
        c = np.arange(3, dtype=np.int32)
        pos = 3 * nnz * c[:, None, None] + c[:, None] * length[row] + start
        indices = np.empty(9 * nnz, dtype=np.int32)
        indices[pos] = self.indices + n * c[:, None]
        indptr = np.concatenate([3 * self.indptr[:-1] + ci * 3 * nnz
                                 for ci in range(3)] + [[9 * nnz]])
        E, A = self.slot.shape[:2]
        off = pos[~np.eye(3, dtype=bool)][:, self.slot]       # (6, E, A, A)
        slot = off.reshape(3, 2, E, A, A).transpose(2, 0, 3, 1, 4)
        grid = _Pattern(indptr.astype(np.int32), indices, (3 * n, 3 * n),
                        slot.reshape(E, 6 * A * A))
        grid.diagonal = pos[c, c].astype(np.intp)
        return grid


@dataclass
class VelocitySpace:
    n_scalar: int
    dofmap: np.ndarray  # (E, 5)

    @property
    def cell_dofs(self) -> np.ndarray:
        """(n^3, 7) scalar dofs of each cell: its vertex c, then the
        bubbles n^3 + 6 c + t of its six elements; a shift by whole cells
        permutes the rows (`linsolve.cell_symbols`)."""
        n_cells = self.n_scalar // 7
        c = np.arange(n_cells)[:, None]
        return np.concatenate([c, n_cells + 6 * c + np.arange(6)], axis=1)

    @property
    def vector_cell_dofs(self) -> np.ndarray:
        """(n^3, 21) vector dofs of each cell, component by component."""
        return np.hstack([self.cell_dofs + c * self.n_scalar
                          for c in range(3)])

    @property
    def vector_dofmap(self) -> np.ndarray:
        """(E, 15) dofs of the vector basis N_a e_c, local index 5 c + a."""
        return np.concatenate([self.dofmap + c * self.n_scalar
                               for c in range(3)], axis=1)

    @cached_property
    def pattern(self) -> _Pattern:
        """Scalar pattern: mass, stiffness, transport, weighted forms."""
        return _Pattern.of(self.dofmap, self.dofmap)

    @cached_property
    def block_pattern(self) -> _Pattern:
        """Componentwise operators diag(S, S, S) on vector coefficients."""
        return self.pattern.block_diagonal()

    @cached_property
    def vector_pattern(self) -> _Pattern:
        """Operators coupling the components (the rotational form)."""
        return self.pattern.block_grid()


@dataclass
class PressureSpace:
    dim: int
    dofmap: np.ndarray  # (E, 4)

    @property
    def cell_dofs(self) -> np.ndarray:
        """(n^3, 1): the one dof of each cell, its vertex."""
        return np.arange(self.dim)[:, None]

    @cached_property
    def pattern(self) -> _Pattern:
        return _Pattern.of(self.dofmap, self.dofmap)


class Operators:
    """Structural operators of a pair, assembled from the pair's tables and
    spaces, and the solvers of its two mass matrices by lattice Fourier
    blocks (7 x 7 and 1 x 1 per wave vector).  Each solver is made on
    first use: a report never solves with M_s, and made eagerly, its
    complex blocks raised a report-rerender's peak RSS by 0.8 MB."""

    def __init__(self, spaces):
        t, velocity, pressure = spaces.tables, spaces.velocity, spaces.pressure
        scalar, Np = velocity.pattern, t.N[:, :, :N_LOCAL_P]
        # scalar mass and stiffness (velocity component blocks), pressure mass
        self.M_s = scalar.assemble(_local_matrices(spaces, t.N, t.N))
        self.A_s = scalar.assemble(_local_matrices(spaces, t.grad, t.grad))
        self.Mp = pressure.pattern.assemble(_local_matrices(spaces, Np, Np))
        # (q, div v), pressure tests x velocity dofs:
        # B[j, c*n_s + a] = (psi_j, d_c N_a)
        d_c_N_a = t.grad.transpose(0, 1, 3, 2).reshape(6, -1, 3 * N_LOCAL, 1)
        self.B = _Pattern.of(pressure.dofmap, velocity.vector_dofmap
                             ).assemble(_local_matrices(spaces, Np, d_c_N_a))
        # integral of each scalar velocity and each pressure basis fn,
        # from a per-type table of ones
        ones = np.ones((6, t.w_phys.size, 1, 1))
        self.int_s = _scatter(velocity.dofmap, _local_matrices(
            spaces, ones, t.N)[:, 0], velocity.n_scalar)
        self.int_p = _scatter(pressure.dofmap, _local_matrices(
            spaces, ones, Np)[:, 0], pressure.dim)
        self._cells = velocity.cell_dofs, pressure.cell_dofs

    @cached_property
    def Ms_solver(self) -> LatticeSolver:
        return LatticeSolver.of_matrix(self.M_s, self._cells[0])

    @cached_property
    def Mp_solver(self) -> LatticeSolver:
        return LatticeSolver.of_matrix(self.Mp, self._cells[1])


class FESpacePair:
    """Velocity/pressure pair with shared tables and its operators (`ops`)."""

    def __init__(self, mesh: PeriodicMesh, degree: int = DEFAULT_DEGREE):
        self.mesh = mesh
        self.tables = ElementTables(mesh, tet_rule(degree))
        nv, nt = mesh.n_vertices, mesh.n_tets
        n_s = nv + nt
        dof_v = np.concatenate(
            [mesh.tetrahedra, (nv + np.arange(nt))[:, None]], axis=1)
        self.velocity = VelocitySpace(n_s, dof_v)
        self.pressure = PressureSpace(nv, mesh.tetrahedra)
        self.ops = Operators(self)

    # convenience ------------------------------------------------------
    @property
    def n_scalar(self) -> int:
        return self.velocity.n_scalar

    @property
    def h(self) -> float:
        return self.mesh.h


def build_spaces(mesh: PeriodicMesh, degree: int = DEFAULT_DEGREE) -> FESpacePair:
    return FESpacePair(mesh, degree)


# ---------------------------------------------------------------------------
# field evaluation at quadrature points
# ---------------------------------------------------------------------------

def velocity_values(spaces, coeffs):
    """(E, Q, 3) values of a velocity coefficient vector."""
    return _evaluate(np.reshape(coeffs, (3, spaces.n_scalar)),
                     spaces.velocity.dofmap, spaces.tables.N)[..., 0]


def velocity_gradients(spaces, coeffs):
    """(E, Q, 3, 3) with [..., i, j] = d_j u_i."""
    return _evaluate(np.reshape(coeffs, (3, spaces.n_scalar)),
                     spaces.velocity.dofmap, spaces.tables.grad)


def _velocity_nodal(spaces, coeffs):
    c = np.asarray(coeffs).reshape(3, spaces.n_scalar)
    return c[:, spaces.velocity.dofmap].transpose(1, 0, 2)  # (E, 3, 5)


def pressure_values(spaces, coeffs):
    return _evaluate(np.reshape(coeffs, (1, -1)), spaces.pressure.dofmap,
                     spaces.tables.N)[:, :, 0, 0]


def pressure_gradients(spaces, coeffs):
    return _evaluate(np.reshape(coeffs, (1, -1)), spaces.pressure.dofmap,
                     spaces.tables.grad)[:, :, 0]


def quad_integral(spaces, values):
    """Integral over the torus of pointwise values (E, Q)."""
    return float(np.einsum("q,eq->", spaces.tables.w_phys, values))


# ---------------------------------------------------------------------------
# norms: of one coefficient vector, or per row of a stack of them
# ---------------------------------------------------------------------------

def _row_blocks(n_rows, size=ROWS):
    """Consecutive slices of `size` rows (the last may be shorter) that
    cover range(n_rows)."""
    return [slice(i, min(i + size, n_rows)) for i in range(0, n_rows, size)]


def _scalar_quadform(matrices, coeffs, n_s):
    """Sum of c_k . (A c_k) over the length-n_s blocks c_k of a vector, or
    per row of a stack, for each matrix A of `matrices` (on one pattern):
    (len(matrices),) + the stack's shape less its last axis.  One product
    per QUADFORM_ROWS blocks, which reads the blocks in place and gathers
    them once for all the matrices (`_products`), so a trajectory is
    never copied whole; a row of a product, and a contiguous row's dot
    product, do not depend on the others, so each row stays bit-identical
    to the single-vector call.  The form of a state near the float
    maximum overflows to inf without a warning: the report records it."""
    c = np.asarray(coeffs)
    blocks = c.reshape(-1, n_s)
    out = np.empty((len(matrices), len(blocks)))
    for rows in _row_blocks(len(blocks), QUADFORM_ROWS):
        b = blocks[rows]
        with np.errstate(over="ignore", invalid="ignore"):
            out[:, rows] = np.vecdot(b, _products(matrices, b))
    return out.reshape((len(matrices),) + c.shape[:-1] + (-1,)).sum(-1)


def velocity_l2(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        [spaces.ops.M_s], coeffs, spaces.n_scalar)[0]))


def velocity_h1_semi(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        [spaces.ops.A_s], coeffs, spaces.n_scalar)[0]))


def velocity_h1(spaces, coeffs):
    return np.hypot(velocity_l2(spaces, coeffs),
                    velocity_h1_semi(spaces, coeffs))


def pressure_l2(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        [spaces.ops.Mp], coeffs, spaces.pressure.dim)[0]))


# ---------------------------------------------------------------------------
# L2 projections
# ---------------------------------------------------------------------------

def _values_of_type(spaces, f, k):
    """Values of trigonometric data at the quadrature points of the
    Kuhn-type-k elements, (E/6, Q) for a TrigPoly, (E/6, Q, 3) for a
    TrigVector: element 6 c + k, of corner vertex c, is row c, so they are
    one factored product (`TrigPoly.value_on`) at the mesh vertices."""
    return f.value_on(spaces.mesh.vertices, spaces.tables.offsets[k])


def field_values(spaces, f):
    """Values of trigonometric data at the quadrature points: (E, Q) for a
    TrigPoly, (E, Q, 3) for a TrigVector, one type's block
    (`_values_of_type`) at a time written into its slice of one
    preallocated (E/6, 6, Q[, 3]) array."""
    t = spaces.tables
    out = np.empty((spaces.mesh.n_vertices,) + t.offsets.shape[:2]
                   + ((3,) if isinstance(f, TrigVector) else ()))
    for k in range(6):
        out[:, k] = _values_of_type(spaces, f, k)
    return out.reshape((-1,) + out.shape[2:])


def _zero_mean_solve(mass_solver, rhs, integral, n_vertices):
    """L2 projection onto the zero-mean space: x = M^-1 b minus the multiple
    of the constant function (coefficients 1 on the n_vertices vertex dofs,
    0 on bubbles) that zeroes int . x.  Exact, since M 1 = integral."""
    x = mass_solver.solve(rhs)
    x[:n_vertices] -= (integral @ x) / integral[:n_vertices].sum()
    return x


def _scatter(dofmap, local, n):
    """out[dofmap[e, a]] += local[e, a]: (n,) from local (E, A), or (C, n)
    row by row from local (E, C, A); one np.bincount per row."""
    if local.ndim == 3:
        return np.stack([_scatter(dofmap, local[:, c], n)
                         for c in range(local.shape[1])])
    return np.bincount(dofmap.ravel(), local.ravel(), minlength=n)


def _scalar_load(spaces, pointwise, n_funcs=N_LOCAL):
    """Load vectors (f_c, N_a) from pointwise samples (E, Q) or (E, Q, C),
    shape (n,) or (n, C), or from trigonometric data, a TrigPoly (C = 1)
    or a TrigVector (C = 3), sampled one Kuhn type at a time
    (`_values_of_type`), bitwise the load of their `field_values`."""
    if isinstance(pointwise, (TrigPoly, TrigVector)):
        shape = (3,) if isinstance(pointwise, TrigVector) else ()

        def samples(t):
            values = _values_of_type(spaces, pointwise, t)
            return values.reshape(values.shape[:2] + (-1, 1))
    else:
        f = np.asarray(pointwise)
        samples, shape = f.reshape(f.shape[:2] + (-1, 1)), f.shape[2:]
    loc = _local_matrices(spaces, samples,
                          spaces.tables.N[:, :, :n_funcs])   # (E, C, A)
    dof, n = ((spaces.velocity.dofmap, spaces.n_scalar) if n_funcs == N_LOCAL
              else (spaces.pressure.dofmap, spaces.pressure.dim))
    return _scatter(dof, loc, n).T.reshape((n,) + shape)


def project_velocity(spaces, f):
    """Best L2 approximation in the zero-mean space of a TrigVector,
    sampled one Kuhn type at a time, or of samples (E, Q, 3) at the
    quadrature points (`_scalar_load`); a nonzero mean of the input is
    simply removed."""
    ops = spaces.ops
    return _zero_mean_solve(ops.Ms_solver, _scalar_load(spaces, f),
                            ops.int_s, spaces.mesh.n_vertices).T.ravel()


def project_pressure(spaces, g):
    """Best L2 approximation in the zero-mean space of a TrigPoly, or of
    samples (E, Q) at the quadrature points, as in `project_velocity`."""
    ops = spaces.ops
    return _zero_mean_solve(ops.Mp_solver, _scalar_load(
        spaces, g, n_funcs=N_LOCAL_P), ops.int_p, spaces.pressure.dim)


# ---------------------------------------------------------------------------
# measured structural constants
# ---------------------------------------------------------------------------

def _adjoint(blocks):
    return blocks.conj().swapaxes(-1, -2)


def _largest_eigenvalue(pencil, rows) -> float:
    """Largest eigenvalue of a pencil (Q, H) of real symmetric operators,
    H positive definite: `pencil` maps the blocks of a row of
    `cell_symbols` to Q^ and H^ = C C^* (Cholesky), and `eigvalsh` takes
    C^-1 Q^ C^-*.  The rfft half of the waves holds every eigenvalue: the
    blocks of a real operator at -k are the conjugates of those at k."""
    def top(Q, H):
        C = np.linalg.inv(np.linalg.cholesky(H))
        return np.linalg.eigvalsh(C @ Q @ _adjoint(C)).max()
    return float(max(top(*pencil(*blocks)) for _, blocks in rows))


def inf_sup_constant(spaces) -> float:
    """Smallest ratio |pi_h(grad q)|_2 / |q|_2 over the zero-mean
    pressure space: sqrt(lambda_min) of the pencil (K, Mp) there, with
    K = B M^-1 B^T = sum_c B_c M_s^-1 B_c^T over the velocity components.
    With one pressure dof per cell, K and Mp are 1 x 1 per lattice wave
    vector k, and the zero-mean pressures are the waves k != 0 (k = 0 is
    the constant, which B annihilates): lambda_min is the least K^ / Mp^
    there, on the rfft half (`_largest_eigenvalue`)."""
    ops, p = spaces.ops, spaces.pressure.cell_dofs
    u, u_s = spaces.velocity.vector_cell_dofs, spaces.velocity.cell_dofs
    lam = np.inf
    for waves, (B, M, Mp) in cell_symbols((ops.B, ops.M_s, ops.Mp),
                                          [(p, u), (u_s, u_s), (p, p)]):
        Bc = B.reshape(len(B), 3, -1)              # (K, component, 7)
        K = np.einsum("kca,kac->k", Bc,
                      np.linalg.solve(M, _adjoint(Bc))).real
        lam = min(lam, (K / Mp[:, 0, 0].real)[waves.any(axis=1)].min())
    return float(np.sqrt(lam))


def inverse_constant(spaces) -> float:
    """h times the largest H1/L2 ratio over the velocity space, the same
    for every component: h sqrt of the largest eigenvalue of the scalar
    pencil (M_s + A_s, M_s), 7 x 7 per lattice wave vector.  It stays
    bounded under refinement on this quasi-uniform family."""
    u = spaces.velocity.cell_dofs
    lam = _largest_eigenvalue(lambda M, A: (M + A, M), cell_symbols(
        (spaces.ops.M_s, spaces.ops.A_s), [(u, u)] * 2))
    return float(np.sqrt(lam) * spaces.h)


# ---------------------------------------------------------------------------
# commutator defects
# ---------------------------------------------------------------------------

@dataclass
class CommutatorDefect:
    defect: float          # H^l norm of v*phi - projection
    order: int             # the l in H^l
    ratios: dict           # m -> defect / (h^{1+m-l} |v|_{H^m} |phi|_{W^{m+1,inf}})


def commutator_defect(spaces, v_coeffs, phi, l: int = 1) -> CommutatorDefect:
    """How far v_h * phi is from the velocity space, in H^l.

    The projection is the plain L2 projection onto the enriched space
    (means cancel in the difference, so the zero-mean constraint is
    immaterial here).  Ratios normalize the defect by the expected
    h^{1+m-l} decay for m in {l..1}.  A ratio is one sample of the
    commutator quotient: for l = m = 1 it is bounded above by
    `commutator_constant` and is not expected to be the same on every
    level (a smooth field's defect superconverges).
    """
    if l not in (0, 1):
        raise ValueError("l must be 0 or 1")
    vvals = velocity_values(spaces, v_coeffs)
    vgrads = velocity_gradients(spaces, v_coeffs)
    pvals = field_values(spaces, phi)
    pgrads = field_values(spaces, phi.gradient())

    fvals = vvals * pvals[..., None]
    fgrads = vgrads * pvals[..., None, None] \
        + vvals[..., :, None] * pgrads[..., None, :]

    proj = spaces.ops.Ms_solver.solve(_scalar_load(spaces, fvals)).T.ravel()
    dvals = fvals - velocity_values(spaces, proj)
    dgrads = fgrads - velocity_gradients(spaces, proj)

    l2_sq = quad_integral(spaces, (dvals ** 2).sum(-1))
    h1_sq = l2_sq + quad_integral(spaces, (dgrads ** 2).sum((-1, -2)))
    defect = float(np.sqrt(max(0.0, l2_sq if l == 0 else h1_sq)))

    norm_v = {0: velocity_l2(spaces, v_coeffs),
              1: velocity_h1(spaces, v_coeffs)}
    ratios = {}
    for m in range(l, 2):
        denom = (spaces.h ** (1 + m - l) * norm_v[m]
                 * phi.wkinf_norm(m + 1))
        ratios[m] = defect / denom if denom > 0 else 0.0
    return CommutatorDefect(defect=defect, order=l, ratios=ratios)


def pressure_commutator_defect(spaces, q_coeffs, phi):
    """L2 defect of q_h * phi against the pressure space, with its ratio.

    The ratio is one sample of the quotient whose supremum is
    `pressure_commutator_constant`.
    """
    qvals = pressure_values(spaces, q_coeffs)
    fvals = qvals * field_values(spaces, phi)
    proj = spaces.ops.Mp_solver.solve(_scalar_load(spaces, fvals,
                                                   n_funcs=N_LOCAL_P))
    dvals = fvals - pressure_values(spaces, proj)
    defect = float(np.sqrt(max(0.0, quad_integral(spaces, dvals ** 2))))
    denom = spaces.h * pressure_l2(spaces, q_coeffs) * phi.wkinf_norm(1)
    ratio = defect / denom if denom > 0 else 0.0
    return CommutatorDefect(defect=defect, order=0, ratios={0: ratio})


def _shift_axes(phi):
    """The axes along which phi is constant: its forms are invariant
    under the cell shifts along them."""
    return tuple(a for a in range(3) if all(k[a] == 0 for k in phi.modes))


def commutator_constant(spaces, phi) -> float:
    """Worst-case H1 commutator ratio over the whole velocity space.

    Returns the square root of the largest eigenvalue of the defect
    quadratic form v -> |v phi - pi_h(v phi)|_{H1}^2 against
    h^2 |v|_{H1}^2, normalized by |phi|_{W2,inf}.  The supremum is
    attained by rough fields, for which the h-scaling of the defect is
    an element-local mechanism, so this measured constant is the
    level-robust version of the per-field ratios.  The form is
    W2 + G2d - (W + V) M^-1 W^T - W M^-1 V^T + W M^-1 A M^-1 W^T, by
    blocks over the shifts of `_shift_axes` (y and z for phi = 2 + cos x:
    n^2 blocks of size 7 n).  Its four weighted matrices take weights of
    at most five scalar trigonometric fields (phi, its square, products
    with its gradient)."""
    t, u = spaces.tables, spaces.velocity.cell_dofs
    dphi, pattern = phi.gradient().components, spaces.velocity.pattern
    mass = _product_table(t.N, t.N)
    stiffness = _product_table(t.grad, t.grad).sum(-1, keepdims=True)
    mixed = _product_table(t.N, t.grad)                # N_a d_k N_b

    def matrices():
        yield from (spaces.ops.M_s, spaces.ops.A_s)
        for w in (phi, phi * phi):
            yield _weighted_matrix(spaces, [w], mass, pattern)
        # grad(N_a phi) = phi grad N_a + N_a grad phi against grad N_b, itself
        yield _weighted_matrix(spaces, [phi, *dphi],
                               np.concatenate([stiffness, mixed], -1), pattern)
        yield _weighted_matrix(
            spaces, [phi * phi, *(phi * d for d in dphi),
                     sum(d * d for d in dphi)],
            np.concatenate([stiffness, mixed + _product_table(t.grad, t.N),
                            mass], -1), pattern)

    def pencil(M, A, W, W2, V, G2d):
        X = np.linalg.solve(M, _adjoint(W))                 # M^-1 W^*
        VX = V @ X
        Q = W2 + G2d - W @ X - VX - _adjoint(VX) + _adjoint(X) @ A @ X
        return Q, M + A

    lam = _largest_eigenvalue(pencil, cell_symbols(
        matrices(), [(u, u)] * 6, _shift_axes(phi)))
    return float(np.sqrt(max(lam, 0.0) / spaces.h ** 2) / phi.wkinf_norm(2))


def pressure_commutator_constant(spaces, phi) -> float:
    """Worst-case L2 ratio |q phi - K(q phi)|_2 / (h |q|_2 |phi|_W1inf):
    the largest eigenvalue of (W2 - W Mp^-1 W^T, Mp), by blocks as in
    `commutator_constant`."""
    Np, p = spaces.tables.N[:, :, :N_LOCAL_P], spaces.pressure.cell_dofs
    W, W2 = (_weighted_matrix(spaces, [w], _product_table(Np, Np),
                              spaces.pressure.pattern) for w in (phi, phi * phi))
    lam = _largest_eigenvalue(
        lambda Mp, W, W2: (W2 - W @ np.linalg.solve(Mp, _adjoint(W)), Mp),
        cell_symbols((spaces.ops.Mp, W, W2), [(p, p)] * 3, _shift_axes(phi)))
    return float(np.sqrt(max(lam, 0.0) / spaces.h ** 2) / phi.wkinf_norm(1))
