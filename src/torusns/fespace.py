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
element shapes up to translation) and contracted per Kuhn type: field
values and element matrices take one matmul per type's stride-6 slice.
Trigonometric data are evaluated the same way: every quadrature point is
an element corner plus one of its type's reference offsets, so
`field_values` makes one factored complex product per type
(`TrigPoly.value_on`) instead of a cos and a sin per mode and point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .linsolve import Factorization, SaddleSystem
from .mesh import KUHN_OFFSETS, PeriodicMesh
from .quadrature import DEFAULT_DEGREE, TetRule, tet_rule

N_LOCAL = 5          # 4 vertex functions + 1 bubble
N_LOCAL_P = 4


class FESpaceError(RuntimeError):
    pass


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
    quadrature points are corners[e] + offsets[e % 6], (E, 3) + (6, Q, 3);
    `field_values` evaluates data there without gathering them."""

    def __init__(self, mesh: PeriodicMesh, rule: TetRule):
        if not np.array_equal(mesh.tet_type, np.arange(mesh.n_tets) % 6):
            raise FESpaceError("elements must be stored as 6 * cube + "
                               "Kuhn type")
        a = mesh.cell_size
        self.w_phys = a ** 3 * rule.weights          # |det J| = a^3, all types
        vals, dN = _reference_basis(rule.points)
        self.N = np.broadcast_to(vals[:, :, None], (6,) + vals.shape + (1,))
        self.grad = np.empty((6, rule.n_points, N_LOCAL, 3))
        self.offsets = np.empty((6, rule.n_points, 3))
        for t in range(6):
            off = KUHN_OFFSETS[t]
            jhat = (off[1:] - off[0]).T
            det = np.linalg.det(jhat)
            if not np.isclose(det, 1.0):
                raise FESpaceError("element type %d is not positively "
                                   "oriented (det %.3f)" % (t, det))
            self.grad[t] = dN @ np.linalg.inv(jhat) / a
            self.offsets[t] = a * (off[0] + rule.points @ jhat.T)
        self.corners = a * mesh.tet_corner


def _evaluate(nodal, table):
    """out[e, q, c, k] = sum_a nodal[e, c, a] table[e % 6, q, a, k] over
    the table's first A functions (pressure: the vertex part), one matmul
    per Kuhn type written straight into its stride-6 slice of `out`."""
    E, C, A = nodal.shape
    _, Q, _, K = table.shape
    out = np.empty((E, Q, C, K))
    for t in range(6):
        prod = nodal[t::6] @ table[t, :, :A].transpose(1, 0, 2).reshape(A, -1)
        out[t::6] = prod.reshape(-1, C, Q, K).transpose(0, 2, 1, 3)
    return out


def _local_matrices(spaces, left, right):
    """Element matrices loc[e, a, b] = sum_q w_q sum_k left[.., q, a, k]
    right[.., q, b, k], one matmul per Kuhn type.

    Each side is either sampled per point, (E, Q, A, K), or a per-type
    table (6, Q, A, K) used for every cube.
    """
    E = spaces.mesh.n_tets
    weights = np.repeat(spaces.tables.w_phys, left.shape[3])  # (q, k) axis

    def rows(side, t):                                  # (n, A, Q*K)
        s = side[t::6] if len(side) == E else side[t:t + 1]
        return s.transpose(0, 2, 1, 3).reshape(len(s), s.shape[2], -1)

    loc = np.empty((E, left.shape[2], right.shape[2]))
    for t in range(6):
        loc[t::6] = rows(left, t) @ (rows(right, t) * weights).transpose(
            0, 2, 1)
    return loc


def _product_table(left, right):
    """(6, Q, A*B, K) table of the products left[.., a, k] right[.., b, k]
    of two per-type tables, local index B*a + b (K may broadcast)."""
    prod = left[:, :, :, None] * right[:, :, None]
    return prod.reshape(prod.shape[:2] + (-1, prod.shape[-1]))


def _weighted_matrix(spaces, samples, table, dof) -> sp.csr_matrix:
    """Weighted mass or stiffness matrix on `dof` (E, A): element entries
    sum_q w_q sum_k samples[e, q, k] table[e % 6, q, A a + b, k] of scalar
    samples (E, Q, K) and a per-type product table (6, Q, A A, K)."""
    loc = _local_matrices(spaces, samples[:, :, None], table)
    return _scatter(loc.reshape(len(loc), dof.shape[1], -1), dof, dof)


@dataclass
class VelocitySpace:
    mesh: PeriodicMesh
    n_scalar: int
    dim: int
    dofmap: np.ndarray  # (E, 5)

    @property
    def vector_dofmap(self) -> np.ndarray:
        """(E, 15) dofs of the vector basis N_a e_c, local index 5 c + a."""
        return np.concatenate([self.dofmap + c * self.n_scalar
                               for c in range(3)], axis=1)


@dataclass
class PressureSpace:
    mesh: PeriodicMesh
    dim: int
    dofmap: np.ndarray  # (E, 4)


class Operators:
    """Structural operators of the pair and their mass factorizations."""

    def __init__(self, M_s, A_s, Mp, B, int_s, int_p):
        self.M_s = M_s       # scalar mass (velocity component block)
        self.M = sp.kron(sp.identity(3), M_s, format="csr")  # vector mass
        self.A_s = A_s       # scalar stiffness
        self.Mp = Mp         # pressure mass
        self.B = B           # (q, div v): pressure tests x velocity dofs
        self.int_s = int_s   # integral of each scalar velocity basis fn
        self.int_p = int_p   # integral of each pressure basis fn
        self.lu_Ms = Factorization(M_s)
        self.lu_Mp = Factorization(Mp)


def _scatter(loc, row_dof, col_dof) -> sp.csr_matrix:
    """Sum element matrices loc[e, a, b] into the global entries
    (row_dof[e, a], col_dof[e, b]); every dof occurs in its dofmap, so
    the largest ones fix the shape."""
    rows = np.repeat(row_dof, col_dof.shape[1], axis=1).ravel()
    cols = np.tile(col_dof, (1, row_dof.shape[1])).ravel()
    return sp.coo_matrix((np.ravel(loc), (rows, cols))).tocsr()


class FESpacePair:
    """Velocity/pressure pair with shared tables and its operators (`ops`)."""

    def __init__(self, mesh: PeriodicMesh, degree: int = DEFAULT_DEGREE):
        self.mesh = mesh
        self.tables = ElementTables(mesh, tet_rule(degree))
        nv, nt = mesh.n_vertices, mesh.n_tets
        n_s = nv + nt
        dof_v = np.concatenate(
            [mesh.tetrahedra, (nv + np.arange(nt))[:, None]], axis=1)
        self.velocity = VelocitySpace(mesh, n_s, 3 * n_s, dof_v)
        self.pressure = PressureSpace(mesh, nv, mesh.tetrahedra)
        self.ops = Operators(*self._assemble_structural())

    # convenience ------------------------------------------------------
    @property
    def n_scalar(self) -> int:
        return self.velocity.n_scalar

    @property
    def h(self) -> float:
        return self.mesh.h

    def _assemble_structural(self):
        t = self.tables
        dof = self.velocity.dofmap
        dof_p = self.pressure.dofmap

        M_s = _scatter(_local_matrices(self, t.N, t.N), dof, dof)
        A_s = _scatter(_local_matrices(self, t.grad, t.grad), dof, dof)
        Np = t.N[:, :, :N_LOCAL_P]
        Mp = _scatter(_local_matrices(self, Np, Np), dof_p, dof_p)
        # B[j, c*n_s + a] = (psi_j, d_c N_a)
        d_c_N_a = t.grad.transpose(0, 1, 3, 2).reshape(6, -1, 3 * N_LOCAL, 1)
        B = _scatter(_local_matrices(self, Np, d_c_N_a), dof_p,
                     self.velocity.vector_dofmap)

        ones = np.ones((self.mesh.n_tets, t.w_phys.size))
        int_s = _scalar_load(self, ones)
        int_p = _scalar_load(self, ones, n_funcs=N_LOCAL_P)
        return M_s, A_s, Mp, B, int_s, int_p


def build_spaces(mesh: PeriodicMesh, degree: int = DEFAULT_DEGREE) -> FESpacePair:
    return FESpacePair(mesh, degree)


# ---------------------------------------------------------------------------
# field evaluation at quadrature points
# ---------------------------------------------------------------------------

def velocity_values(spaces, coeffs):
    """(E, Q, 3) values of a velocity coefficient vector."""
    return _evaluate(_velocity_nodal(spaces, coeffs), spaces.tables.N)[..., 0]


def velocity_gradients(spaces, coeffs):
    """(E, Q, 3, 3) with [..., i, j] = d_j u_i."""
    return _evaluate(_velocity_nodal(spaces, coeffs), spaces.tables.grad)


def _velocity_nodal(spaces, coeffs):
    c = np.asarray(coeffs).reshape(3, spaces.n_scalar)
    return c[:, spaces.velocity.dofmap].transpose(1, 0, 2)  # (E, 3, 5)


def pressure_values(spaces, coeffs):
    nodal = np.asarray(coeffs)[spaces.pressure.dofmap][:, None]
    return _evaluate(nodal, spaces.tables.N)[:, :, 0, 0]


def pressure_gradients(spaces, coeffs):
    nodal = np.asarray(coeffs)[spaces.pressure.dofmap][:, None]
    return _evaluate(nodal, spaces.tables.grad)[:, :, 0]


def quad_integral(spaces, values):
    """Integral over the torus of pointwise values (E, Q)."""
    return float(np.einsum("q,eq->", spaces.tables.w_phys, values))


# ---------------------------------------------------------------------------
# norms: of one coefficient vector, or per row of a stack of them
# ---------------------------------------------------------------------------

def _scalar_quadform(matrix, coeffs, n_s):
    """Sum of c_k . (matrix c_k) over the length-n_s blocks c_k of a vector,
    or per row of a stack (one sparse product; contiguous rows keep each
    row's dot product bit-identical to the single-vector call)."""
    c = np.asarray(coeffs)
    blocks = c.reshape(-1, n_s)
    images = np.ascontiguousarray((matrix @ blocks.T).T)
    return np.vecdot(blocks, images).reshape(c.shape[:-1] + (-1,)).sum(-1)


def velocity_l2(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        spaces.ops.M_s, coeffs, spaces.n_scalar)))


def velocity_h1_semi(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        spaces.ops.A_s, coeffs, spaces.n_scalar)))


def velocity_h1(spaces, coeffs):
    return np.hypot(velocity_l2(spaces, coeffs),
                    velocity_h1_semi(spaces, coeffs))


def pressure_l2(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        spaces.ops.Mp, coeffs, spaces.pressure.dim)))


# ---------------------------------------------------------------------------
# L2 projections
# ---------------------------------------------------------------------------

def field_values(spaces, f):
    """Values of trigonometric data at the quadrature points: (E, Q) for a
    TrigPoly, (E, Q, 3) for a TrigVector, one factored product per Kuhn
    type written into its stride-6 slice."""
    t = spaces.tables
    per_type = [f.value_on(t.corners[k::6], t.offsets[k]) for k in range(6)]
    # element 6 c + k is row c of type k's block
    return np.stack(per_type, axis=1).reshape((-1,) + per_type[0].shape[1:])


def _zero_mean_solve(lu, rhs, integral, n_vertices):
    """L2 projection onto the zero-mean space: x = M^-1 b minus the multiple
    of the constant function (coefficients 1 on the n_vertices vertex dofs,
    0 on bubbles) that zeroes int . x.  Exact, since M 1 = integral."""
    x = lu.solve(rhs)
    x[:n_vertices] -= (integral @ x) / integral[:n_vertices].sum()
    return x


def _scalar_load(spaces, pointwise, n_funcs=N_LOCAL):
    """Load vectors (f_c, N_a) from pointwise samples (E, Q) or (E, Q, C):
    shape (n,) or (n, C)."""
    f = np.asarray(pointwise)
    samples = f.reshape(f.shape[:2] + (-1, 1))               # (E, Q, C, 1)
    loc = _local_matrices(spaces, samples,
                          spaces.tables.N[:, :, :n_funcs])   # (E, C, A)
    dof, n = ((spaces.velocity.dofmap, spaces.n_scalar) if n_funcs == N_LOCAL
              else (spaces.pressure.dofmap, spaces.pressure.dim))
    out = np.zeros((n,) + f.shape[2:])
    np.add.at(out, dof,
              loc.transpose(0, 2, 1).reshape(dof.shape + f.shape[2:]))
    return out


def project_velocity(spaces, f):
    """Best L2 approximation of a TrigVector in the zero-mean space; a
    nonzero mean of the input is simply removed."""
    return project_velocity_values(spaces, field_values(spaces, f))


def project_velocity_values(spaces, pointwise):
    """Zero-mean velocity projection of samples (E, Q, 3) at quad points."""
    ops = spaces.ops
    return _zero_mean_solve(ops.lu_Ms, _scalar_load(spaces, pointwise),
                            ops.int_s, spaces.mesh.n_vertices).T.ravel()


def project_pressure(spaces, g):
    """Best L2 approximation of a scalar field in the zero-mean space."""
    return project_pressure_values(spaces, field_values(spaces, g))


def project_pressure_values(spaces, pointwise):
    """Zero-mean pressure projection of samples already at quad points."""
    ops = spaces.ops
    return _zero_mean_solve(ops.lu_Mp, _scalar_load(
        spaces, pointwise, n_funcs=N_LOCAL_P), ops.int_p, spaces.pressure.dim)


# ---------------------------------------------------------------------------
# measured structural constants
# ---------------------------------------------------------------------------

def inf_sup_constant(spaces) -> float:
    """Smallest ratio |pi_h(grad q)|_2 / |q|_2 over the zero-mean
    pressure space: sqrt(lambda_min) of the pencil (K, Mp) there, with
    K = B M^-1 B^T.

    K annihilates the constant, so Lanczos runs in shift-invert form: it
    returns 1/sqrt(mu_max) of (Mp K^+ Mp, Mp), mu = 1/lambda.  K^+ g is the
    pressure block of the saddle system with velocity block M and g on the
    divergence rows: the velocity-mean multipliers stay zero (B kills the
    constant velocity), and the pressure-mean multiplier takes g's
    constant part, which leaves the constant pressure with mu = 0.
    """
    system = SaddleSystem(spaces, spaces.ops.M)
    Mp = spaces.ops.Mp

    def apply_q(x):
        rhs = np.zeros(system.matrix.shape[0])
        rhs[system.slices["p"]] = Mp @ np.ravel(x)
        return Mp @ system.solve(rhs)["p"]

    mu_max = _largest_eigenvalue(apply_q, spaces.ops.lu_Mp)
    return float(1.0 / np.sqrt(mu_max))


def inverse_constant(spaces) -> float:
    """h times the largest H1/L2 ratio over the velocity space.

    The ratio is the same for every vector component, so the eigenvalue
    problem is solved on the scalar space: the largest eigenvalue of the
    pencil (M_s + A_s, M_s), by sparse Lanczos.  The returned product
    stays bounded under refinement on this quasi-uniform family.
    """
    MA = (spaces.ops.M_s + spaces.ops.A_s).tocsr()
    lam_max = _largest_eigenvalue(lambda x: MA @ np.ravel(x),
                                  spaces.ops.lu_Ms)
    return float(np.sqrt(lam_max) * spaces.h)


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

    proj = spaces.ops.lu_Ms.solve(_scalar_load(spaces, fvals)).T.ravel()
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
    proj = spaces.ops.lu_Mp.solve(_scalar_load(spaces, fvals,
                                               n_funcs=N_LOCAL_P))
    dvals = fvals - pressure_values(spaces, proj)
    defect = float(np.sqrt(max(0.0, quad_integral(spaces, dvals ** 2))))
    denom = spaces.h * pressure_l2(spaces, q_coeffs) * phi.wkinf_norm(1)
    ratio = defect / denom if denom > 0 else 0.0
    return CommutatorDefect(defect=defect, order=0, ratios={0: ratio})


def _largest_eigenvalue(apply_q, lu_H) -> float:
    """Largest eigenvalue of the pencil (Q, H) for symmetric Q given by
    its action and the sparse symmetric positive definite H of the
    existing factorization `lu_H`.

    Lanczos (ARPACK) in generalized mode, H^-1 applied through `lu_H`'s
    guarded solve, with a fixed start vector, so reruns give the same
    value.  Every measured constant of this module goes through here.
    """
    H = lu_H.matrix
    n = H.shape[0]
    Q = spla.LinearOperator((n, n), matvec=apply_q, dtype=float)
    H_inv = spla.LinearOperator((n, n), matvec=lu_H.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    lam = spla.eigsh(Q, k=1, M=H, Minv=H_inv, which="LA", v0=v0,
                     ncv=min(n - 1, 40), return_eigenvectors=False)
    return float(lam[0])


def commutator_constant(spaces, phi) -> float:
    """Worst-case H1 commutator ratio over the whole velocity space.

    Returns the square root of the largest eigenvalue of the defect
    quadratic form v -> |v phi - pi_h(v phi)|_{H1}^2 against
    h^2 |v|_{H1}^2, normalized by |phi|_{W2,inf}.  The supremum is
    attained by rough fields, for which the h-scaling of the defect is
    an element-local mechanism, so this measured constant is the
    level-robust version of the per-field ratios.  The form is applied
    through sparse operators and two mass solves, never formed densely.
    """
    t = spaces.tables
    pv = field_values(spaces, phi)
    pg = field_values(spaces, phi.gradient())
    M = spaces.ops.M_s
    A = spaces.ops.A_s
    lu_M = spaces.ops.lu_Ms
    E, Q = pv.shape
    # grad(N_a phi), with the per-type gradient table broadcast over cubes
    grad_N_phi = ((t.grad * pv.reshape(-1, 6, Q, 1, 1)).reshape(E, Q, -1, 3)
                  + t.N[0] * pg[:, :, None, :])
    dof = spaces.velocity.dofmap
    mass = _product_table(t.N, t.N)
    W, W2 = (_weighted_matrix(spaces, w[..., None], mass, dof)
             for w in (pv, pv ** 2))
    V, G2d = (_scatter(_local_matrices(spaces, grad_N_phi, right), dof, dof)
              for right in (t.grad, grad_N_phi))
    WT, VT = W.T.tocsr(), V.T.tocsr()
    WV = (W + V).tocsr()

    def apply_q(x):
        # (W2 + G2d - W M^-1 W^T - V M^-1 W^T - W M^-1 V^T
        #  + W M^-1 A M^-1 W^T) x
        x = np.ravel(x)
        y = lu_M.solve(WT @ x)
        z = lu_M.solve(VT @ x - A @ y)
        return W2 @ x + G2d @ x - WV @ y - W @ z

    lam = _largest_eigenvalue(apply_q, Factorization(M + A)) / spaces.h ** 2
    return float(np.sqrt(max(lam, 0.0)) / phi.wkinf_norm(2))


def pressure_commutator_constant(spaces, phi) -> float:
    """Worst-case L2 ratio |q phi - K(q phi)|_2 / (h |q|_2 |phi|_W1inf)."""
    t = spaces.tables
    pv = field_values(spaces, phi)[..., None]
    Np = t.N[:, :, :N_LOCAL_P]
    mass = _product_table(Np, Np)
    W, W2 = (_weighted_matrix(spaces, w, mass, spaces.pressure.dofmap)
             for w in (pv, pv ** 2))
    WT = W.T.tocsr()

    def apply_q(x):
        # (W2 - W Mp^-1 W^T) x
        x = np.ravel(x)
        return W2 @ x - W @ spaces.ops.lu_Mp.solve(WT @ x)

    lam = _largest_eigenvalue(apply_q, spaces.ops.lu_Mp) / spaces.h ** 2
    return float(np.sqrt(max(lam, 0.0)) / phi.wkinf_norm(1))
