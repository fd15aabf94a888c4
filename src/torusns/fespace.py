"""Mixed velocity/pressure finite element spaces on the periodic mesh.

Velocity: continuous piecewise-linear vector fields enriched with one
interior bubble (the product of the four barycentric coordinates, scaled
to peak value one) per element and component.  Pressure: continuous
piecewise linears.  Both spaces represent zero-mean fields; the mean
constraint is imposed through scalar Lagrange multipliers so projections
stay symmetric.

A single quadrature rule (degree 11 by default) is used for every
integral in the package.  At that degree all products of discrete
fields that appear anywhere downstream are integrated exactly, so the
algebraic identities the solver is tested against hold at roundoff and
cannot drift apart between modules using different rules.

Element tables are computed once per Kuhn type (there are only six
element shapes up to translation) and gathered per element, which keeps
assembly fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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
    """Per-Kuhn-type basis tables for one mesh and one quadrature rule."""

    def __init__(self, mesh: PeriodicMesh, rule: TetRule):
        self.rule = rule
        a = mesh.cell_size
        self.w_ref = rule.weights
        self.w_phys = a ** 3 * rule.weights          # |det J| = a^3, all types
        self.N, dN = _reference_basis(rule.points)
        self.grad = np.empty((6, rule.n_points, N_LOCAL, 3))
        self.unit_pts = np.empty((6, rule.n_points, 3))
        for t in range(6):
            off = KUHN_OFFSETS[t]
            jhat = (off[1:] - off[0]).T
            det = np.linalg.det(jhat)
            if not np.isclose(det, 1.0):
                raise FESpaceError("element type %d is not positively "
                                   "oriented (det %.3f)" % (t, det))
            self.grad[t] = np.einsum("qad,dc->qac", dN, np.linalg.inv(jhat)) / a
            self.unit_pts[t] = off[0] + rule.points @ jhat.T
        self.quad_points = a * (mesh.tet_corner[:, None, :]
                                + self.unit_pts[mesh.tet_type])
        self.grad_per_elem = self.grad[mesh.tet_type]   # (E, Q, 5, 3) copy


@dataclass
class VelocitySpace:
    mesh: PeriodicMesh
    n_scalar: int
    dim: int
    dofmap: np.ndarray  # (E, 5)


@dataclass
class PressureSpace:
    mesh: PeriodicMesh
    dim: int
    dofmap: np.ndarray  # (E, 4)


class Operators:
    """Structural operators of the pair and their mass factorizations."""

    def __init__(self, M_s, A_s, Mp, B, int_s, int_p):
        self.M_s = M_s       # scalar mass (velocity component block)
        self.A_s = A_s       # scalar stiffness
        self.Mp = Mp         # pressure mass
        self.B = B           # (q, div v): pressure tests x velocity dofs
        self.int_s = int_s   # integral of each scalar velocity basis fn
        self.int_p = int_p   # integral of each pressure basis fn
        self.lu_Ms = spla.splu(M_s.tocsc())
        self.lu_Mp = spla.splu(Mp.tocsc())
        self.lu_Ms_mean = spla.splu(_augment_with_mean(M_s, int_s))
        self.lu_Mp_mean = spla.splu(_augment_with_mean(Mp, int_p))


def _augment_with_mean(M, integral):
    col = sp.csc_matrix(integral[:, None])
    return sp.bmat([[M, col], [col.T, None]], format="csc")


def _scatter(loc, row_dof, col_dof, shape) -> sp.csr_matrix:
    """Sum element matrices loc[e, a, b] into the global entries
    (row_dof[e, a], col_dof[e, b])."""
    rows = np.repeat(row_dof, col_dof.shape[1], axis=1).ravel()
    cols = np.tile(col_dof, (1, row_dof.shape[1])).ravel()
    return sp.coo_matrix((np.ravel(loc), (rows, cols)), shape=shape).tocsr()


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
        E = self.mesh.n_tets
        n_s, n_p = self.velocity.n_scalar, self.pressure.dim
        dof = self.velocity.dofmap
        dof_p = self.pressure.dofmap

        M_loc = np.einsum("q,qa,qb->ab", t.w_phys, t.N, t.N)
        A_loc = np.einsum("q,tqac,tqbc->tab", t.w_phys, t.grad, t.grad)
        M_s = _scatter(np.broadcast_to(M_loc, (E,) + M_loc.shape), dof, dof,
                       (n_s, n_s))
        A_s = _scatter(A_loc[self.mesh.tet_type], dof, dof, (n_s, n_s))

        Mp_loc = np.einsum("q,qa,qb->ab", t.w_phys, t.N[:, :4], t.N[:, :4])
        Mp = _scatter(np.broadcast_to(Mp_loc, (E,) + Mp_loc.shape),
                      dof_p, dof_p, (n_p, n_p))

        # B[j, c*n_s + a] = (psi_j, d_c N_a); one directional block at a time.
        blocks = []
        for c in range(3):
            loc = np.einsum("q,qj,eqac->eja", t.w_phys, t.N[:, :4],
                            t.grad_per_elem[:, :, :, c:c + 1])
            blocks.append(_scatter(loc, dof_p, dof, (n_p, n_s)))
        B = sp.hstack(blocks, format="csr")

        int_loc = t.w_phys @ t.N
        int_s = np.zeros(n_s)
        np.add.at(int_s, dof, np.broadcast_to(int_loc, dof.shape))
        int_p = np.zeros(n_p)
        np.add.at(int_p, dof_p,
                  np.broadcast_to(int_loc[:4], dof_p.shape))
        return M_s, A_s, Mp, B, int_s, int_p


def build_spaces(mesh: PeriodicMesh, degree: int = DEFAULT_DEGREE) -> FESpacePair:
    return FESpacePair(mesh, degree)


# ---------------------------------------------------------------------------
# field evaluation at quadrature points
# ---------------------------------------------------------------------------

def velocity_values(spaces, coeffs):
    """(E, Q, 3) values of a velocity coefficient vector."""
    c = np.asarray(coeffs).reshape(3, spaces.n_scalar)
    nodal = c[:, spaces.velocity.dofmap]                    # (3, E, 5)
    return np.einsum("iea,qa->eqi", nodal, spaces.tables.N)


def velocity_gradients(spaces, coeffs):
    """(E, Q, 3, 3) with [..., i, j] = d_j u_i."""
    c = np.asarray(coeffs).reshape(3, spaces.n_scalar)
    nodal = c[:, spaces.velocity.dofmap]
    return np.einsum("iea,eqac->eqic", nodal, spaces.tables.grad_per_elem)


def pressure_values(spaces, coeffs):
    nodal = np.asarray(coeffs)[spaces.pressure.dofmap]      # (E, 4)
    return np.einsum("ea,qa->eq", nodal, spaces.tables.N[:, :4])


def pressure_gradients(spaces, coeffs):
    nodal = np.asarray(coeffs)[spaces.pressure.dofmap]
    return np.einsum("ea,eqac->eqc", nodal,
                     spaces.tables.grad_per_elem[:, :, :4, :])


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


def velocity_l3(spaces, coeffs) -> float:
    vals = velocity_values(spaces, coeffs)
    mag = np.sqrt((vals ** 2).sum(-1))
    return quad_integral(spaces, mag ** 3) ** (1.0 / 3.0)


def pressure_l2(spaces, coeffs):
    return np.sqrt(np.maximum(0.0, _scalar_quadform(
        spaces.ops.Mp, coeffs, spaces.pressure.dim)))


def velocity_mean(spaces, coeffs):
    c = np.asarray(coeffs).reshape(3, spaces.n_scalar)
    return c @ spaces.ops.int_s


def pressure_mean(spaces, coeffs) -> float:
    return float(spaces.ops.int_p @ np.asarray(coeffs))


# ---------------------------------------------------------------------------
# L2 projections
# ---------------------------------------------------------------------------

def _field_values(spaces, f):
    pts = spaces.tables.quad_points
    vals = f.value(pts) if hasattr(f, "value") else f(pts)
    return np.asarray(vals, dtype=float)


def _scalar_load(spaces, pointwise, n_funcs=N_LOCAL):
    """Load vector (f, N_a) from pointwise samples (E, Q)."""
    t = spaces.tables
    loc = np.einsum("q,eq,qa->ea", t.w_phys, pointwise, t.N[:, :n_funcs])
    dof = (spaces.velocity.dofmap if n_funcs == N_LOCAL
           else spaces.pressure.dofmap)
    out = np.zeros(spaces.n_scalar if n_funcs == N_LOCAL
                   else spaces.pressure.dim)
    np.add.at(out, dof, loc)
    return out


def project_velocity(spaces, f):
    """Best L2 approximation of a vector field in the zero-mean space.

    `f` is evaluated at the quadrature points (object with .value or a
    plain callable).  A nonzero mean of the input is simply removed.
    """
    vals = _field_values(spaces, f)
    if vals.shape != spaces.tables.quad_points.shape:
        raise FESpaceError("field returned wrong shape %s" % (vals.shape,))
    out = np.empty(3 * spaces.n_scalar)
    for c in range(3):
        rhs = np.append(_scalar_load(spaces, vals[:, :, c]), 0.0)
        sol = spaces.ops.lu_Ms_mean.solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise FESpaceError("velocity mass solve failed")
        out[c * spaces.n_scalar:(c + 1) * spaces.n_scalar] = sol[:-1]
    return out


def project_pressure(spaces, g):
    """Best L2 approximation of a scalar field in the zero-mean space."""
    vals = _field_values(spaces, g)
    rhs = np.append(_scalar_load(spaces, vals, n_funcs=N_LOCAL_P), 0.0)
    sol = spaces.ops.lu_Mp_mean.solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise FESpaceError("pressure mass solve failed")
    return sol[:-1]


def project_pressure_values(spaces, pointwise):
    """Zero-mean pressure projection of samples already at quad points."""
    rhs = np.append(_scalar_load(spaces, pointwise, n_funcs=N_LOCAL_P), 0.0)
    return spaces.ops.lu_Mp_mean.solve(rhs)[:-1]


# ---------------------------------------------------------------------------
# measured structural constants
# ---------------------------------------------------------------------------

def inf_sup_constant(spaces, constrain_mean: bool = True) -> float:
    """Smallest ratio |pi_h(grad q)|_2 / |q|_2 over the pressure space.

    Computed as the square root of the smallest eigenvalue of the dense
    pencil (B_c M^-1 B_c^T summed over directions c, Mp) reduced to the
    zero-mean subspace, with B_c the c-th velocity block of B (by parts,
    (N_a, d_c psi_j) = -B_c[j, a]).  With the constant direction kept
    in, the minimum is zero.
    """
    n_s, n_p = spaces.n_scalar, spaces.pressure.dim
    K = np.zeros((n_p, n_p))
    for c in range(3):
        dense = spaces.ops.B[:, c * n_s:(c + 1) * n_s].T.toarray()
        K += dense.T @ spaces.ops.lu_Ms.solve(dense)
    K = 0.5 * (K + K.T)
    Mp = spaces.ops.Mp.toarray()
    if constrain_mean:
        Z = sla.null_space(spaces.ops.int_p[None, :])
        vals = sla.eigvalsh(Z.T @ K @ Z, Z.T @ Mp @ Z)
    else:
        vals = sla.eigvalsh(K, Mp)
    lam = float(vals[0])
    return float(np.sqrt(max(lam, 0.0)))


def inverse_constant(spaces) -> float:
    """h times the largest H1/L2 ratio over the velocity space.

    The ratio is the same for every vector component, so the eigenvalue
    problem is solved on the scalar space.  The returned product stays
    bounded under refinement on this quasi-uniform family.
    """
    M = spaces.ops.M_s.toarray()
    A = spaces.ops.A_s.toarray()
    lam_max = float(sla.eigvalsh(M + A, M)[-1])
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
    t = spaces.tables
    n_s = spaces.n_scalar
    vvals = velocity_values(spaces, v_coeffs)
    vgrads = velocity_gradients(spaces, v_coeffs)
    pts = t.quad_points
    pvals = phi.value(pts)
    pgrads = phi.grad(pts)

    fvals = vvals * pvals[..., None]
    fgrads = vgrads * pvals[..., None, None] \
        + vvals[..., :, None] * pgrads[..., None, :]

    proj = np.empty(3 * n_s)
    for c in range(3):
        rhs = _scalar_load(spaces, fvals[:, :, c])
        proj[c * n_s:(c + 1) * n_s] = spaces.ops.lu_Ms.solve(rhs)
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
    t = spaces.tables
    qvals = pressure_values(spaces, q_coeffs)
    fvals = qvals * phi.value(t.quad_points)
    proj = spaces.ops.lu_Mp.solve(_scalar_load(spaces, fvals,
                                               n_funcs=N_LOCAL_P))
    dvals = fvals - pressure_values(spaces, proj)
    defect = float(np.sqrt(max(0.0, quad_integral(spaces, dvals ** 2))))
    denom = spaces.h * pressure_l2(spaces, q_coeffs) * phi.wkinf_norm(1)
    ratio = defect / denom if denom > 0 else 0.0
    return CommutatorDefect(defect=defect, order=0, ratios={0: ratio})


def _weighted_scalar_matrix(spaces, weight, grad_left=False, grad_right=False,
                            weight_grad=None):
    """Assemble (D_l(N_a w), D_r N_b) with optional gradients; `weight`
    and `weight_grad` are pointwise samples of w and its gradient."""
    t = spaces.tables
    Nv = np.broadcast_to(t.N, (spaces.mesh.n_tets,) + t.N.shape)
    g = t.grad_per_elem
    if grad_left:
        left = g * weight[..., None, None]
        if weight_grad is not None:
            left = left + Nv[..., None] * weight_grad[:, :, None, :]
    else:
        left = Nv * weight[..., None]
    if grad_right:
        loc = np.einsum("q,eqac,eqbc->eab", t.w_phys, left, g)
    else:
        loc = np.einsum("q,eqa,eqb->eab", t.w_phys, left, Nv)
    dof = spaces.velocity.dofmap
    return _scatter(loc, dof, dof, (spaces.n_scalar,) * 2)


def _largest_eigenvalue(apply_q, H) -> float:
    """Largest eigenvalue of the pencil (Q, H) for symmetric Q given by
    its action and sparse symmetric positive definite H.

    Lanczos (ARPACK) in generalized mode with one factorization of H and
    a fixed start vector, so reruns give the same value.
    """
    n = H.shape[0]
    lu_H = spla.splu(H.tocsc())
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
    pts = t.quad_points
    pv = phi.value(pts)
    pg = phi.grad(pts)
    M = spaces.ops.M_s
    A = spaces.ops.A_s
    lu_M = spaces.ops.lu_Ms
    W = _weighted_scalar_matrix(spaces, pv)                      # (Na phi, Nb)
    W2 = _weighted_scalar_matrix(spaces, pv ** 2)
    V = _weighted_scalar_matrix(spaces, pv, grad_left=True,
                                grad_right=True, weight_grad=pg)
    G2d = _gram_of_products(spaces, pv, pg)
    WT, VT = W.T.tocsr(), V.T.tocsr()
    WV = (W + V).tocsr()

    def apply_q(x):
        # (W2 + G2d - W M^-1 W^T - V M^-1 W^T - W M^-1 V^T
        #  + W M^-1 A M^-1 W^T) x
        x = np.ravel(x)
        y = lu_M.solve(WT @ x)
        z = lu_M.solve(VT @ x - A @ y)
        return W2 @ x + G2d @ x - WV @ y - W @ z

    lam = _largest_eigenvalue(apply_q, spaces.h ** 2 * (M + A))
    return float(np.sqrt(max(lam, 0.0)) / phi.wkinf_norm(2))


def _gram_of_products(spaces, pv, pg):
    """Gram matrix of gradients of N_a*phi (pointwise samples)."""
    t = spaces.tables
    Nv = np.broadcast_to(t.N, (spaces.mesh.n_tets,) + t.N.shape)
    prod_grad = (t.grad_per_elem * pv[..., None, None]
                 + Nv[..., None] * pg[:, :, None, :])
    loc = np.einsum("q,eqac,eqbc->eab", t.w_phys, prod_grad, prod_grad)
    dof = spaces.velocity.dofmap
    return _scatter(loc, dof, dof, (spaces.n_scalar,) * 2)


def pressure_commutator_constant(spaces, phi) -> float:
    """Worst-case L2 ratio |q phi - K(q phi)|_2 / (h |q|_2 |phi|_W1inf)."""
    t = spaces.tables
    pts = t.quad_points
    pv = phi.value(pts)
    dof = spaces.pressure.dofmap
    Np = np.broadcast_to(t.N[:, :4], (spaces.mesh.n_tets, t.N.shape[0], 4))

    def weighted(w):
        loc = np.einsum("q,eqa,eqb->eab", t.w_phys, Np * w[..., None], Np)
        return _scatter(loc, dof, dof, (spaces.pressure.dim,) * 2)

    W = weighted(pv)
    W2 = weighted(pv ** 2)
    WT = W.T.tocsr()

    def apply_q(x):
        # (W2 - W Mp^-1 W^T) x
        x = np.ravel(x)
        return W2 @ x - W @ spaces.ops.lu_Mp.solve(WT @ x)

    lam = _largest_eigenvalue(apply_q, spaces.h ** 2 * spaces.ops.Mp)
    return float(np.sqrt(max(lam, 0.0)) / phi.wkinf_norm(1))
