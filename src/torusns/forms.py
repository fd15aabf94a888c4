"""Convection operators and the three discrete convective forms.

The convective trilinear form comes in three flavours:

* case 1 -- symmetrized transport, assembled in the equivalent
  antisymmetric split 0.5*[(u.grad v, w) - (u.grad w, v)].  At the
  package quadrature degree the split agrees with the literal
  symmetrized integrand to roundoff, and it makes the cancellation
  b(u, v, v) = 0 exact for every pair of discrete fields, which is the
  property the time steppers' energy balance rests on.
* case 2 -- rotational form (curl u) x v, which cancels pointwise.
* case 3 -- rotational form plus the projected dynamic-pressure
  gradient 0.5 grad K(v.u); the gradient pairing is evaluated through
  integration by parts as -0.5 (K(v.u), div w), exact on the torus.

The divergence coupling B (`spaces.ops.B`, assembled with the spaces)
maps velocity coefficients to pressure-test values (q, div v).  Testing against constants gives exactly zero, so B
annihilates the constant pressure direction by construction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fespace import (_scatter, project_pressure_values, quad_integral,
                      velocity_gradients, velocity_h1_semi, velocity_l2,
                      velocity_values)

#: signs of the cross-product coupling between vector components:
#: block (i, j) of the rotational operator is -eps_{ijk} W_k.
_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0


# ---------------------------------------------------------------------------
# convection operators (matrix form, used by the steppers)
# ---------------------------------------------------------------------------

def transport_matrix(spaces, advect_coeffs) -> sp.csr_matrix:
    """Scalar antisymmetric transport operator for a frozen field.

    S[a, b] = 0.5 * [(u.grad N_b, N_a) - (u.grad N_a, N_b)] with u the
    advecting field; the full case-1 operator is S acting on each
    velocity component independently.
    """
    t = spaces.tables
    dof = spaces.velocity.dofmap
    uvals = velocity_values(spaces, advect_coeffs)           # (E, Q, 3)
    udotgrad = np.einsum("eqc,eqbc->eqb", uvals, t.grad_per_elem)
    term = np.einsum("q,qa,eqb->eab", t.w_phys, t.N, udotgrad)
    loc = 0.5 * (term - term.transpose(0, 2, 1))
    return _scatter(loc, dof, dof, (spaces.n_scalar,) * 2)


def curl_weighted_mass(spaces, advect_coeffs):
    """W_k[a, b] = ((curl u)_k N_a, N_b) for k = 0, 1, 2."""
    t = spaces.tables
    dof = spaces.velocity.dofmap
    g = velocity_gradients(spaces, advect_coeffs)            # (E, Q, i, j)
    curl = np.stack([g[..., 2, 1] - g[..., 1, 2],
                     g[..., 0, 2] - g[..., 2, 0],
                     g[..., 1, 0] - g[..., 0, 1]], axis=-1)  # (E, Q, 3)
    out = []
    for k in range(3):
        loc = np.einsum("q,eq,qa,qb->eab", t.w_phys, curl[..., k], t.N, t.N)
        out.append(_scatter(loc, dof, dof, (spaces.n_scalar,) * 2))
    return out


def rotation_matrix(spaces, advect_coeffs) -> sp.csr_matrix:
    """Full rotational operator ((curl u) x ., .) on vector coefficients."""
    W = curl_weighted_mass(spaces, advect_coeffs)
    n_s = spaces.n_scalar
    grid = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if _EPS[i, j, k] != 0.0:
                    blk = -_EPS[i, j, k] * W[k]
                    grid[i][j] = blk if grid[i][j] is None else grid[i][j] + blk
    for i in range(3):
        for j in range(3):
            if grid[i][j] is None and i == j:
                grid[i][j] = sp.csr_matrix((n_s, n_s))
    return sp.bmat(grid, format="csr")


def convection_matrix(spaces, case: int, advect_coeffs) -> sp.csr_matrix:
    """Operator C with (C z)_i = b_h(u, z, phi_i) for frozen advecting u.

    For case 3 this covers only the rotational part; the projected
    dynamic-pressure gradient couples through the pressure space and is
    handled by the steppers via an auxiliary variable.
    """
    if case == 1:
        return sp.kron(sp.identity(3), transport_matrix(spaces, advect_coeffs),
                       format="csr")
    if case in (2, 3):
        return rotation_matrix(spaces, advect_coeffs)
    raise ValueError(f"unknown convective case {case}")


def bernoulli_rhs_matrix(spaces, advect_coeffs) -> sp.csr_matrix:
    """R[j, (c, a)] = (psi_j, N_a u_c): projects z.u into the pressure space."""
    t = spaces.tables
    shape = (spaces.pressure.dim, spaces.n_scalar)
    uvals = velocity_values(spaces, advect_coeffs)
    blocks = []
    for c in range(3):
        loc = np.einsum("q,qj,qa,eq->eja", t.w_phys, t.N[:, :4], t.N,
                        uvals[:, :, c])
        blocks.append(_scatter(loc, spaces.pressure.dofmap,
                               spaces.velocity.dofmap, shape))
    return sp.hstack(blocks, format="csr")


# ---------------------------------------------------------------------------
# trilinear form values
# ---------------------------------------------------------------------------

def b_case1(spaces, u, v, w) -> float:
    """Symmetrized transport form, antisymmetric-split evaluation."""
    t = spaces.tables
    uvals = velocity_values(spaces, u)
    vvals = velocity_values(spaces, v)
    wvals = velocity_values(spaces, w)
    vgrads = velocity_gradients(spaces, v)
    wgrads = velocity_gradients(spaces, w)
    adv_v = np.einsum("eqc,eqic->eqi", uvals, vgrads)
    adv_w = np.einsum("eqc,eqic->eqi", uvals, wgrads)
    integrand = 0.5 * ((adv_v * wvals).sum(-1) - (adv_w * vvals).sum(-1))
    return quad_integral(spaces, integrand)


def b_case2(spaces, u, v, w) -> float:
    """Rotational form ((curl u) x v, w)."""
    g = velocity_gradients(spaces, u)
    curl = np.stack([g[..., 2, 1] - g[..., 1, 2],
                     g[..., 0, 2] - g[..., 2, 0],
                     g[..., 1, 0] - g[..., 0, 1]], axis=-1)
    vvals = velocity_values(spaces, v)
    wvals = velocity_values(spaces, w)
    integrand = (np.cross(curl, vvals) * wvals).sum(-1)
    return quad_integral(spaces, integrand)


def bernoulli_projection(spaces, u, v):
    """Zero-mean pressure-space projection of the product u.v."""
    uvals = velocity_values(spaces, u)
    vvals = velocity_values(spaces, v)
    return project_pressure_values(spaces, (uvals * vvals).sum(-1))


def b_case3(spaces, u, v, w) -> float:
    """Rotational form plus projected dynamic-pressure gradient.

    The gradient pairing 0.5 (grad K(u.v), w) is evaluated by parts as
    -0.5 (K(u.v), div w), which the quadrature reproduces exactly.
    """
    kh = bernoulli_projection(spaces, u, v)
    B = spaces.ops.B
    return b_case2(spaces, u, v, w) - 0.5 * float(kh @ (B @ np.asarray(w)))


def b_form(spaces, case, u, v, w) -> float:
    if case == 1:
        return b_case1(spaces, u, v, w)
    if case == 2:
        return b_case2(spaces, u, v, w)
    if case == 3:
        return b_case3(spaces, u, v, w)
    raise ValueError(f"unknown convective case {case}")


def convection_rhs(spaces, case, u) -> np.ndarray:
    """Vector of b_h(u, u, phi_i) over all velocity test functions."""
    u = np.asarray(u)
    if case == 1:
        S = transport_matrix(spaces, u)
        return (S @ u.reshape(3, -1).T).T.ravel()
    out = rotation_matrix(spaces, u) @ u
    if case == 3:
        kh = bernoulli_projection(spaces, u, u)
        out = out - 0.5 * (spaces.ops.B.T @ kh)
    return out


def estimate_constants(spaces, case, samples) -> float:
    """Largest |b(u,v,w)| / (|grad u| |grad v| |w|^0.5 |grad w|^0.5).

    Null samples (any factor of the denominator zero) are skipped; an
    all-null sample list is rejected.
    """
    best = None
    for (u, v, w) in samples:
        denom = (velocity_h1_semi(spaces, u) * velocity_h1_semi(spaces, v)
                 * np.sqrt(velocity_l2(spaces, w))
                 * np.sqrt(velocity_h1_semi(spaces, w)))
        if denom == 0.0:
            continue
        ratio = abs(b_form(spaces, case, u, v, w)) / denom
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise ValueError("all samples have a vanishing denominator")
    return float(best)


# ---------------------------------------------------------------------------
# divergence handling
# ---------------------------------------------------------------------------

def divergence_norm(spaces, u):
    """Largest |(div u, q)| / |q|_2 over the pressure space, for one
    velocity vector or per row of a stack (one solve for all rows)."""
    r = spaces.ops.B @ np.asarray(u).T
    s = spaces.ops.lu_Mp.solve(r)
    return np.sqrt(np.maximum(0.0, np.vecdot(np.ascontiguousarray(r.T),
                                             np.ascontiguousarray(s.T))))


def project_div_free(spaces, coeffs) -> np.ndarray:
    """Mass-orthogonal projection onto the discretely divergence-free,
    componentwise zero-mean velocity subspace."""
    ops = spaces.ops
    n_u = 3 * spaces.n_scalar
    n_p = spaces.pressure.dim
    M = sp.kron(sp.identity(3), ops.M_s, format="csr")
    Cu = sp.kron(sp.identity(3), sp.csr_matrix(ops.int_s[None, :]),
                 format="csr")
    K = sp.bmat([[M, ops.B.T, Cu.T],
                 [ops.B, None, None],
                 [Cu, None, None]], format="csc")
    rhs = np.concatenate([M @ np.asarray(coeffs), np.zeros(n_p + 3)])
    sol = spla.splu(K).solve(rhs)
    return sol[:n_u]
