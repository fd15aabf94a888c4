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
  On discretely divergence-free w that pairing vanishes, so case 3
  equals case 2 there, and a midpoint step with case 3 solves the
  case-2 system, its pressure absorbing -0.5 K(v.u).

The divergence coupling B (`spaces.ops.B`, assembled with the spaces)
maps velocity coefficients to pressure-test values (q, div v).  Testing against constants gives exactly zero, so B
annihilates the constant pressure direction by construction.

The convection operators the steppers rebuild every Picard iterate and
every explicit step are assembled from per-type element tensors (the
tensor representation of Kirby and Logg, ACM TOMS 32, 2006).  All
elements of one Kuhn type are translates of each other, so an element
matrix is linear in the element's 15 nodal velocity values through a
fixed table per type: `spaces.tables.transport`, (6, 15, 25), already
antisymmetrized, and `spaces.tables.rotation`, (6, 15, 150), with the
Levi-Civita contractions folded in and the zero blocks i = j left out.  Both
come from the sums over the rule's points of w_q d_l N_c N_a N_b: the
sampled assembly's quadrature sum, regrouped, so the two agree to
roundoff at any rule degree.  At the package degree 11 the tensors are
also exact, since the integrand has degree 3 + 4 + 4 = 11 with the
quartic bubble.  An element matrix is then one (n, 15) @ (15, J)
product per type, summed into a fixed pattern (`fespace._Pattern`); no
field is sampled at the quadrature points.  `_curl`, `b_case1` and
`b_case2` evaluate the forms pointwise instead, the independent oracle
of `torusns check`.
"""

from __future__ import annotations

import numpy as np

from .fespace import (_CSR, _EPS, N_LOCAL, N_LOCAL_P, _evaluate,
                      _row_blocks, _scatter, _velocity_nodal,
                      _zero_mean_solve, quad_integral, velocity_gradients,
                      velocity_h1_semi, velocity_l2, velocity_values)
from .linsolve import SaddleConstraints, SaddleSystem


# ---------------------------------------------------------------------------
# convection operators (matrix form, used by the steppers)
# ---------------------------------------------------------------------------

def _element_matrices(nodal, tensor):
    """loc[e] = nodal[e] @ tensor[e % 6] for nodal values (E, 3, 5) and
    a per-type tensor (6, 15, J): one matmul per Kuhn type."""
    nodal = nodal.reshape(len(nodal), -1)
    loc = np.empty((len(nodal), tensor.shape[2]))
    for t in range(6):
        loc[t::6] = nodal[t::6] @ tensor[t]
    return loc


def transport_matrix(spaces, advect_coeffs) -> _CSR:
    """Scalar antisymmetric transport operator for a frozen field.

    S[a, b] = 0.5 * [(u.grad N_b, N_a) - (u.grad N_a, N_b)] with u the
    advecting field; the full case-1 operator is S acting on each
    velocity component independently.
    """
    return spaces.velocity.pattern.assemble(_element_matrices(
        _velocity_nodal(spaces, advect_coeffs), spaces.tables.transport))


def _curl(spaces, coeffs):
    """(E, Q, 3) curl of a velocity field at the quadrature points, from
    the table (curl N_a e_j)_m = eps_{mij} d_i N_a."""
    curl_N = np.einsum("mij,tqai->tqjam", _EPS, spaces.tables.grad)
    return _evaluate(np.reshape(coeffs, (1, -1)),
                     spaces.velocity.vector_dofmap,
                     curl_N.reshape(6, -1, 3 * N_LOCAL, 3))[:, :, 0]


def rotation_matrix(spaces, advect_coeffs) -> _CSR:
    """Full rotational operator ((curl u) x ., .) on vector coefficients.

    Entry ((i, a), (j, b)) is eps_{imj} (w_m N_b, N_a), w = curl u; 0 if i = j.
    """
    return spaces.velocity.vector_pattern.assemble(_element_matrices(
        _velocity_nodal(spaces, advect_coeffs), spaces.tables.rotation))


def convection_matrix(spaces, case: int, advect_coeffs) -> _CSR:
    """Operator C with (C z)_i = b_h(u, z, phi_i) for frozen advecting u.

    For case 3 this is only the rotational part: the projected
    dynamic-pressure gradient lies in the range of B^T, where the
    pressure absorbs it.
    """
    if case == 1:
        S = transport_matrix(spaces, advect_coeffs)
        return spaces.velocity.block_pattern.matrix(np.tile(S.data, 3))
    if case in (2, 3):
        return rotation_matrix(spaces, advect_coeffs)
    raise ValueError(f"unknown convective case {case}")


# ---------------------------------------------------------------------------
# trilinear form values
# ---------------------------------------------------------------------------

def b_case1(spaces, u, v, w) -> float:
    """Symmetrized transport form, antisymmetric-split evaluation."""
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
    curl = _curl(spaces, u)
    vvals = velocity_values(spaces, v)
    wvals = velocity_values(spaces, w)
    integrand = (np.cross(curl, vvals) * wvals).sum(-1)
    return quad_integral(spaces, integrand)


def bernoulli_projection(spaces, u, v):
    """Zero-mean pressure-space projection of the product u.v.  Its load
    (u.v, psi_j) pairs each element's nodal products u_a . v_b with the
    table sum_q w_q N_a N_b psi_j, the same for every element and exact
    (degree 4 + 4 + 1); no field is sampled."""
    t, ops, n_p = spaces.tables, spaces.ops, spaces.pressure.dim
    N = t.N[0, :, :, 0]
    table = np.einsum("q,qa,qb,qj->abj", t.w_phys, N, N, N[:, :N_LOCAL_P])
    products = (_velocity_nodal(spaces, u).transpose(0, 2, 1)
                @ _velocity_nodal(spaces, v))                # (E, 5, 5)
    local = products.reshape(len(products), -1) @ table.reshape(-1, N_LOCAL_P)
    load = _scatter(spaces.pressure.dofmap, local, n_p)
    return _zero_mean_solve(ops.Mp_solver, load, ops.int_p, n_p)


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


def convection_rhs(spaces, u) -> np.ndarray:
    """Vector of the case-1 form b_h(u, u, phi_i) over all velocity test
    functions: the explicit convection of the schemes that use it.  Each
    element's transport matrix acts on the element's own nodal values,
    and the products are summed per component, with no global matrix.
    One Kuhn type's element matrices exist at a time.
    The quadratic terms of a state that grows without bound (an
    overdriven CNAB run) overflow to inf here, silently: the report
    records the overflow, and the run names its first step."""
    nodal = _velocity_nodal(spaces, u)                          # (E, 3, 5)
    flat = nodal.reshape(len(nodal), -1)
    local = np.empty(nodal.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for t, tensor in enumerate(spaces.tables.transport):
            loc = (flat[t::6] @ tensor).reshape(-1, N_LOCAL, N_LOCAL)
            local[t::6] = nodal[t::6] @ loc.transpose(0, 2, 1)
    return _scatter(spaces.velocity.dofmap, local, spaces.n_scalar).ravel()


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
    velocity vector or per row of a stack.  A stack is scanned in blocks
    of ROWS rows, one solve each, so no transposed copy of the whole
    stack is made; a column's solve does not depend on the others."""
    u = np.asarray(u)
    stack = u.reshape(-1, u.shape[-1])
    out = np.empty(len(stack))
    for rows in _row_blocks(len(stack)):
        r = spaces.ops.B @ stack[rows].T
        s = spaces.ops.Mp_solver.solve(r)
        out[rows] = np.vecdot(np.ascontiguousarray(r.T),
                              np.ascontiguousarray(s.T))
    return np.sqrt(np.maximum(0.0, out.reshape(u.shape[:-1])))


def project_div_free(spaces, coeffs) -> np.ndarray:
    """Mass-orthogonal projection onto the discretely divergence-free,
    componentwise zero-mean velocity subspace: the step's saddle system
    with the vector mass matrix as velocity block, solved by its lattice
    Fourier blocks (`linsolve.LatticeSolver`).  Only this call holds the
    system and its solver, so both are freed when it returns."""
    M = spaces.velocity.block_pattern.matrix(np.tile(spaces.ops.M_s.data, 3))
    constraints = SaddleConstraints(spaces)
    system = SaddleSystem(constraints, M)
    return system.solve(system.rhs(M @ np.asarray(coeffs)),
                        solver=constraints.lattice_solver(system))["u"]
