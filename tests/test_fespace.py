import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from torusns.checks import remove_mean
from torusns.fespace import (QUADFORM_ROWS, _local_matrices, _Pattern,
                             _product_table, _scalar_load, _weighted_matrix,
                             build_spaces, commutator_defect,
                             commutator_constant, field_values,
                             inf_sup_constant, inverse_constant,
                             pressure_commutator_constant,
                             pressure_commutator_defect, pressure_gradients,
                             pressure_l2, pressure_values, project_pressure,
                             project_velocity, quad_integral,
                             velocity_gradients, velocity_h1,
                             velocity_h1_semi, velocity_l2, velocity_values)
from torusns.forms import convection_matrix, divergence_norm
from torusns.mesh import build_torus_mesh
from torusns.steppers import SchemeConfig, StepOperator
from torusns.trig import (BOX_VOLUME, TrigPoly, TrigVector, preset_field,
                          random_trig, sine_shear, tg_like)


def test_norms_of_a_stack_match_row_by_row(level):
    # stacks longer than one sparse product's QUADFORM_ROWS blocks, with
    # a short last product
    spaces = level(3)
    rng = np.random.default_rng(9)
    U = rng.standard_normal((11, 3 * spaces.n_scalar))
    P = rng.standard_normal((2 * QUADFORM_ROWS + 5, spaces.pressure.dim))
    for norm, stack in ((velocity_l2, U), (velocity_h1_semi, U),
                        (velocity_h1, U), (divergence_norm, U),
                        (pressure_l2, P)):
        got = norm(spaces, stack)
        want = np.array([norm(spaces, row) for row in stack])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), norm


def test_project_zero_field(level):
    spaces = level(2)
    c = project_velocity(spaces, preset_field("zero"))
    assert np.abs(c).max() == 0.0


def test_projection_idempotent_on_members(level):
    spaces = level(3)
    rng = np.random.default_rng(5)
    c = remove_mean(spaces, rng.standard_normal(3 * spaces.n_scalar))
    again = project_velocity(spaces, velocity_values(spaces, c))
    assert np.abs(again - c).max() < 1e-12 * max(1.0, np.abs(c).max()) * 100


def test_shear_projection_energy_monotone(level):
    energies = []
    for n in (2, 3, 4):
        spaces = level(n)
        c = project_velocity(spaces, sine_shear())
        energies.append(velocity_l2(spaces, c) ** 2)
    target = BOX_VOLUME / 2.0
    assert energies[0] < energies[1] < energies[2] < target + 1e-10


def test_projection_energy_against_independent_rule(level):
    # the coefficient norm must equal a quadrature of the represented
    # field under a finer, independently generated rule
    spaces = level(2)
    c = project_velocity(spaces, sine_shear())
    fine = build_spaces(build_torus_mesh(2), degree=13)
    vals = velocity_values(fine, c)
    indep = quad_integral(fine, (vals ** 2).sum(-1))
    assert abs(indep - velocity_l2(spaces, c) ** 2) < 1e-12 * indep


def test_projection_orthogonality(level, quad_points):
    spaces = level(3)
    f = tg_like()
    c = project_velocity(spaces, f)
    vals = f.value(quad_points(spaces))
    worst = 0.0
    for comp in range(3):
        load = _scalar_load(spaces, vals[:, :, comp])
        block = c[comp * spaces.n_scalar:(comp + 1) * spaces.n_scalar]
        resid = load - spaces.ops.M_s @ block
        worst = max(worst, np.abs(resid).max() / max(1e-300,
                                                     np.abs(load).max()))
    assert worst < 1e-10


def test_projection_is_contraction(level, quad_points):
    spaces = level(3)
    for f in (sine_shear(), tg_like()):
        c = project_velocity(spaces, f)
        fnorm_sq = quad_integral(spaces,
                                 (f.value(quad_points(spaces)) ** 2
                                  ).sum(-1))
        assert velocity_l2(spaces, c) <= np.sqrt(fnorm_sq) + 1e-10


def test_zero_mean_of_projections(level):
    spaces = level(3)
    c = project_velocity(spaces, tg_like())
    assert np.abs(c.reshape(3, -1) @ spaces.ops.int_s).max() < 1e-10
    q = project_pressure(spaces, TrigPoly.cosine((1, 0, 0)))
    assert abs(spaces.ops.int_p @ q) < 1e-10


def _bordered_solve(M, integral, b):
    """Reference: the dense mean-bordered system [[M, i], [i^T, 0]]."""
    n = len(integral)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = M.toarray()
    A[:n, n] = A[n, :n] = integral
    rhs = np.zeros((n + 1,) + b.shape[1:])
    rhs[:n] = b
    return np.linalg.solve(A, rhs)[:n]


@pytest.mark.parametrize("n", [2, 3])
def test_zero_mean_projection_matches_bordered_solve(level, as_scipy, n):
    spaces = level(n)
    ops = spaces.ops
    u = random_trig(4, 2)
    f = TrigVector([c + m for c, m in zip(u.components, (1.0, -2.0, 0.5))])
    g = TrigPoly.cosine((1, 0, 0)) + 0.3
    x = project_velocity(spaces, f)
    x_ref = _bordered_solve(as_scipy(ops.M_s), ops.int_s, _scalar_load(
        spaces, field_values(spaces, f))).T.ravel()
    q = project_pressure(spaces, g)
    q_ref = _bordered_solve(as_scipy(ops.Mp), ops.int_p, _scalar_load(
        spaces, field_values(spaces, g), n_funcs=4))
    for got, want, mean in ((x, x_ref, x.reshape(3, -1) @ ops.int_s),
                            (q, q_ref, ops.int_p @ q)):
        assert np.abs(mean).max() <= 1e-14 * np.linalg.norm(got)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pressure_projection(level):
    spaces = level(3)
    assert np.abs(project_pressure(spaces,
                                   TrigPoly.constant(0.0))).max() == 0.0
    # members reproduce themselves
    rng = np.random.default_rng(8)
    q = rng.standard_normal(spaces.pressure.dim)
    q -= spaces.ops.int_p @ q / BOX_VOLUME
    again = project_pressure(spaces, pressure_values(spaces, q))
    assert np.abs(again - q).max() < 1e-12 * np.abs(q).max() * 100


def test_pressure_energy_from_below(level):
    # cos x: always below the true energy, but not monotone through
    # these non-nested levels (even grids align with the extrema and
    # capture extra energy: 122.2, 116.0, 122.2); sin x avoids the
    # alignment and climbs cleanly
    cos_e, sin_e = [], []
    for n in (2, 3, 4):
        spaces = level(n)
        qc = project_pressure(spaces, TrigPoly.cosine((1, 0, 0)))
        qs = project_pressure(spaces, TrigPoly.sine((1, 0, 0)))
        cos_e.append(pressure_l2(spaces, qc) ** 2)
        sin_e.append(pressure_l2(spaces, qs) ** 2)
    target = BOX_VOLUME / 2
    assert all(e < target + 1e-10 for e in cos_e)
    assert abs(cos_e[2] - target) < abs(cos_e[1] - target)
    assert sin_e[0] < sin_e[1] < sin_e[2] < target + 1e-10


def _dense_inf_sup_constant(spaces, as_scipy):
    """Reference: sqrt of the smallest eigenvalue of the dense pencil
    (sum_c B_c M_s^-1 B_c^T, Mp) on a basis of the zero-mean pressures."""
    n_s, ops = spaces.n_scalar, spaces.ops
    M = as_scipy(ops.M_s).toarray()
    K = sum(B_c @ np.linalg.solve(M, B_c.T) for B_c in (
        as_scipy(ops.B)[:, c * n_s:(c + 1) * n_s].toarray()
        for c in range(3)))
    Z = sla.null_space(ops.int_p[None, :])
    lam = sla.eigvalsh(Z.T @ (0.5 * (K + K.T)) @ Z,
                       Z.T @ as_scipy(ops.Mp).toarray() @ Z)[0]
    return np.sqrt(lam)


def test_inf_sup_constant(level, as_scipy):
    # odd and even n: with and without an rfft Nyquist plane
    vals = [inf_sup_constant(level(n)) for n in (2, 3, 4, 5)]
    assert min(vals) > 0.1
    assert abs(vals[1] - vals[0]) / vals[0] < 0.5
    for n, val in zip((2, 3, 4, 5), vals):
        ref = _dense_inf_sup_constant(level(n), as_scipy)
        assert abs(val - ref) <= 1e-13 * ref
        assert inf_sup_constant(level(n)) == val


def test_inverse_constant(level, as_scipy):
    prods = [inverse_constant(level(n)) for n in (2, 3, 4, 5)]
    assert (max(prods) - min(prods)) / max(prods) < 0.25
    ratio_2 = prods[0] / level(2).h
    ratio_4 = prods[2] / level(4).h
    assert 1.5 < ratio_4 / ratio_2 < 2.5
    # dense reference for the lattice-block value
    for n, prod in zip((2, 3, 4, 5), prods):
        M, A = (as_scipy(level(n).ops.M_s).toarray(),
                as_scipy(level(n).ops.A_s).toarray())
        ref = np.sqrt(sla.eigvalsh(M + A, M)[-1]) * level(n).h
        assert abs(prod - ref) <= 1e-13 * ref


PHI = TrigPoly.constant(2.0) + TrigPoly.cosine((1, 0, 0))


def test_commutator_trivial_cases(level):
    spaces = level(3)
    v = project_velocity(spaces, sine_shear())
    flat = commutator_defect(spaces, v, TrigPoly.constant(1.0), l=1)
    assert flat.defect < 1e-9
    zero = commutator_defect(spaces, np.zeros(3 * spaces.n_scalar), PHI, l=1)
    assert zero.defect == 0.0
    with pytest.raises(ValueError):
        commutator_defect(spaces, v, PHI, l=2)


def test_commutator_ratios_bounded(level):
    # the per-field ratios stay far below 1 on every level but are not
    # level-independent: the velocity ratio peaks at n=4 and the pressure
    # ratio of this smooth q decays roughly like h, so only boundedness
    # is asserted here
    for n in (2, 3, 4):
        spaces = level(n)
        v = project_velocity(spaces, sine_shear())
        r = commutator_defect(spaces, v, PHI, l=1)
        assert 0.0 < r.ratios[1] < 1.0
        q = project_pressure(spaces, TrigPoly.sine((0, 1, 0)))
        r2 = pressure_commutator_defect(spaces, q, PHI)
        assert 0.0 < r2.ratios[0] < 1.0


def test_commutator_constant_bounded(level):
    # worst-case ratio over the whole space: still rising over these
    # levels, but uniformly small against the O(1) scale of the bound
    # (criterion 7 checks its growth and the per-field ratios against it)
    for n in (2, 3, 4):
        spaces = level(n)
        assert 0.0 < commutator_constant(spaces, PHI) < 1.0
        assert 0.0 < pressure_commutator_constant(spaces, PHI) < 1.0


# ---------------------------------------------------------------------------
# reference: the same integrals on gathered per-element tables
# ---------------------------------------------------------------------------

def _coo_scatter(loc, row_dof, col_dof):
    """Sum element matrices into (row_dof[e, a], col_dof[e, b]) through a
    COO matrix: independent of the package's fixed patterns."""
    rows = np.repeat(row_dof, col_dof.shape[1], axis=1).ravel()
    cols = np.tile(col_dof, (1, row_dof.shape[1])).ravel()
    return sp.coo_matrix((np.ravel(loc), (rows, cols))).tocsr()


def _gathered(spaces):
    """Quadrature weights, the (Q, 5) value table and the (E, Q, 5, 3)
    gradient table gathered per element."""
    t = spaces.tables
    types = np.arange(spaces.mesh.n_tets) % 6   # element 6 c + t: type t
    return t.w_phys, t.N[0, :, :, 0], t.grad[types]


def _weighted_scalar_matrix(spaces, weight, grad_left=False, grad_right=False,
                            weight_grad=None):
    """Assemble (D_l(N_a w), D_r N_b) with optional gradients; `weight`
    and `weight_grad` are pointwise samples of w and its gradient."""
    w, N, g = _gathered(spaces)
    Nv = np.broadcast_to(N, (spaces.mesh.n_tets,) + N.shape)
    if grad_left:
        left = g * weight[..., None, None]
        if weight_grad is not None:
            left = left + Nv[..., None] * weight_grad[:, :, None, :]
    else:
        left = Nv * weight[..., None]
    if grad_right:
        loc = np.einsum("q,eqac,eqbc->eab", w, left, g)
    else:
        loc = np.einsum("q,eqa,eqb->eab", w, left, Nv)
    dof = spaces.velocity.dofmap
    return _coo_scatter(loc, dof, dof)


def _gram_of_products(spaces, pv, pg):
    """Gram matrix of gradients of N_a*phi (pointwise samples)."""
    w, N, g = _gathered(spaces)
    Nv = np.broadcast_to(N, (spaces.mesh.n_tets,) + N.shape)
    prod_grad = g * pv[..., None, None] + Nv[..., None] * pg[:, :, None, :]
    loc = np.einsum("q,eqac,eqbc->eab", w, prod_grad, prod_grad)
    dof = spaces.velocity.dofmap
    return _coo_scatter(loc, dof, dof)


def test_kernels_match_gathered_einsum(level, as_scipy):
    for n in (2, 3):
        spaces = level(n)
        w, N, g = _gathered(spaces)
        rng = np.random.default_rng(n)
        u = rng.standard_normal((3, spaces.n_scalar))
        q = rng.standard_normal(spaces.pressure.dim)
        dof, dof_p = spaces.velocity.dofmap, spaces.pressure.dofmap
        A_s = _coo_scatter(np.einsum("q,eqac,eqbc->eab", w, g, g), dof, dof)
        B = sp.hstack([_coo_scatter(np.einsum("q,qj,eqa->eja", w, N[:, :4],
                                              g[..., c]), dof_p, dof)
                       for c in range(3)])
        pairs = ((velocity_gradients(spaces, u.ravel()),
                  np.einsum("iea,eqac->eqic", u[:, dof], g)),
                 (pressure_gradients(spaces, q),
                  np.einsum("ea,eqac->eqc", q[dof_p], g[:, :, :4])),
                 (as_scipy(spaces.ops.A_s).toarray(), A_s.toarray()),
                 (as_scipy(spaces.ops.B).toarray(), B.toarray()))
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_vector_patterns_match_the_sorted_ones(level):
    # the block grid and block diagonal, derived from the scalar pattern
    # without a sort, against patterns built from the vector dofmaps; the
    # grid's element slots are the sorted pattern's off the diagonal
    # blocks (local component i != j), and none lands on those blocks
    for n in (2, 3):
        velocity = level(n).velocity
        vdof = velocity.vector_dofmap
        scalar, grid = velocity.pattern, velocity.vector_pattern
        want = _Pattern.of(vdof, vdof)
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(grid, name), getattr(want, name))
        assert grid.shape == want.shape
        component = np.arange(vdof.shape[1]) // (vdof.shape[1] // 3)
        off = component[:, None] != component[None, :]
        assert grid.slot.dtype == np.int32
        assert np.array_equal(grid.slot, want.slot[:, off])
        assert not np.isin(grid.slot, grid.diagonal).any()
        # a frozen system adds F0 through these slots: no cast per add
        assert grid.diagonal.dtype == np.intp
        for c in range(3):
            assert np.array_equal(grid.indices[grid.diagonal[c]],
                                  scalar.indices + c * scalar.shape[0])
        block = velocity.block_pattern
        ones = sp.csr_matrix((np.ones(scalar.nnz), scalar.indices,
                              scalar.indptr))
        kron = sp.kron(sp.identity(3), ones, format="csr")
        assert np.array_equal(block.indptr, kron.indptr)
        assert np.array_equal(block.indices, kron.indices)
        # matrices share the pattern's index arrays, which stay intact
        assert not grid.indices.flags.writeable
        assert not block.indptr.flags.writeable


def _product_operands(spaces, as_scipy, saddle_matrix):
    """name -> (the package's operator, its scipy matrix A) for every
    product a run or a report makes: the mass and stiffness matrices, B
    and B^T, the case-1 and case-3 convection matrices and a frozen case-3
    saddle system, applied block by block."""
    ops = spaces.ops
    w = project_velocity(spaces, random_trig(3))
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 16, N=1))
    system, _ = op.frozen_system(w, w)
    matrices = {"M_s": ops.M_s, "A_s": ops.A_s, "Mp": ops.Mp, "B": ops.B,
                "B^T": ops.B.T,
                "F case 1": convection_matrix(spaces, 1, w),
                "F case 3": convection_matrix(spaces, 3, w)}
    out = {name: (A, as_scipy(A)) for name, A in matrices.items()}
    out["saddle"] = (system, saddle_matrix(system).tocsr())
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
def test_products_match_scipy(level, as_scipy, saddle_matrix, n):
    # within 1e-15 of the largest |A||x|, for a vector and 3- and
    # 24-column stacks; every column of a stack is bitwise the product
    # with that column alone, which the norms' bitwise rows rest on
    rng = np.random.default_rng(n)
    for name, (A, want) in _product_operands(level(n), as_scipy,
                                             saddle_matrix).items():
        x = rng.standard_normal(want.shape[1])
        got = A @ x
        assert got.shape == (want.shape[0],)
        scale = (abs(want) @ np.abs(x)).max()
        assert np.abs(got - want @ x).max() <= 1e-15 * scale, name
        for k in (3, 24):
            X = rng.standard_normal((want.shape[1], k))
            got = A @ X
            assert got.shape == (want.shape[0], k)
            scale = (abs(want) @ np.abs(X)).max()
            assert np.abs(got - want @ X).max() <= 1e-15 * scale, name
            for j in range(k):
                assert np.array_equal(got[:, j], A @ X[:, j]), (name, j)


def test_products_warn_of_no_overflow(level):
    # like a compiled loop: inf and NaN propagate, silently
    spaces = level(2)
    M = spaces.ops.M_s
    x = np.full(M.shape[1], 1e308)
    x[0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = M @ x
    assert np.isnan(y[M.indices[:M.indptr[1]]]).all()
    assert np.isinf(y).any()


def _dense_commutator_constants(spaces, pts, phi, as_scipy):
    """Reference: both constants from dense pencils and eigvalsh, on the
    gathered tables and quadrature points.  The pressure basis is the
    vertex part of the scalar velocity basis."""
    pv, pg = phi.value(pts), phi.gradient().value(pts)
    W = _weighted_scalar_matrix(spaces, pv).toarray()
    W2 = _weighted_scalar_matrix(spaces, pv ** 2).toarray()
    V = _weighted_scalar_matrix(spaces, pv, grad_left=True, grad_right=True,
                                weight_grad=pg).toarray()
    G = _gram_of_products(spaces, pv, pg).toarray()
    M, A = (as_scipy(spaces.ops.M_s).toarray(),
            as_scipy(spaces.ops.A_s).toarray())
    MW = np.linalg.solve(M, W.T)
    Q = W2 - W @ MW + G - V @ MW - MW.T @ V.T + MW.T @ A @ MW
    lam_v = sla.eigvalsh(0.5 * (Q + Q.T), spaces.h ** 2 * (M + A))[-1]
    nv = spaces.pressure.dim
    Mp = as_scipy(spaces.ops.Mp).toarray()
    Wp = W[:nv, :nv]
    Qp = W2[:nv, :nv] - Wp @ np.linalg.solve(Mp, Wp.T)
    lam_p = sla.eigvalsh(0.5 * (Qp + Qp.T), spaces.h ** 2 * Mp)[-1]
    return (np.sqrt(lam_v) / phi.wkinf_norm(2),
            np.sqrt(lam_p) / phi.wkinf_norm(1))


def test_commutator_constants_match_dense_reference(level, quad_points,
                                                     as_scipy):
    # PHI varies along x only (blocks over the y-z shifts); the others
    # along x and y (over the z shifts) and along every axis (one block)
    cases = [(2, PHI), (3, PHI),
             (2, TrigPoly.constant(2.0) + TrigPoly.cosine((1, 1, 0))),
             (2, TrigPoly.constant(3.0) + TrigPoly.cosine((1, 0, 0))
              + TrigPoly.sine((0, 1, 1)))]
    for n, phi in cases:
        spaces = level(n)
        ref_v, ref_p = _dense_commutator_constants(
            spaces, quad_points(spaces), phi, as_scipy)
        c_v = commutator_constant(spaces, phi)
        c_p = pressure_commutator_constant(spaces, phi)
        assert abs(c_v - ref_v) <= 1e-12 * ref_v
        assert abs(c_p - ref_p) <= 1e-12 * ref_p
        assert commutator_constant(spaces, phi) == c_v
        assert pressure_commutator_constant(spaces, phi) == c_p



def test_commutator_constant_holds_no_per_point_basis_array(level):
    # every weighted form samples its K scalar weights one Kuhn type at a
    # time and contracts them with per-type tables: no (E, Q, 5, 3) array
    # of basis gradients times phi.  numpy reports its buffers to
    # tracemalloc.
    spaces = level(6)
    tracemalloc.start()
    try:
        commutator_constant(spaces, PHI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_sample_array = 8 * spaces.mesh.n_tets * spaces.tables.w_phys.size
    assert peak < 16 * one_sample_array


def test_field_values_holds_one_types_block_beside_its_result(level):
    # each Kuhn type's block is written into one preallocated result: no
    # list of the six blocks and no stacked copy of them
    spaces = level(8)
    f = PHI * PHI
    tracemalloc.start()
    try:
        values = field_values(spaces, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("datum", ["random-trig", "tg-like"])
def test_projection_of_data_sampled_per_type_is_bitwise(level, n, datum):
    # one Kuhn type's samples at a time give the same operands, so the
    # same numbers, as the whole (E, Q, 3) stack of field_values
    spaces = level(n)
    f = preset_field(datum, 3, 2)
    assert np.array_equal(project_velocity(spaces, f), project_velocity(
        spaces, field_values(spaces, f)))
    g = f.components[0] + TrigPoly.constant(0.5)
    assert np.array_equal(project_pressure(spaces, g), project_pressure(
        spaces, field_values(spaces, g)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_basis_integrals_from_the_type_table(level, n):
    # the integrals of the basis functions, from a (6, Q, 1, 1) table of
    # ones, are bitwise the loads of an (E, Q) array of ones
    spaces = level(n)
    ones = np.ones((spaces.mesh.n_tets, spaces.tables.w_phys.size))
    assert np.array_equal(spaces.ops.int_s, _scalar_load(spaces, ones))
    assert np.array_equal(spaces.ops.int_p,
                          _scalar_load(spaces, ones, n_funcs=4))


@pytest.mark.parametrize("n", [2, 3])
def test_weighted_matrix_matches_its_e_major_form(level, n):
    # the weights sampled one type at a time against the whole (E, Q, 1, K)
    # stack the per-type rows used to be cut from
    spaces = level(n)
    t, pattern = spaces.tables, spaces.velocity.pattern
    weights = [PHI, PHI * PHI, PHI.gradient().components[0]]
    table = np.concatenate([_product_table(t.N, t.N)] * 2
                           + [_product_table(t.N, t.grad)[..., :1]], -1)
    stack = np.stack([field_values(spaces, f) for f in weights],
                     -1)[:, :, None]
    want = pattern.assemble(_local_matrices(spaces, stack, table))
    got = _weighted_matrix(spaces, weights, table, pattern)
    assert np.array_equal(got.data, want.data)


def test_projection_of_data_holds_no_whole_sample_stack(level):
    # a velocity datum's load takes one Kuhn type's samples at a time: the
    # peak stays below one (E, Q, 3) float64 stack (the mass solver is made
    # before measuring, as a run's first projection would make it)
    spaces = level(6)
    f = preset_field("random-trig", 1, 2)
    project_velocity(spaces, f)
    tracemalloc.start()
    try:
        project_velocity(spaces, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * spaces.mesh.n_tets * spaces.tables.w_phys.size * 3
