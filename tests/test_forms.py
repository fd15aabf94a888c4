import numpy as np
import pytest

from torusns import checks
from torusns.fespace import (_EPS, N_LOCAL, _Pattern, _scatter,
                             _velocity_nodal, build_spaces,
                             pressure_gradients, project_pressure,
                             project_velocity, quad_integral,
                             velocity_gradients, velocity_h1, velocity_l2,
                             velocity_values)
from torusns.forms import (_element_matrices, b_case1, b_case2, b_case3,
                           b_form, bernoulli_projection, convection_matrix,
                           convection_rhs, divergence_norm,
                           estimate_constants, project_div_free,
                           rotation_matrix, transport_matrix)
from torusns.mesh import build_torus_mesh
from torusns.trig import (BOX_VOLUME, TrigPoly, TrigVector, random_trig,
                          sine_shear, tg_like)

P = TrigPoly


def rand_coeffs(spaces, seed):
    return np.random.default_rng(seed).standard_normal(3 * spaces.n_scalar)


# ---------------------------------------------------------------------------
# assembled operators
# ---------------------------------------------------------------------------

def test_stepper_matrices_match_value_forms(level):
    # the assembled operators the steppers use against the value forms;
    # case 3's matrix is only its rotational part, b_case2, and only the
    # case-1 schemes assemble the explicit convection
    for n in (2, 3):
        spaces = level(n)
        u, v, w = (project_velocity(spaces, random_trig(seed, 2))
                   for seed in (21, 22, 23))
        for case in (1, 2, 3):
            got = w @ (convection_matrix(spaces, case, u) @ v)
            want = b_form(spaces, min(case, 2), u, v, w)
            assert abs(got - want) <= 1e-12 * abs(want), (n, case)
        got = convection_rhs(spaces, u) @ w
        want = b_form(spaces, 1, u, u, w)
        assert abs(got - want) <= 1e-12 * abs(want), n


def test_rotation_drops_only_zero_blocks(level):
    # the full nine-block rotation tensor, summed on the pattern sorted
    # from the vector dofmap, against the operator assembled from the six
    # blocks i != j: bit for bit, and the dropped blocks are exactly zero
    for n in (2, 3):
        spaces = level(n)
        vdof = spaces.velocity.vector_dofmap
        full = np.einsum("imj,mlk,tlcab->tkciajb", _EPS, _EPS,
                         spaces.tables._trilinear)
        blocks = full.reshape(6, 15, 3, 5, 3, 5)
        for c in range(3):
            assert not blocks[:, :, c, :, c].any()
        pattern = _Pattern.of(vdof, vdof)
        for seed in (24, 25):
            u = project_velocity(spaces, random_trig(seed, 2))
            want = pattern.assemble(_element_matrices(
                _velocity_nodal(spaces, u), full.reshape(6, 15, -1)))
            assert np.array_equal(rotation_matrix(spaces, u).data,
                                  want.data), (n, seed)


def bump_transport(tables):
    """The transport tensor one part in 1e9 too large."""
    return "transport", (1.0 + 1e-9) * tables.transport


def bump_one_rotation_type(tables):
    """The rotation tensor of one Kuhn type one part in 1e9 too large."""
    R = tables.rotation.copy()
    R[3] *= 1.0 + 1e-9
    return "rotation", R


@pytest.mark.parametrize("corrupt", [bump_transport, bump_one_rotation_type])
def test_tensor_check_fails_on_a_corrupted_tensor(level, monkeypatch,
                                                  corrupt):
    spaces = level(2)
    assert checks._convection_tensor(spaces).passed
    name, bad = corrupt(spaces.tables)
    monkeypatch.setitem(vars(spaces.tables), name, bad)
    assert not checks._convection_tensor(spaces).passed


def test_bernoulli_projection_matches_the_sampled_product(level):
    # the nodal-product load against the projection of u.v sampled at
    # the quadrature points
    for n in (2, 3):
        spaces = level(n)
        u, v = (project_velocity(spaces, random_trig(seed, 2))
                for seed in (31, 32))
        want = project_pressure(spaces, (velocity_values(spaces, u)
                                          * velocity_values(spaces, v)
                                          ).sum(-1))
        got = bernoulli_projection(spaces, u, v)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_stiffness_kills_constants(level, as_scipy):
    spaces = level(2)
    const = np.zeros(spaces.n_scalar)
    const[:spaces.mesh.n_vertices] = 1.0
    A_s = spaces.ops.A_s
    assert np.abs(A_s @ const).max() < 1e-12 * np.abs(as_scipy(A_s)).max()


def test_mass_matches_independent_quadrature(level):
    spaces = level(2)
    c = rand_coeffs(spaces, 1)
    fine = build_spaces(build_torus_mesh(2), degree=13)
    vals = velocity_values(fine, c)
    indep = quad_integral(fine, (vals ** 2).sum(-1))
    assert abs(indep - velocity_l2(spaces, c) ** 2) < 1e-12 * indep


def test_divergence_operator_on_solenoidal_projection(level):
    # only the projection error contributes; for the unidirectional
    # shear the mesh symmetry cancels it entirely, for a generic
    # solenoidal field it decays under refinement
    shear_norms, generic_norms = [], []
    field = random_trig(77, 2, norm=10.0)
    for n in (2, 3, 4):
        spaces = level(n)
        c = project_velocity(spaces, sine_shear())
        shear_norms.append(divergence_norm(spaces, c)
                           / velocity_h1(spaces, c))
        g = project_velocity(spaces, field)
        generic_norms.append(divergence_norm(spaces, g)
                             / velocity_h1(spaces, g))
    assert max(shear_norms) < 1e-12
    # parity resonance of the integer modes makes the decay non-monotone
    # between even and odd grids; both finer levels beat the coarsest
    assert max(generic_norms[1:]) < generic_norms[0] < 0.05


def test_constant_pressure_tests_vanish(level):
    spaces = level(3)
    w = rand_coeffs(spaces, 2)
    ones = np.ones(spaces.pressure.dim)
    Bw = spaces.ops.B @ w
    assert abs(ones @ Bw) < 1e-12 * np.abs(Bw).max()


def test_gradient_divergence_duality(level):
    spaces = level(3)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(spaces.pressure.dim)
    w = rng.standard_normal(3 * spaces.n_scalar)
    lhs = quad_integral(spaces, (pressure_gradients(spaces, q)
                                 * velocity_values(spaces, w)).sum(-1))
    rhs = -float(q @ (spaces.ops.B @ w))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# trilinear forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", [1, 2, 3])
def test_trilinearity(level, case):
    spaces = level(2)
    a, b, u, v, w = (rand_coeffs(spaces, s) for s in (10, 11, 12, 13, 14))
    alpha = 0.7310529
    for slot in range(3):
        combo = [u, v, w]
        combo[slot] = alpha * a + b
        args1 = [u, v, w]
        args1[slot] = a
        args2 = [u, v, w]
        args2[slot] = b
        lhs = b_form(spaces, case, *combo)
        rhs = (alpha * b_form(spaces, case, *args1)
               + b_form(spaces, case, *args2))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) < 1e-12 * scale, f"slot {slot}"


def test_skew_symmetry_cases_1_2(level):
    spaces = level(3)
    for seed in range(5):
        u = project_velocity(spaces, random_trig(2 * seed, 2))
        v = project_velocity(spaces, random_trig(2 * seed + 1, 2))
        scale = velocity_h1(spaces, u) * velocity_h1(spaces, v) ** 2
        assert abs(b_case1(spaces, u, v, v)) <= 1e-10 * scale
        assert abs(b_case2(spaces, u, v, v)) <= 1e-10 * scale


def test_case3_skew_on_div_free(level):
    spaces = level(3)
    u = project_velocity(spaces, random_trig(31, 2))
    v = project_div_free(spaces,
                         project_velocity(spaces, random_trig(32, 2)))
    scale = velocity_h1(spaces, u) * velocity_h1(spaces, v) ** 2
    assert abs(b_case3(spaces, u, v, v)) <= 1e-10 * scale


def test_case1_matches_symmetrized_integrand(level):
    # the antisymmetric split equals the literal symmetrized quadrature
    # because the rule integrates the degree-11 integrands exactly
    spaces = level(2)
    u, v, w = (rand_coeffs(spaces, s) for s in (20, 21, 22))
    uv = velocity_values(spaces, u)
    vg = velocity_gradients(spaces, v)
    wv = velocity_values(spaces, w)
    ug = velocity_gradients(spaces, u)
    vv = velocity_values(spaces, v)
    divu = ug[..., 0, 0] + ug[..., 1, 1] + ug[..., 2, 2]
    literal = quad_integral(
        spaces, (np.einsum("eqc,eqic->eqi", uv, vg) * wv).sum(-1)
        + 0.5 * divu * (vv * wv).sum(-1))
    split = b_case1(spaces, u, v, w)
    scale = (velocity_h1(spaces, u) * velocity_h1(spaces, v)
             * velocity_h1(spaces, w))
    assert abs(split - literal) < 1e-12 * scale


U_CASE1 = TrigVector((P.sine((0, 1, 0)), P(), P()))
V_CASE1 = TrigVector((P(), P.sine((1, 0, 0)), P()))
W_CASE1 = TrigVector((P(), P.cosine((1, 0, 0)) * P.sine((0, 1, 0)), P()))


def test_case1_value_converges(level):
    target = BOX_VOLUME / 4.0  # integral of cos^2(x) sin^2(y)
    errs = []
    for n in (2, 3, 4):
        spaces = level(n)
        cu, cv, cw = (project_velocity(spaces, f)
                      for f in (U_CASE1, V_CASE1, W_CASE1))
        errs.append(abs(b_case1(spaces, cu, cv, cw) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1 * target


W_CASE2 = TrigVector((P.cosine((0, 1, 0)) * P.sine((1, 0, 0)), P(), P()))


def test_case2_value_converges(level):
    # curl(sin y, 0, 0) = (0, 0, -cos y); crossing with (0, sin x, 0)
    # gives (+cos y sin x, 0, 0), so the pairing tends to +volume/4
    target = BOX_VOLUME / 4.0
    errs = []
    for n in (2, 3, 4):
        spaces = level(n)
        cu, cv, cw = (project_velocity(spaces, f)
                      for f in (U_CASE1, V_CASE1, W_CASE2))
        errs.append(abs(b_case2(spaces, cu, cv, cw) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.1 * target


_GRAD_POT = TrigVector((P.sine((1, 1, 0)), P.cosine((0, 1, 1)), P()))
GRAD_FIELD = TrigVector((
    _GRAD_POT.components[0].diff(0) + _GRAD_POT.components[1].diff(0),
    _GRAD_POT.components[0].diff(1) + _GRAD_POT.components[1].diff(1),
    _GRAD_POT.components[0].diff(2) + _GRAD_POT.components[1].diff(2)))


def test_case2_vanishes_for_curl_free_advection(level):
    vf = random_trig(41, 1, norm=10.0)
    wf = random_trig(42, 1, norm=10.0)
    rels = []
    for n in (2, 3, 4):
        spaces = level(n)
        u = project_velocity(spaces, GRAD_FIELD)
        v = project_velocity(spaces, vf)
        w = project_velocity(spaces, wf)
        scale = (velocity_h1(spaces, u) * velocity_h1(spaces, v)
                 * velocity_h1(spaces, w))
        rels.append(abs(b_case2(spaces, u, v, w)) / scale)
    assert rels[0] > rels[1] > rels[2]
    assert rels[0] < 1e-3


def test_case3_reduces_to_case2_for_constant_product(level):
    spaces = level(2)
    n_s = spaces.n_scalar
    const = np.zeros(3 * n_s)
    for comp, val in enumerate((0.4, -1.2, 0.7)):
        const[comp * n_s:comp * n_s + spaces.mesh.n_vertices] = val
    w = rand_coeffs(spaces, 33)
    b2 = b_case2(spaces, const, const, w)
    b3 = b_case3(spaces, const, const, w)
    assert abs(b3 - b2) < 1e-12 * max(1.0, abs(b2))


def test_case3_gradient_term_against_direct_form(level):
    # difference case3 - case2 must match +1/2 (grad K(u.v), w) with the
    # gradient evaluated pointwise, not through integration by parts
    spaces = level(3)
    u = project_velocity(spaces, sine_shear())
    wfield = TrigVector((P(), P.cosine((0, 1, 0)), P()))
    w = project_velocity(spaces, wfield)
    delta = (b_case3(spaces, u, u, w) - b_case2(spaces, u, u, w))
    kh = bernoulli_projection(spaces, u, u)
    direct = 0.5 * quad_integral(
        spaces, (pressure_gradients(spaces, kh)
                 * velocity_values(spaces, w)).sum(-1))
    assert abs(delta - direct) < 1e-10 * max(1.0, abs(direct))


def test_case3_extra_term_vanishes_on_div_free_tests(level):
    spaces = level(3)
    u = project_velocity(spaces, random_trig(51, 2))
    v = project_velocity(spaces, random_trig(52, 2))
    w = project_div_free(spaces,
                         project_velocity(spaces, random_trig(53, 2)))
    b2 = b_case2(spaces, u, v, w)
    b3 = b_case3(spaces, u, v, w)
    assert abs(b3 - b2) < 1e-10 * max(1.0, abs(b2))


def test_cases_converge_to_common_value(level):
    uf = random_trig(21, 1, norm=10.0)
    wf = random_trig(33, 1, norm=10.0)
    spreads = []
    for n in (2, 3, 4):
        spaces = level(n)
        u = project_velocity(spaces, uf)
        w = project_div_free(spaces, project_velocity(spaces, wf))
        vals = [b_form(spaces, case, u, u, w) for case in (1, 2, 3)]
        spreads.append(max(vals) - min(vals))
    assert spreads[0] > spreads[1] > spreads[2]


def test_transport_matrix_antisymmetric(level, as_scipy):
    spaces = level(2)
    S = as_scipy(transport_matrix(spaces, rand_coeffs(spaces, 60)))
    asym = (S + S.T)
    assert np.abs(asym.toarray()).max() < 1e-14 * np.abs(S.toarray()).max()


def test_convection_rhs_two_level_combination(level):
    spaces = level(2)
    u = rand_coeffs(spaces, 61)
    n_full = convection_rhs(spaces, u)
    combo = 1.5 * n_full - 0.5 * n_full
    assert np.allclose(combo, n_full, rtol=0, atol=1e-14 * np.abs(n_full).max())


def test_estimate_constants(level):
    spaces = level(3)
    u = project_velocity(spaces, random_trig(71, 2))
    v = project_velocity(spaces, random_trig(72, 2))
    assert estimate_constants(spaces, 1, [(u, v, v)]) < 1e-12
    samples = [tuple(project_velocity(spaces, random_trig(80 + 3 * s + k, 2,
                                                          norm=10.0))
                     for k in range(3)) for s in range(4)]
    for case in (1, 2, 3):
        val = estimate_constants(spaces, case, samples)
        assert np.isfinite(val) and val > 0.0
    zero = np.zeros(3 * spaces.n_scalar)
    with pytest.raises(ValueError):
        estimate_constants(spaces, 1, [(zero, zero, zero)])


def test_estimate_constants_stable_under_refinement(level):
    # the measured quotient tightens toward its h-independent value;
    # spread over these very coarse levels stays under 60 percent of max
    vals = []
    for n in (2, 3, 4):
        spaces = level(n)
        samples = [tuple(project_velocity(spaces,
                                          random_trig(200 + 3 * s + k, 2,
                                                      norm=10.0))
                         for k in range(3)) for s in range(6)]
        vals.append(estimate_constants(spaces, 1, samples))
    assert (max(vals) - min(vals)) / max(vals) < 0.6


def test_project_div_free(level, vector_mass):
    for n in (3, 5):
        spaces = level(n)
        c = project_velocity(spaces, tg_like())
        d = project_div_free(spaces, c)
        assert divergence_norm(spaces, d) < 1e-10 * velocity_h1(spaces, d)
        again = project_div_free(spaces, d)
        assert np.abs(again - d).max() < 1e-10 * np.abs(d).max()
        # c - Pc is mass-orthogonal to every divergence-free field
        w = project_div_free(spaces, rand_coeffs(spaces, 5))
        assert abs(w @ (vector_mass(spaces) @ (c - d))) <= (
            1e-13 * velocity_l2(spaces, c) * velocity_l2(spaces, w))


def test_unknown_case_rejected(level):
    spaces = level(2)
    u = rand_coeffs(spaces, 90)
    with pytest.raises(ValueError):
        b_form(spaces, 4, u, u, u)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_convection_rhs_matches_the_two_step_formula(level, n):
    # every element matrix first, then each acting on its element's nodal
    # values: the per-type loop gives the same numbers bitwise
    spaces = level(n)
    u = rand_coeffs(spaces, n)
    nodal = _velocity_nodal(spaces, u)
    loc = _element_matrices(nodal, spaces.tables.transport)
    local = nodal @ loc.reshape(-1, N_LOCAL, N_LOCAL).transpose(0, 2, 1)
    want = _scatter(spaces.velocity.dofmap, local, spaces.n_scalar).ravel()
    assert np.array_equal(convection_rhs(spaces, u), want)
