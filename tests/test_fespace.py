import numpy as np
import pytest
import scipy.linalg as sla

from torusns.checks import remove_mean
from torusns.fespace import (_gram_of_products, _weighted_scalar_matrix,
                             build_spaces, commutator_defect,
                             commutator_constant, inf_sup_constant,
                             inverse_constant, pressure_commutator_constant,
                             pressure_commutator_defect, pressure_l2,
                             pressure_mean, pressure_values,
                             project_pressure, project_velocity,
                             quad_integral, velocity_h1, velocity_h1_semi,
                             velocity_l2, velocity_mean, velocity_values)
from torusns.forms import divergence_norm
from torusns.mesh import build_torus_mesh
from torusns.trig import BOX_VOLUME, TrigPoly, sine_shear, tg_like


def test_norms_of_a_stack_match_row_by_row(level):
    spaces = level(3)
    rng = np.random.default_rng(9)
    U = rng.standard_normal((5, 3 * spaces.n_scalar))
    P = rng.standard_normal((4, spaces.pressure.dim))
    for norm, stack in ((velocity_l2, U), (velocity_h1_semi, U),
                        (velocity_h1, U), (divergence_norm, U),
                        (pressure_l2, P)):
        got = norm(spaces, stack)
        want = np.array([norm(spaces, row) for row in stack])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), norm


def test_project_zero_field(level):
    spaces = level(2)
    c = project_velocity(spaces, lambda pts: np.zeros(pts.shape))
    assert np.abs(c).max() == 0.0


def test_projection_idempotent_on_members(level):
    spaces = level(3)
    rng = np.random.default_rng(5)
    c = remove_mean(spaces, rng.standard_normal(3 * spaces.n_scalar))
    vals = velocity_values(spaces, c)
    again = project_velocity(spaces, lambda pts: vals)
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


def test_projection_orthogonality(level):
    spaces = level(3)
    from torusns.fespace import _scalar_load
    f = tg_like()
    c = project_velocity(spaces, f)
    vals = f.value(spaces.tables.quad_points)
    worst = 0.0
    for comp in range(3):
        load = _scalar_load(spaces, vals[:, :, comp])
        block = c[comp * spaces.n_scalar:(comp + 1) * spaces.n_scalar]
        resid = load - spaces.ops.M_s @ block
        worst = max(worst, np.abs(resid).max() / max(1e-300,
                                                     np.abs(load).max()))
    assert worst < 1e-10


def test_projection_is_contraction(level):
    spaces = level(3)
    for f in (sine_shear(), tg_like()):
        c = project_velocity(spaces, f)
        fnorm_sq = quad_integral(spaces,
                                 (f.value(spaces.tables.quad_points) ** 2
                                  ).sum(-1))
        assert velocity_l2(spaces, c) <= np.sqrt(fnorm_sq) + 1e-10


def test_zero_mean_of_projections(level):
    spaces = level(3)
    c = project_velocity(spaces, tg_like())
    assert np.abs(velocity_mean(spaces, c)).max() < 1e-10
    q = project_pressure(spaces, TrigPoly.cosine((1, 0, 0)))
    assert abs(pressure_mean(spaces, q)) < 1e-10


def test_pressure_projection(level):
    spaces = level(3)
    assert np.abs(project_pressure(spaces,
                                   lambda pts: np.zeros(pts.shape[:2]))).max() == 0.0
    # members reproduce themselves
    rng = np.random.default_rng(8)
    q = rng.standard_normal(spaces.pressure.dim)
    q -= spaces.ops.int_p @ q / BOX_VOLUME
    vals = pressure_values(spaces, q)
    again = project_pressure(spaces, lambda pts: vals)
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


def test_inf_sup_constant(level):
    vals = [inf_sup_constant(level(n)) for n in (2, 3, 4)]
    assert min(vals) > 0.1
    assert abs(vals[1] - vals[0]) / vals[0] < 0.5
    # the constant-pressure direction collapses the minimum
    assert inf_sup_constant(level(2), constrain_mean=False) < 1e-6


def test_inverse_constant(level):
    prods = [inverse_constant(level(n)) for n in (2, 3, 4)]
    assert (max(prods) - min(prods)) / max(prods) < 0.25
    ratio_2 = prods[0] / level(2).h
    ratio_4 = prods[2] / level(4).h
    assert 1.5 < ratio_4 / ratio_2 < 2.5


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


def _dense_commutator_constants(spaces, phi):
    """Reference: both constants from dense pencils and eigvalsh.  The
    pressure basis is the vertex part of the scalar velocity basis."""
    t = spaces.tables
    pv, pg = phi.value(t.quad_points), phi.grad(t.quad_points)
    W = _weighted_scalar_matrix(spaces, pv).toarray()
    W2 = _weighted_scalar_matrix(spaces, pv ** 2).toarray()
    V = _weighted_scalar_matrix(spaces, pv, grad_left=True, grad_right=True,
                                weight_grad=pg).toarray()
    G = _gram_of_products(spaces, pv, pg).toarray()
    M, A = spaces.ops.M_s.toarray(), spaces.ops.A_s.toarray()
    MW = np.linalg.solve(M, W.T)
    Q = W2 - W @ MW + G - V @ MW - MW.T @ V.T + MW.T @ A @ MW
    lam_v = sla.eigvalsh(0.5 * (Q + Q.T), spaces.h ** 2 * (M + A))[-1]
    nv = spaces.pressure.dim
    Mp = spaces.ops.Mp.toarray()
    Wp = W[:nv, :nv]
    Qp = W2[:nv, :nv] - Wp @ np.linalg.solve(Mp, Wp.T)
    lam_p = sla.eigvalsh(0.5 * (Qp + Qp.T), spaces.h ** 2 * Mp)[-1]
    return (np.sqrt(lam_v) / phi.wkinf_norm(2),
            np.sqrt(lam_p) / phi.wkinf_norm(1))


def test_commutator_constants_match_dense_reference(level):
    for n in (2, 3):
        spaces = level(n)
        ref_v, ref_p = _dense_commutator_constants(spaces, PHI)
        c_v = commutator_constant(spaces, PHI)
        c_p = pressure_commutator_constant(spaces, PHI)
        assert abs(c_v - ref_v) <= 1e-12 * ref_v
        assert abs(c_p - ref_p) <= 1e-12 * ref_p
        assert commutator_constant(spaces, PHI) == c_v
        assert pressure_commutator_constant(spaces, PHI) == c_p

