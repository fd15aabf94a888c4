import numpy as np
import pytest
import scipy.sparse as sp

from torusns.fespace import pressure_l2, project_velocity, velocity_l2
from torusns.forms import project_div_free
from torusns.linsolve import (LinearSolveError, SaddleSystem, solve_saddle)
from torusns.steppers import SchemeConfig, _Workspace
from torusns.trig import sine_shear


def make_workspace(level, n, dt=0.125, nu=0.5):
    spaces = level(n)
    cfg = SchemeConfig(scheme="CN", case=1, nu=nu, T=dt, N=1)
    return spaces, _Workspace(spaces, cfg)


def test_zero_rhs_gives_zero(level):
    spaces, ws = make_workspace(level, 2)
    system = ws.assemble(rhs_u=np.zeros(3 * spaces.n_scalar))
    sol = solve_saddle(system)
    assert np.abs(sol.x).max() == 0.0


def test_manufactured_solution_recovery(level):
    spaces, ws = make_workspace(level, 3)
    rng = np.random.default_rng(4)
    u_star = project_div_free(spaces,
                              rng.standard_normal(3 * spaces.n_scalar))
    p_star = rng.standard_normal(spaces.pressure.dim)
    p_star -= ((spaces.ops.int_p @ p_star) / (2 * np.pi) ** 3
               * np.ones(spaces.pressure.dim))
    system = ws.assemble(rhs_u=ws.F0 @ u_star - spaces.ops.B.T @ p_star)
    sol = solve_saddle(system)
    scale_u = max(1.0, np.abs(u_star).max())
    assert np.abs(sol["u"] - u_star).max() < 1e-10 * scale_u
    assert np.abs(sol["p"] - p_star).max() < 1e-9 * max(1.0,
                                                        np.abs(p_star).max())


def test_solution_is_discretely_divergence_free(level):
    from torusns.forms import divergence_norm
    spaces, ws = make_workspace(level, 2)
    rng = np.random.default_rng(9)
    system = ws.assemble(rhs_u=rng.standard_normal(3 * spaces.n_scalar))
    sol = solve_saddle(system)
    from torusns.fespace import velocity_h1
    assert divergence_norm(spaces, sol["u"]) \
        <= 1e-9 * velocity_h1(spaces, sol["u"])


def test_singular_matrix_aborts():
    bad = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(LinearSolveError):
        solve_saddle(SaddleSystem(matrix=bad, rhs=np.ones(2),
                                  slices={"u": slice(0, 2)}))


def test_stokes_pressure_decays_under_refinement(level):
    norms = []
    for n in (2, 3, 4):
        spaces = level(n)
        cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=0.125, N=1)
        ws = _Workspace(spaces, cfg)
        u0 = project_div_free(spaces,
                              project_velocity(spaces, sine_shear()))
        system = ws.assemble(rhs_u=ws.base_rhs_u(u0))  # viscous step only
        sol = solve_saddle(system)
        norms.append(pressure_l2(spaces, sol["p"])
                     / max(1e-300, velocity_l2(spaces, sol["u"])))
    assert norms[0] > norms[1] > norms[2] or max(norms) < 1e-10


def test_determinism(level):
    spaces, ws = make_workspace(level, 2)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(3 * spaces.n_scalar)
    a = solve_saddle(ws.assemble(rhs_u=rhs)).x
    b = solve_saddle(ws.assemble(rhs_u=rhs)).x
    assert np.array_equal(a, b)
