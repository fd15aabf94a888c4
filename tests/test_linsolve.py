import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusns import checks, linsolve
from torusns.fespace import (build_spaces, commutator_constant,
                             inf_sup_constant, inverse_constant,
                             pressure_commutator_constant, pressure_l2,
                             project_velocity, velocity_l2)
from torusns.forms import project_div_free
from torusns.linsolve import (AMPLIFICATION_LIMIT, RESIDUAL_REL_TOL,
                              Factorization, LatticeSolver, LinearSolveError,
                              SaddleConstraints, SaddleSystem, _column_sums,
                              _guard)
from torusns.mesh import build_torus_mesh
from torusns.steppers import SchemeConfig, StepOperator, run, step_cn
from torusns.trig import TrigPoly, sine_shear, tg_like


def make_operator(level, n, dt=0.125, nu=0.5):
    spaces = level(n)
    cfg = SchemeConfig(scheme="CN", case=1, nu=nu, T=dt, N=1)
    return spaces, StepOperator(spaces, cfg)


def assembled(system):
    """The assembled matrix of a saddle system, the input of its LU."""
    return system.constraints.assemble(system.F)


def solve(spaces, F, rhs_u):
    system = SaddleSystem(SaddleConstraints(spaces), F)
    return system.solve(system.rhs(rhs_u))


def test_zero_rhs_gives_zero(level):
    spaces, op = make_operator(level, 2)
    sol = solve(spaces, op.F0, np.zeros(3 * spaces.n_scalar))
    assert np.abs(sol.x).max() == 0.0


def test_manufactured_solution_recovery(level):
    spaces, op = make_operator(level, 3)
    rng = np.random.default_rng(4)
    u_star = project_div_free(spaces,
                              rng.standard_normal(3 * spaces.n_scalar))
    p_star = rng.standard_normal(spaces.pressure.dim)
    p_star -= ((spaces.ops.int_p @ p_star) / (2 * np.pi) ** 3
               * np.ones(spaces.pressure.dim))
    sol = solve(spaces, op.F0, op.F0 @ u_star - spaces.ops.B.T @ p_star)
    scale_u = max(1.0, np.abs(u_star).max())
    assert np.abs(sol["u"] - u_star).max() < 1e-10 * scale_u
    assert np.abs(sol["p"] - p_star).max() < 1e-9 * max(1.0,
                                                        np.abs(p_star).max())


def test_solution_is_discretely_divergence_free(level):
    from torusns.forms import divergence_norm
    spaces, op = make_operator(level, 2)
    rng = np.random.default_rng(9)
    sol = solve(spaces, op.F0, rng.standard_normal(3 * spaces.n_scalar))
    from torusns.fespace import velocity_h1
    assert divergence_norm(spaces, sol["u"]) \
        <= 1e-9 * velocity_h1(spaces, sol["u"])


def test_singular_matrix_aborts(level):
    # a zero velocity block leaves most velocity directions unconstrained
    spaces = level(2)
    n_u = 3 * spaces.n_scalar
    rhs = np.random.default_rng(2).standard_normal(n_u)
    with pytest.raises(LinearSolveError):
        solve(spaces, sp.csr_matrix((n_u, n_u)), rhs)


def test_column_stack_with_one_bad_column_raises():
    # nearly singular: the second pivot is 1.4e-17, so a right-hand side
    # off the range gets a solution of size 7.6e16 with a zero residual
    factor = Factorization(sp.csc_matrix(np.array([[0.1, 0.3], [0.3, 0.9]])))
    good = np.array([[0.4, 0.1], [1.2, 0.3]])
    factor.solve(good)
    assert np.all(factor.residual <= 1e-11 * np.linalg.norm(good, axis=0))
    with pytest.raises(LinearSolveError, match="residual"):
        factor.solve(np.column_stack([good, [1.0, 0.0]]))


def test_zero_residual_blow_up_raises():
    # x = [0, 1e14] solves this exactly in floating point: only the
    # amplification |A||x| / |b| shows the tiny pivot
    factor = Factorization(sp.csc_matrix(np.diag([1.0, 1e-14])))
    with pytest.raises(LinearSolveError, match="residual"):
        factor.solve(np.array([0.0, 1.0]))


def test_guard_judges_right_hand_sides_near_overflow():
    # |b|_2 of entries near 1e300 overflows if the entries are squared:
    # a wrong answer must still fail, and so must one whose product
    # overflows, which leaves a residual that is not a number
    A = sp.csr_matrix(1e300 * np.eye(3))
    x, b = np.ones(3), np.full(3, 1e300)
    _guard(A, 1e300, x, b)
    with np.errstate(over="ignore", invalid="ignore"):
        for wrong, rhs in ((0.5 * x, b), (1e10 * x, 1e8 * b)):
            with pytest.raises(LinearSolveError, match="residual"):
                _guard(A, 1e300, wrong, rhs)


def test_guard_takes_the_amplification_of_overflowing_norms():
    # |b|_1 and |A|_1 |x|_1 of entries near 1e308 both overflow, yet
    # x = b / 1e300 is exact; a wrong answer at that scale must still
    # fail, and so must a zero-residual answer whose amplification
    # overflows, without a warning
    A = sp.csr_matrix(1e300 * np.eye(3))
    b = np.full(3, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _guard(A, 1e300, b / 1e300, b)
        with pytest.raises(LinearSolveError, match="residual"):
            _guard(A, 1e300, 0.5 * b / 1e300, b)
        tiny_pivot = sp.csr_matrix(np.diag([1e300, 1e-300]))
        with pytest.raises(LinearSolveError, match=r"\|A\|\|x\|"):
            _guard(tiny_pivot, 1e300, np.array([0.0, 1e300]),
                   np.array([0.0, 1.0]))


def step_systems(spaces, u, M):
    """Matrix and right-hand side of the case-3 CN step (dt = 1/128),
    the CNAB step and the divergence-free projection (vector mass M) at
    u."""
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 128, N=1))
    step, rhs = op.frozen_system(u, u)
    cnab = op.explicit_system
    projection = SaddleSystem(SaddleConstraints(spaces), M)
    return {"step": (assembled(step), rhs),
            "cnab": (assembled(cnab),
                     cnab.rhs(op.midpoint_rhs(cnab.F, u))),
            "projection": (assembled(projection),
                           projection.rhs(M @ u))}


def test_amplification_far_below_guard_limit(level, vector_mass,
                                             as_scipy):
    # |A|_1 |x|_1 / |b|_1 on real solves stays six decades below the
    # guard's 1e12 (measured at most 3.6e2, on the projection)
    spaces = level(3)
    u = project_velocity(spaces, tg_like())
    rng = np.random.default_rng(5)
    solves = [(Factorization(A), b) for A, b in
              step_systems(spaces, u, vector_mass(spaces)).values()]
    ops = spaces.ops
    solves += [(lu, rng.standard_normal((lu.matrix.shape[0], 3)))
               for lu in (ops.Ms_solver, ops.Mp_solver)]
    for factor, b in solves:
        x = factor.solve(b)
        ratio = (spla.norm(as_scipy(factor.matrix), 1)
                 * np.abs(x).sum(axis=0)
                 / np.abs(b).sum(axis=0))
        assert np.max(ratio) <= 1e6


def test_step_factor_fill_is_small(level, vector_mass):
    # minimum degree on A^T + A: 33 627 entries in L + U, against
    # 283 176 with SuperLU's default COLAMD ordering
    spaces = level(3)
    A, _ = step_systems(spaces, project_velocity(spaces, tg_like()),
                        vector_mass(spaces))["step"]
    assert Factorization(A)._lu.nnz < 80_000


def test_every_factorization_goes_through_factorization(monkeypatch):
    callers = []
    splu = spla.splu

    def spy(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((type(frame.f_locals.get("self")).__name__,
                        frame.f_code.co_name))
        return splu(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", spy)
    spaces = build_spaces(build_torus_mesh(2))
    for scheme in ("CN", "CNLE", "CNAB"):
        run(SchemeConfig(scheme=scheme, case=1, nu=0.5, T=0.25, N=3),
            spaces, tg_like())
    project_div_free(spaces, np.random.default_rng(3).standard_normal(
        3 * spaces.n_scalar))
    phi = TrigPoly.constant(2.0) + TrigPoly.cosine((1, 0, 0))
    commutator_constant(spaces, phi)
    pressure_commutator_constant(spaces, phi)
    inverse_constant(spaces)
    inf_sup_constant(spaces)
    # the mass matrices, the runs' step systems and the projection are
    # solved by lattice blocks, and the four constants are eigenvalues of
    # lattice blocks: SuperLU is reached only from a failed guard or a
    # failed GMRES, and none fails here
    assert callers == []



def frozen_step(spaces, case, dt, nu):
    """A frozen-advection CN step at the projected vortex array, scaled
    to L2 norm 4: its operator, system and right-hand side."""
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=case, nu=nu,
                                           T=dt, N=1))
    u = project_div_free(spaces, project_velocity(spaces, tg_like()))
    u *= 4.0 / velocity_l2(spaces, u)
    system, rhs = op.frozen_system(u, u)
    return op, system, rhs


@pytest.mark.parametrize("case, dt, nu", [(3, 1 / 128, 0.1),
                                          (1, 1 / 8, 0.01)])
def test_krylov_solve_matches_the_direct_solve(level, case, dt, nu):
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, case, dt, nu)
    A = assembled(system)
    direct = Factorization(A).solve(rhs)
    x, resid = op.solver.krylov_solve(system, rhs)
    assert np.abs(x - direct).max() <= 1e-12 * np.abs(direct).max()
    # both guards, checked here rather than trusted: the residual is
    # that of the system's own product, and the assembled matrix's,
    # which differs from it by the roundoff of a product, passes too
    true_resid = np.linalg.norm(system @ x - rhs)
    assert abs(resid - true_resid) <= 1e-12 * true_resid
    tol = RESIDUAL_REL_TOL * np.linalg.norm(rhs)
    assert resid <= tol
    assert np.linalg.norm(A @ x - rhs) <= tol
    assert (spla.norm(A, 1) * np.abs(x).sum()
            <= AMPLIFICATION_LIMIT * np.abs(rhs).sum())


def lattice_systems(spaces, M):
    """The four shift-invariant systems a run solves by lattice blocks
    (the projection's with vector mass M): name -> (block solver, the
    matrix its LU would factorize)."""
    ops = spaces.ops
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=1, nu=0.1,
                                           T=1 / 16, N=1))
    constraints = SaddleConstraints(spaces)
    projection = SaddleSystem(constraints, M)
    return {"step": (op.solver, assembled(op.explicit_system)),
            "projection": (constraints.lattice_solver(projection),
                           assembled(projection)),
            "M_s": (ops.Ms_solver, ops.M_s), "Mp": (ops.Mp_solver, ops.Mp)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattice_blocks_match_the_lu(level, vector_mass, n):
    # odd and even n: only an even n has an rfft Nyquist plane; one
    # right-hand side and a stack of three
    rng = np.random.default_rng(n)
    spaces = level(n)
    for name, (solver, A) in lattice_systems(spaces,
                                             vector_mass(spaces)).items():
        for b in (rng.standard_normal(A.shape[0]),
                  rng.standard_normal((A.shape[0], 3))):
            want = Factorization(A).solve(b)
            x = solver.solve(b)
            assert x.shape == b.shape
            err = np.abs(x - want).max(axis=0)
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=0)), name
            assert np.all(solver.residual
                          <= RESIDUAL_REL_TOL * np.linalg.norm(b, axis=0))


@pytest.mark.parametrize("name", ["step", "projection", "M_s", "Mp"])
def test_wrong_block_solve_falls_back_to_the_lu(level, vector_mass,
                                                monkeypatch, as_scipy, name):
    spaces = level(3)
    solver, A = lattice_systems(spaces, vector_mass(spaces))[name]
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    want = Factorization(A).solve(b)
    apply = LatticeSolver._apply
    monkeypatch.setattr(LatticeSolver, "_apply",
                        lambda self, rhs: 1.01 * apply(self, rhs))
    with pytest.raises(LinearSolveError, match="residual"):
        _guard(A, spla.norm(as_scipy(A), 1), solver._apply(b), b)
    x = solver.solve(b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
    _guard(A, spla.norm(as_scipy(A), 1), x, b)
    assert solver.residual == solver.factor.residual


def test_warm_started_gmres_takes_fewer_iterations(level, monkeypatch):
    # from the answer of a system 1e-6 away, as a late Picard iterate's
    # is from the next, GMRES takes 4 iterations against 6 (one more
    # preconditioner application each, for the answer)
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, 3, 1 / 128, 0.1)
    u = project_div_free(spaces, project_velocity(spaces, tg_like()))
    u *= 4.0 / velocity_l2(spaces, u)         # frozen_step's state
    nearby, near_rhs = op.frozen_system((1 + 1e-6) * u, u)
    guess, _ = op.solver.krylov_solve(nearby, near_rhs)
    applied, apply = [], LatticeSolver._apply
    monkeypatch.setattr(LatticeSolver, "_apply",
                        lambda self, y: applied.append(1) or apply(self, y))
    cold, _ = op.solver.krylov_solve(system, rhs)
    n_cold = len(applied)
    warm, _ = op.solver.krylov_solve(system, rhs, x0=guess)
    assert len(applied) - n_cold < n_cold
    assert np.abs(warm - cold).max() <= 1e-12 * np.abs(cold).max()


@pytest.mark.parametrize("answer", ["preconditioner", "nan"])
def test_krylov_answer_failing_a_guard_is_never_returned(level, monkeypatch,
                                                         answer):
    # GMRES claims convergence with y = b, so x is the zero-advection
    # solution, whose residual in the advected system is large; or with
    # a non-finite y
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, 1, 1 / 8, 0.01)
    direct = system.factor.solve(rhs)

    def gmres(apply, b, y):
        return (b.copy() if answer == "preconditioner"
                else np.full_like(b, np.nan))

    monkeypatch.setattr(linsolve, "_gmres", gmres)
    with pytest.raises(LinearSolveError, match="residual|finite"):
        op.solver.krylov_solve(system, rhs)
    sol = system.solve(rhs, preconditioner=op.solver)
    assert np.array_equal(sol.x, direct)


@pytest.mark.parametrize("case, dt, nu", [(3, 1 / 128, 0.1),
                                          (1, 1 / 8, 0.01)])
def test_gmres_reaches_the_true_residual(level, case, dt, nu):
    # the answer of the preconditioned system meets KRYLOV_RTOL on its
    # own residual, and maps to the LU answer of the advected system
    op, system, rhs = frozen_step(level(3), case, dt, nu)

    def apply(y):
        return system @ op.solver._apply(y)
    y = linsolve._gmres(apply, rhs, None)
    assert (np.linalg.norm(rhs - apply(y))
            <= linsolve.KRYLOV_RTOL * np.linalg.norm(rhs))
    direct = system.factor.solve(rhs)
    x = op.solver._apply(y)
    assert np.abs(x - direct).max() <= 1e-12 * np.abs(direct).max()


@pytest.mark.parametrize("rhs", ["step", "pressure mean"])
def test_gmres_on_its_own_preconditioner_stops_at_once(level, rhs):
    # the zero-advection system preconditioned by its own block solver
    # is the identity within roundoff: one Arnoldi vector, one
    # application, and no other product.  On the pressure-mean row the
    # next Arnoldi vector vanishes below eps, the breakdown branch, which
    # must not divide by it
    spaces = level(3)
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=1, nu=0.1,
                                           T=1 / 128, N=1))
    system, solver = op.explicit_system, op.solver
    u = project_div_free(spaces, project_velocity(spaces, tg_like()))
    if rhs == "step":
        b = system.rhs(op.midpoint_rhs(system.F, u))
    else:
        b = np.zeros(system.shape[0])
        b[system.slices["beta"]] = 1.0
    applied = []

    def apply(y):
        applied.append(1)
        return system @ solver._apply(y)
    v = b / np.linalg.norm(b)
    w = apply(v)
    vanishing = (np.linalg.norm(w - (v @ w) * v)
                 <= np.finfo(float).eps * np.linalg.norm(w))
    assert vanishing == (rhs == "pressure mean")
    applied.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = linsolve._gmres(apply, b, None)
    assert len(applied) == 1
    want = solver.solve(b)
    assert np.abs(solver._apply(y) - want).max() <= 1e-12 * np.abs(want).max()


def test_gmres_breakdown_divides_by_no_zero():
    # on 2 I and b = 3 e_0 the second Arnoldi vector is exactly 0
    b = np.zeros(5)
    b[0] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = linsolve._gmres(lambda v: 2.0 * v, b, None)
    assert np.array_equal(y, b / 2.0)


def test_short_gmres_cycles_fall_back_to_the_lu(level, monkeypatch):
    # this advected step takes 7 iterations in one cycle; a cycle of 2
    # vectors leaves a residual the guard rejects, so the Krylov solve
    # raises, and the system's own solve gives its LU answer
    op, system, rhs = frozen_step(level(3), 1, 1 / 8, 0.01)
    direct = system.factor.solve(rhs)
    monkeypatch.setattr(linsolve, "KRYLOV_MAX_ITERATIONS", 2)
    with pytest.raises(LinearSolveError, match="residual"):
        op.solver.krylov_solve(system, rhs)
    sol = system.solve(rhs, preconditioner=op.solver)
    assert np.array_equal(sol.x, direct)


def test_stagnating_gmres_answer_is_accepted_by_the_guards(level,
                                                           monkeypatch):
    # no residual estimate reaches KRYLOV_RTOL = 1e-17, so the cycle ends
    # on its last vector (no Arnoldi vector vanishes here); the guards
    # pass that answer, and no solve falls back to an LU
    op, system, rhs = frozen_step(level(3), 1, 1 / 8, 0.01)
    direct = Factorization(assembled(system)).solve(rhs)
    monkeypatch.setattr(linsolve, "KRYLOV_RTOL", 1e-17)
    gmres, applied = linsolve._gmres, []

    def counting(apply, b, y):
        return gmres(lambda v: applied.append(1) or apply(v), b, y)
    monkeypatch.setattr(linsolve, "_gmres", counting)
    factorized, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs:
                        factorized.append(1) or splu(*args, **kwargs))
    sol = system.solve(rhs, preconditioner=op.solver)
    assert len(applied) == linsolve.KRYLOV_MAX_ITERATIONS
    assert factorized == []
    assert np.abs(sol.x - direct).max() <= 1e-12 * np.abs(direct).max()


def test_norm1_matches_scipy(level):
    # a case-3 frozen system, a plain saddle system, and a matrix with
    # empty columns (first, inner and last)
    spaces = level(3)
    op, system, _ = frozen_step(spaces, 3, 1 / 128, 0.1)
    gappy = sp.csc_matrix(np.array([[0.0, 2.0, 0.0, -5.0, 0.0],
                                    [0.0, -3.0, 0.0, 0.5, 0.0]]))
    for matrix in (assembled(system), assembled(op.explicit_system),
                   gappy):
        want = spla.norm(matrix, 1)
        assert (abs(_column_sums(matrix.tocsr()).max() - want)
                <= 1e-14 * want)
    assert np.array_equal(_column_sums(gappy.tocsr()),
                          [0.0, 5.0, 0.0, 5.5, 0.0])
    assert _column_sums(sp.csc_matrix((3, 3)).tocsr()).max() == 0.0


def test_case3_step_calls_no_scipy_norm(level, monkeypatch):
    # the guards of every Picard iterate take |A|_1 from the CSR arrays
    spaces = level(2)
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 128, N=1))
    u0 = project_div_free(spaces, project_velocity(spaces, tg_like()))
    calls = []
    norm = spla.norm

    def counted(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)
    monkeypatch.setattr(spla, "norm", counted)
    assert step_cn(op, u0).iterations > 1
    assert calls == []


def test_blockwise_residual_matches_the_assembled_one(level):
    # at a random (non-solution) x the residual is O(1), so the two
    # evaluation orders agree to roundoff relative to it
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, 3, 1 / 128, 0.1)
    x = np.random.default_rng(11).standard_normal(rhs.size)
    want = (np.linalg.norm(assembled(system) @ x - rhs)
            / max(1.0, np.linalg.norm(rhs)))
    assert abs(system.residual(x, rhs) - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", [1, 3])
def test_norm1_from_the_blocks(level, case, n):
    # |A|_1 from the constraint blocks' column sums and F's, against
    # scipy's on the assembled matrix, for a frozen and the CNAB system
    op, system, _ = frozen_step(level(n), case, 1 / 128, 0.1)
    for s in (system, op.explicit_system):
        want = spla.norm(assembled(s), 1)
        assert abs(s.norm1 - want) <= 1e-14 * want


def inflate_column_sums(constraints):
    """The constraint column sums one part in 1e9 too large."""
    constraints.column_sums *= 1.0 + 1e-9


def drop_velocity_means(constraints):
    """The applied constraint blocks without their velocity-mean rows."""
    apply = constraints.apply

    def dropped(F, x):
        y = apply(F, x)
        y[constraints.slices["alpha"]] = 0.0
        return y

    constraints.apply = dropped


@pytest.mark.parametrize("corrupt", [inflate_column_sums,
                                     drop_velocity_means])
def test_saddle_apply_check_fails_on_corrupted_constraints(level, monkeypatch,
                                                           corrupt):
    spaces = level(2)
    assert checks._saddle_apply(spaces).passed
    init = SaddleConstraints.__init__

    def corrupted(self, spaces):
        init(self, spaces)
        corrupt(self)

    monkeypatch.setattr(SaddleConstraints, "__init__", corrupted)
    assert not checks._saddle_apply(spaces).passed


def test_stokes_pressure_decays_under_refinement(level):
    norms = []
    for n in (2, 3, 4):
        spaces = level(n)
        cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=0.125, N=1)
        op = StepOperator(spaces, cfg)
        u0 = project_div_free(spaces,
                              project_velocity(spaces, sine_shear()))
        # viscous step only
        sol = solve(spaces, op.F0, op.midpoint_rhs(op.F0, u0))
        norms.append(pressure_l2(spaces, sol["p"])
                     / max(1e-300, velocity_l2(spaces, sol["u"])))
    assert norms[0] > norms[1] > norms[2] or max(norms) < 1e-10


def test_determinism(level):
    spaces, op = make_operator(level, 2)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal(3 * spaces.n_scalar)
    a = solve(spaces, op.F0, rhs).x
    b = solve(spaces, op.F0, rhs).x
    assert np.array_equal(a, b)
