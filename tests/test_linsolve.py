import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusns import checks, linsolve
from torusns.fespace import pressure_l2, project_velocity, velocity_l2
from torusns.forms import project_div_free
from torusns.linsolve import (AMPLIFICATION_LIMIT, RESIDUAL_REL_TOL,
                              LatticeSolver, LinearSolveError,
                              SaddleConstraints, SaddleSystem, _column_sums,
                              _guard)
from torusns.steppers import SchemeConfig, StepOperator, step_cn
from torusns.trig import sine_shear, tg_like


def make_operator(level, n, dt=0.125, nu=0.5):
    spaces = level(n)
    cfg = SchemeConfig(scheme="CN", case=1, nu=nu, T=dt, N=1)
    return spaces, StepOperator(spaces, cfg)


def solve(spaces, F, rhs_u):
    """The saddle system with shift-invariant velocity block F, solved by
    its lattice blocks."""
    constraints = SaddleConstraints(spaces)
    system = SaddleSystem(constraints, F)
    return system.solve(system.rhs(rhs_u),
                        solver=constraints.lattice_solver(system))


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
    # (SuperLU fails to factorize it): GMRES preconditioned by the step's
    # blocks finds no answer the guards accept
    spaces, op = make_operator(level, 2)
    rhs = np.random.default_rng(2).standard_normal(3 * spaces.n_scalar)
    zero = op.F0.pattern.matrix(np.zeros(op.F0.pattern.nnz))
    system = SaddleSystem(op.constraints, zero)
    with pytest.raises(LinearSolveError):
        system.solve(system.rhs(rhs), preconditioner=op.solver)


def test_column_stack_with_one_bad_column_raises(lu_solve):
    # nearly singular: the second pivot is 1.4e-17, so a right-hand side
    # off the range gets a solution of size 7.6e16 with a zero residual
    A = sp.csr_matrix(np.array([[0.1, 0.3], [0.3, 0.9]]))
    norm1 = _column_sums(A).max()
    good = np.array([[0.4, 0.1], [1.2, 0.3]])
    resid = _guard(A, norm1, lu_solve(A, good), good)
    assert np.all(resid <= 1e-11 * np.linalg.norm(good, axis=0))
    bad = np.column_stack([good, [1.0, 0.0]])
    with pytest.raises(LinearSolveError, match="residual"):
        _guard(A, norm1, lu_solve(A, bad), bad)


def test_zero_residual_blow_up_raises(lu_solve):
    # x = [0, 1e14] solves this exactly in floating point: only the
    # amplification |A||x| / |b| shows the tiny pivot
    A = sp.csr_matrix(np.diag([1.0, 1e-14]))
    b = np.array([0.0, 1.0])
    with pytest.raises(LinearSolveError, match="residual"):
        _guard(A, _column_sums(A).max(), lu_solve(A, b), b)


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


def step_systems(spaces, u, M, saddle_matrix):
    """Assembled matrix and right-hand side of the case-3 CN step (dt =
    1/128), the CNAB step and the divergence-free projection (vector mass
    M) at u."""
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 128, N=1))
    step, rhs = op.frozen_system(u, u)
    cnab = op.explicit_system
    projection = SaddleSystem(SaddleConstraints(spaces), M)
    return {"step": (saddle_matrix(step), rhs),
            "cnab": (saddle_matrix(cnab),
                     cnab.rhs(op.midpoint_rhs(cnab.F, u))),
            "projection": (saddle_matrix(projection),
                           projection.rhs(M @ u))}


def test_amplification_far_below_guard_limit(level, vector_mass, as_scipy,
                                             saddle_matrix, lu_solve):
    # |A|_1 |x|_1 / |b|_1 on real solves stays six decades below the
    # guard's 1e12 (measured at most 3.6e2, on the projection)
    spaces = level(3)
    u = project_velocity(spaces, tg_like())
    rng = np.random.default_rng(5)
    solves = [(A, b, lu_solve(A, b)) for A, b in step_systems(
        spaces, u, vector_mass(spaces), saddle_matrix).values()]
    ops = spaces.ops
    for solver in (ops.Ms_solver, ops.Mp_solver):
        b = rng.standard_normal((solver.matrix.shape[0], 3))
        solves.append((solver.matrix, b, solver.solve(b)))
    for A, b, x in solves:
        ratio = (spla.norm(as_scipy(A), 1)
                 * np.abs(x).sum(axis=0)
                 / np.abs(b).sum(axis=0))
        assert np.max(ratio) <= 1e6


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
def test_krylov_solve_matches_the_direct_solve(level, saddle_matrix,
                                               lu_solve, case, dt, nu):
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, case, dt, nu)
    A = saddle_matrix(system)
    direct = lu_solve(A, rhs)
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


def lattice_systems(spaces, M, saddle_matrix):
    """The four shift-invariant systems a run solves by lattice blocks
    (the projection's with vector mass M): name -> (block solver, its
    assembled matrix)."""
    ops = spaces.ops
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=1, nu=0.1,
                                           T=1 / 16, N=1))
    constraints = SaddleConstraints(spaces)
    projection = SaddleSystem(constraints, M)
    return {"step": (op.solver, saddle_matrix(op.explicit_system)),
            "projection": (constraints.lattice_solver(projection),
                           saddle_matrix(projection)),
            "M_s": (ops.Ms_solver, ops.M_s), "Mp": (ops.Mp_solver, ops.Mp)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_lattice_blocks_match_the_lu(level, vector_mass, saddle_matrix,
                                    lu_solve, n):
    # odd and even n: only an even n has an rfft Nyquist plane; one
    # right-hand side and a stack of three
    rng = np.random.default_rng(n)
    spaces = level(n)
    for name, (solver, A) in lattice_systems(
            spaces, vector_mass(spaces), saddle_matrix).items():
        for b in (rng.standard_normal(A.shape[0]),
                  rng.standard_normal((A.shape[0], 3))):
            want = lu_solve(A, b)
            x = solver.solve(b)
            assert x.shape == b.shape
            err = np.abs(x - want).max(axis=0)
            assert np.all(err <= 1e-12 * np.abs(want).max(axis=0)), name
            assert np.all(solver.residual
                          <= RESIDUAL_REL_TOL * np.linalg.norm(b, axis=0))


@pytest.mark.parametrize("name", ["step", "projection", "M_s", "Mp"])
def test_wrong_block_solve_is_rejected(level, vector_mass, saddle_matrix,
                                       monkeypatch, name):
    # an answer 1% off fails the residual guard, which raises: no other
    # solve replaces it
    spaces = level(3)
    solver, A = lattice_systems(spaces, vector_mass(spaces),
                                saddle_matrix)[name]
    b = np.random.default_rng(1).standard_normal(A.shape[0])
    solver.solve(b)
    apply = LatticeSolver._apply
    monkeypatch.setattr(LatticeSolver, "_apply",
                        lambda self, rhs: 1.01 * apply(self, rhs))
    with pytest.raises(LinearSolveError, match="residual"):
        solver.solve(b)


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

    def gmres(apply, b, y):
        return (b.copy() if answer == "preconditioner"
                else np.full_like(b, np.nan)), 1

    monkeypatch.setattr(linsolve, "_gmres", gmres)
    with pytest.raises(LinearSolveError, match="residual|finite"):
        op.solver.krylov_solve(system, rhs)
    with pytest.raises(LinearSolveError,
                       match="^GMRES, 1 of 60 vectors: (residual|solution)"):
        system.solve(rhs, preconditioner=op.solver)


@pytest.mark.parametrize("case, dt, nu", [(3, 1 / 128, 0.1),
                                          (1, 1 / 8, 0.01)])
def test_gmres_reaches_the_true_residual(level, saddle_matrix, lu_solve,
                                        case, dt, nu):
    # the answer of the preconditioned system meets KRYLOV_RTOL on its
    # own residual, and maps to the LU answer of the advected system
    op, system, rhs = frozen_step(level(3), case, dt, nu)

    def apply(y):
        return system @ op.solver._apply(y)
    y, used = linsolve._gmres(apply, rhs, None)
    assert 0 < used < linsolve.KRYLOV_MAX_ITERATIONS
    assert (np.linalg.norm(rhs - apply(y))
            <= linsolve.KRYLOV_RTOL * np.linalg.norm(rhs))
    direct = lu_solve(saddle_matrix(system), rhs)
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
        y, used = linsolve._gmres(apply, b, None)
    assert len(applied) == used == 1
    want = solver.solve(b)
    assert np.abs(solver._apply(y) - want).max() <= 1e-12 * np.abs(want).max()


def test_gmres_breakdown_divides_by_no_zero():
    # on 2 I and b = 3 e_0 the second Arnoldi vector is exactly 0
    b = np.zeros(5)
    b[0] = 3.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, used = linsolve._gmres(lambda v: 2.0 * v, b, None)
    assert np.array_equal(y, b / 2.0)
    assert used == 1


def test_short_gmres_cycles_are_rejected(level, monkeypatch):
    # this advected step takes 7 iterations in one cycle; a cycle of 2
    # vectors leaves a residual the guard rejects, and the system's solve
    # raises with the vectors used
    op, system, rhs = frozen_step(level(3), 1, 1 / 8, 0.01)
    monkeypatch.setattr(linsolve, "KRYLOV_MAX_ITERATIONS", 2)
    with pytest.raises(LinearSolveError,
                       match="^GMRES, 2 of 2 vectors: residual"):
        system.solve(rhs, preconditioner=op.solver)


def test_stagnating_gmres_answer_is_accepted_by_the_guards(level,
                                                           monkeypatch,
                                                           saddle_matrix,
                                                           lu_solve):
    # no residual estimate reaches KRYLOV_RTOL = 1e-17, so the cycle ends
    # on its last vector (no Arnoldi vector vanishes here), and the
    # guards pass that answer
    op, system, rhs = frozen_step(level(3), 1, 1 / 8, 0.01)
    direct = lu_solve(saddle_matrix(system), rhs)
    monkeypatch.setattr(linsolve, "KRYLOV_RTOL", 1e-17)
    gmres, applied = linsolve._gmres, []

    def counting(apply, b, y):
        return gmres(lambda v: applied.append(1) or apply(v), b, y)
    monkeypatch.setattr(linsolve, "_gmres", counting)
    sol = system.solve(rhs, preconditioner=op.solver)
    assert len(applied) == linsolve.KRYLOV_MAX_ITERATIONS
    assert np.abs(sol.x - direct).max() <= 1e-12 * np.abs(direct).max()


def test_norm1_matches_scipy(level, saddle_matrix):
    # a case-3 frozen system, a plain saddle system, and a matrix with
    # empty columns (first, inner and last)
    spaces = level(3)
    op, system, _ = frozen_step(spaces, 3, 1 / 128, 0.1)
    gappy = sp.csc_matrix(np.array([[0.0, 2.0, 0.0, -5.0, 0.0],
                                    [0.0, -3.0, 0.0, 0.5, 0.0]]))
    for matrix in (saddle_matrix(system), saddle_matrix(op.explicit_system),
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


def test_blockwise_residual_matches_the_assembled_one(level, saddle_matrix):
    # at a random (non-solution) x the residual is O(1), so the two
    # evaluation orders agree to roundoff relative to it
    spaces = level(3)
    op, system, rhs = frozen_step(spaces, 3, 1 / 128, 0.1)
    x = np.random.default_rng(11).standard_normal(rhs.size)
    want = (np.linalg.norm(saddle_matrix(system) @ x - rhs)
            / max(1.0, np.linalg.norm(rhs)))
    assert abs(system.residual(x, rhs) - want) <= 1e-13 * want


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", [1, 3])
def test_norm1_from_the_blocks(level, saddle_matrix, case, n):
    # |A|_1 from the constraint blocks' column sums and F's, against
    # scipy's on the assembled matrix, for a frozen and the CNAB system
    op, system, _ = frozen_step(level(n), case, 1 / 128, 0.1)
    for s in (system, op.explicit_system):
        want = spla.norm(saddle_matrix(s), 1)
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
