import gc
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from torusns import forms, linsolve
from torusns.cli import RunSpec, run_single
from torusns.fespace import (pressure_values, project_velocity, velocity_h1,
                             velocity_h1_semi, velocity_l2, velocity_values)
from torusns.forms import (b_form, convection_rhs, divergence_norm,
                           project_div_free, rotation_matrix,
                           transport_matrix)
from torusns.linsolve import LatticeSolver, LinearSolveError, SaddleSystem
from torusns.steppers import (ConfigError, SchemeConfig, StepOperator,
                              StepperError, check_coupling, run, step_cn,
                              step_cnab)
from torusns.trig import preset_field, random_trig, sine_shear, tg_like


def scale_of(spaces, traj):
    return max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)


def energy_residual(spaces, traj, m):
    cfg = traj.config
    z = traj.midpoints[m - 1]
    return (0.5 * (velocity_l2(spaces, traj.u[m]) ** 2
                   - velocity_l2(spaces, traj.u[m - 1]) ** 2)
            + cfg.nu * cfg.dt * velocity_h1_semi(spaces, z) ** 2)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="RK4")
    with pytest.raises(ConfigError):
        SchemeConfig(case=5)
    with pytest.raises(ConfigError):
        SchemeConfig(nu=-1.0)
    with pytest.raises(ConfigError):
        SchemeConfig(N=0)
    for bad in (dict(nu=np.inf), dict(T=np.inf), dict(T=np.nan),
                dict(picard_tol=0.0), dict(picard_tol=np.inf)):
        with pytest.raises(ConfigError):
            SchemeConfig(**bad)
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="CNAB", case=2)
    for c1 in (-1.0, 0.0):
        with pytest.raises(ConfigError):
            SchemeConfig(scheme="CNAB", c1=c1)
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="CNLE", C_cnle=0.0)
    cfg = SchemeConfig(T=2.0, N=8)
    assert cfg.dt == 0.25


# ---------------------------------------------------------------------------
# single steps and trajectories
# ---------------------------------------------------------------------------

def test_zero_datum_gives_zero_trajectory(level):
    spaces = level(2)
    for scheme in ("CN", "CNLE", "CNAB"):
        cfg = SchemeConfig(scheme=scheme, case=1, nu=0.3, T=0.5, N=4)
        traj = run(cfg, spaces, preset_field("zero"))
        assert np.abs(traj.u).max() == 0.0
        assert np.abs(traj.p).max() == 0.0


def test_cn_energy_identity_all_cases(cn_runs, level):
    spaces = level(3)
    for case, traj in cn_runs.items():
        tol = 10.0 * traj.config.picard_tol * scale_of(spaces, traj)
        for m in range(1, traj.n_steps + 1):
            assert abs(energy_residual(spaces, traj, m)) <= tol, \
                f"case {case}, step {m}"


def test_cn_case3_solves_the_case2_system(cn_runs):
    # the projected dynamic-pressure gradient of case 3 is absorbed by
    # the pressure: both cases make the same solves and differ only in p
    for name in ("u", "picard_iters", "residuals"):
        assert np.array_equal(getattr(cn_runs[3], name),
                              getattr(cn_runs[2], name)), name
    assert not np.array_equal(cn_runs[3].p, cn_runs[2].p)


def _coupled_case3_step(op, w, u_prev, as_scipy):
    """Reference: the case-3 frozen-advection step with the projected
    dynamic pressure kappa as an unknown.  Mp kappa = R (u + u_prev) / 2
    with (R z)_j = (psi_j, w.z), and -B^T kappa / 2 in the momentum rows;
    R is built densely from field samples."""
    spaces, ops = op.spaces, op.spaces.ops
    n_u, n_p = 3 * spaces.n_scalar, spaces.pressure.dim
    w_vals = velocity_values(spaces, w)
    psi = np.stack([pressure_values(spaces, e) for e in np.eye(n_p)])
    wphi = np.stack([(w_vals * velocity_values(spaces, e)).sum(-1)
                     for e in np.eye(n_u)])
    R = sp.csr_matrix(np.einsum("jeq,keq,q->jk", psi, wphi,
                                spaces.tables.w_phys))
    conv = as_scipy(rotation_matrix(spaces, w))
    B = as_scipy(ops.B)
    Cu = sp.kron(sp.identity(3), ops.int_s[None, :])
    mp = sp.csr_matrix(ops.int_p[:, None])
    A = sp.bmat([[as_scipy(op.F0) + 0.5 * conv, -B.T, -0.5 * B.T, Cu.T, None],
                 [B, None, None, None, mp],
                 [-0.5 * R, None, as_scipy(ops.Mp), None, None],
                 [Cu, None, None, None, None],
                 [None, mp.T, None, None, None]], format="csc")
    b = np.zeros(A.shape[0])
    b[:n_u] = op.midpoint_rhs(op.F0, u_prev) - 0.5 * (conv @ u_prev)
    b[n_u + n_p:n_u + 2 * n_p] = 0.5 * (R @ u_prev)
    x = spla.spsolve(A, b)
    return x[:n_u], x[n_u:n_u + n_p]


def test_case3_step_matches_the_coupled_kappa_system(level, as_scipy):
    # a tolerance this loose ends Picard after its first iterate, so the
    # step is one frozen-advection solve with w = u_prev
    spaces = level(2)
    cfg = SchemeConfig(scheme="CN", case=3, nu=0.1, T=0.25, N=1,
                       picard_tol=1e6)
    op = StepOperator(spaces, cfg)
    u_prev = project_div_free(spaces,
                              project_velocity(spaces, random_trig(5)))
    res = step_cn(op, u_prev)
    assert res.iterations == 1
    u_ref, p_ref = _coupled_case3_step(op, u_prev, u_prev, as_scipy)
    assert np.abs(res.u - u_ref).max() <= 1e-12 * np.abs(u_ref).max()
    assert np.abs(res.p - p_ref).max() <= 1e-12 * np.abs(p_ref).max()


def test_cn_energy_decreases(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    norms = [velocity_l2(spaces, traj.u[m]) for m in range(traj.n_steps + 1)]
    assert all(a >= b for a, b in zip(norms, norms[1:]))


def test_midpoint_self_convection_vanishes(cn_runs, level):
    spaces = level(3)
    for case in (1, 2):
        traj = cn_runs[case]
        z = traj.midpoints[2]
        scale = velocity_h1(spaces, z) ** 3
        assert abs(b_form(spaces, case, z, z, z)) <= 1e-10 * scale


def test_divergence_free_states(cn_runs, cnle_run, level):
    spaces = level(3)
    for traj in list(cn_runs.values()) + [cnle_run]:
        for m in range(traj.n_steps + 1):
            assert divergence_norm(spaces, traj.u[m]) \
                <= 1e-9 * max(1e-300, velocity_h1(spaces, traj.u[m]))


def test_cnle_energy_identity(cnle_run, level):
    spaces = level(3)
    tol = 1e-9 * scale_of(spaces, cnle_run)
    for m in range(1, cnle_run.n_steps + 1):
        assert abs(energy_residual(spaces, cnle_run, m)) <= tol


def test_two_level_schemes_start_with_cn(level):
    spaces = level(2)
    u0 = tg_like()
    a = run(SchemeConfig(scheme="CN", case=1, nu=0.2, T=0.125, N=1),
            spaces, u0)
    for scheme in ("CNLE", "CNAB"):
        b = run(SchemeConfig(scheme=scheme, case=1, nu=0.2, T=0.125, N=1),
                spaces, u0)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.p, b.p)


def test_extrapolated_advection_is_linear(level, as_scipy):
    spaces = level(2)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(3 * spaces.n_scalar)
    S1 = as_scipy(transport_matrix(spaces, u)).toarray()
    S2 = as_scipy(transport_matrix(spaces, 3.0 * u - u)).toarray()
    assert np.allclose(S2, 2.0 * S1, rtol=0, atol=1e-13 * np.abs(S1).max())


def test_cnab_two_level_weights(level, vector_mass, as_scipy):
    # with distinct history states the step solves its momentum equation
    #   M (u^m - u^{m-1}) / dt + nu A (u^m + u^{m-1}) / 2
    #     + 3/2 N(u^{m-1}) - 1/2 N(u^{m-2}) - B^T p = Cu^T alpha,
    # alpha the velocity-mean multipliers; swapped weights or a single
    # convection evaluation leave a defect of the size of the terms
    spaces = level(2)
    cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.3, T=0.5, N=4)
    u_prev = project_div_free(spaces, project_velocity(spaces, tg_like()))
    u_prev2 = project_div_free(spaces,
                               project_velocity(spaces, random_trig(5)))
    res = step_cnab(StepOperator(spaces, cfg), u_prev,
                    convection_rhs(spaces, u_prev2))
    assert np.array_equal(res.convection, convection_rhs(spaces, u_prev))
    ops = spaces.ops
    A = sp.kron(sp.identity(3), as_scipy(ops.A_s))
    terms = [vector_mass(spaces) @ (res.u - u_prev) / cfg.dt,
             0.5 * cfg.nu * (A @ (res.u + u_prev)),
             1.5 * convection_rhs(spaces, u_prev),
             -0.5 * convection_rhs(spaces, u_prev2),
             -(ops.B.T @ res.p)]
    defect = sum(terms)
    Cu_T = sp.kron(sp.identity(3), ops.int_s[:, None]).toarray()
    alpha = np.linalg.lstsq(Cu_T, defect, rcond=None)[0]
    scale = max(np.abs(t).max() for t in terms)
    assert np.abs(defect - Cu_T @ alpha).max() <= 1e-12 * scale


def test_cnab_builds_its_saddle_matrix_once(level, monkeypatch):
    # the CNAB matrix does not depend on the history: a run of twice the
    # steps at the same dt builds no more saddle matrices
    spaces = level(2)
    built = []
    init = SaddleSystem.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SaddleSystem, "__init__", spy)
    counts = []
    for N in (3, 6):
        built.clear()
        run(SchemeConfig(scheme="CNAB", case=1, nu=0.3, T=N / 8, N=N),
            spaces, tg_like())
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_cnab_assembles_each_convection_once(level, monkeypatch):
    # step m reuses N(u^{m-2}) from step m-1: an N-step run (the first
    # step is CN) assembles N(u^0), ..., N(u^{N-1}) once each
    spaces = level(2)
    calls = []
    assemble = forms.convection_rhs

    def spy(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(forms, "convection_rhs", spy)
    N = 6
    run(SchemeConfig(scheme="CNAB", case=1, nu=0.3, T=N / 8, N=N),
        spaces, tg_like())
    assert len(calls) == N


@pytest.mark.parametrize("scheme, case", [("CN", 1), ("CN", 3),
                                          ("CNLE", 1), ("CNAB", 1)])
def test_trajectory_makes_one_step_factorization(level, monkeypatch,
                                                 scheme, case):
    # the zero-advection system, that every Picard iterate and CNLE step
    # is preconditioned with, has its lattice blocks inverted once per
    # trajectory, and the projection of the datum its own: no other
    # saddle system is inverted, and nothing is factorized (no module of
    # the package imports scipy, test_api)
    spaces = level(2)
    inverted, init = [], LatticeSolver.__init__

    def spy(self, matrix, *args, **kwargs):
        inverted.append(type(matrix).__name__)
        init(self, matrix, *args, **kwargs)
    monkeypatch.setattr(LatticeSolver, "__init__", spy)
    traj = run(SchemeConfig(scheme=scheme, case=case, nu=0.3, T=0.5, N=4),
               spaces, tg_like())
    assert traj.picard_iters[0] > 1
    assert inverted.count("SaddleSystem") == 2


@pytest.mark.parametrize("seed", range(5))
def test_run_projects_the_datum_with_the_step_factor(level, tmp_path, seed):
    # the cn3-picard shape (n=5, dt = 1/128): a run solves its mass,
    # projection and step systems by lattice blocks, and factorizes none
    spec = RunSpec(n_cells=5, scheme="CN", case=3, T=1 / 128, steps=1,
                   datum="random-trig", seed=seed, with_local_energy=False)
    run_single(spec, tmp_path)
    with np.load(tmp_path / "trajectory.npz") as stored:
        start = stored["u"][0]
    spaces = level(5)
    want = project_div_free(spaces,
                            project_velocity(spaces, spec.datum_field()))
    assert np.abs(start - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("failure", ["blocks", "guard"])
def test_rejected_datum_projection_is_a_solver_failure(level, monkeypatch,
                                                       failure):
    # a saddle block solve of the projection whose answer is wrong, or
    # whose guard rejects it, ends the run before its first step, named
    # by the solve
    spaces = level(3)
    if failure == "blocks":
        apply = LatticeSolver._apply
        monkeypatch.setattr(LatticeSolver, "_apply", lambda self, rhs: (
            1.01 if isinstance(self.matrix, SaddleSystem) else 1.0)
            * apply(self, rhs))
    else:
        guard = linsolve._guard

        def reject(matrix, *args):
            if isinstance(matrix, SaddleSystem):
                raise LinearSolveError("rejected")
            return guard(matrix, *args)
        monkeypatch.setattr(linsolve, "_guard", reject)
    with pytest.raises(LinearSolveError,
                       match="^datum projection: (residual|rejected)"):
        run(SchemeConfig(scheme="CN", case=1, nu=0.1, T=1 / 16, N=1),
            spaces, tg_like())


def test_gmres_failure_is_a_step_failure(level, monkeypatch):
    # a GMRES answer the guards reject ends the run at its step; no other
    # solve replaces it
    spaces = level(3)
    cfg = SchemeConfig(scheme="CN", case=3, nu=0.1, T=1 / 16, N=2)

    def gmres(apply, b, y):
        raise LinearSolveError("rejected")
    monkeypatch.setattr(linsolve, "_gmres", gmres)
    with pytest.raises(StepperError, match="^step 1 failed: rejected$") as err:
        run(cfg, spaces, tg_like())
    assert err.value.step == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", [1, 3])
def test_frozen_system_matches_the_block_matrix(level, vector_mass,
                                                as_scipy, saddle_matrix,
                                                case, n):
    # the frozen system, applied and assembled, against the saddle
    # matrix built here from F0 + conv/2 by sp.bmat, at two advecting
    # fields; both iterates share the trajectory's constraint blocks and
    # the convection pattern's index arrays.  The right-hand side is
    # (2/dt) M u - F u, and within roundoff the split form
    # M u/dt - nu A u/2 - conv u/2
    spaces, dt, nu = level(n), 1 / 16, 0.1
    ops, velocity = spaces.ops, spaces.velocity
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=case, nu=nu,
                                           T=dt, N=1))
    M, A = vector_mass(spaces), sp.kron(sp.identity(3), as_scipy(ops.A_s))
    u_prev = project_div_free(spaces, project_velocity(spaces, tg_like()))
    pattern = velocity.block_pattern if case == 1 else velocity.vector_pattern
    Cu = sp.kron(sp.identity(3), ops.int_s[None, :])
    mp = sp.csc_matrix(ops.int_p[:, None])
    rng = np.random.default_rng(6)
    for seed in (4, 5):
        w = project_velocity(spaces, random_trig(seed))
        system, rhs = op.frozen_system(w, u_prev)
        conv = as_scipy(forms.convection_matrix(spaces, case, w))
        F = as_scipy(op.F0) + 0.5 * conv
        B = as_scipy(ops.B)
        want = sp.bmat([[F, -B.T, Cu.T, None],
                        [B, None, None, mp],
                        [Cu, None, None, None],
                        [None, mp.T, None, None]], format="csc")
        assert (saddle_matrix(system) != want).nnz == 0, seed
        x = rng.standard_normal(want.shape[1])
        assert (np.abs(system @ x - want @ x).max()
                <= 1e-14 * (abs(want) @ np.abs(x)).max()), seed
        rhs_u = (2.0 / dt) * (M @ u_prev) - F @ u_prev
        assert np.array_equal(rhs, np.concatenate(
            [rhs_u, np.zeros(want.shape[0] - rhs_u.size)]))
        split = (M @ u_prev / dt - 0.5 * nu * (A @ u_prev)
                 - 0.5 * (conv @ u_prev))
        assert (np.abs(rhs_u - split).max()
                <= 1e-13 * np.abs(split).max()), seed
        assert system.constraints is op.constraints
        for name in ("indices", "indptr"):
            assert np.shares_memory(getattr(system.F, name),
                                    getattr(pattern, name))


def test_frozen_system_holds_one_velocity_data_array(level):
    # a case-3 iterate sums its convection from the six blocks i != j
    # and adds F0 to half of it in place: its peak is the element
    # matrices, their slots cast for bincount (E x 150 each) and one
    # nnz-sized data array, under 4.5 arrays of the grid's nnz floats.
    # numpy reports its buffers to tracemalloc.
    spaces = level(6)
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 16, N=1))
    u_prev = project_velocity(spaces, tg_like())
    w = project_velocity(spaces, random_trig(7))
    op.frozen_system(w, u_prev)          # the per-type tensors, once
    tracemalloc.start()
    try:
        op.frozen_system(w, u_prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * spaces.velocity.vector_pattern.nnz


def test_steps_convert_no_sparse_format(level, monkeypatch):
    # once the step operator exists, a case-3 CN step (every Picard
    # iterate) and a CNAB step build no block, Kronecker or COO matrix
    spaces = level(2)
    u0 = project_div_free(spaces, project_velocity(spaces, tg_like()))
    cn = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=0.25, N=2))
    cnab = StepOperator(spaces, SchemeConfig(scheme="CNAB", case=1, nu=0.1,
                                             T=0.25, N=2))

    def forbidden(*args, **kwargs):
        raise AssertionError("sparse format conversion in a step")

    for name in ("bmat", "kron", "coo_matrix"):
        monkeypatch.setattr(sp, name, forbidden)
    res = step_cn(cn, u0)
    assert res.iterations > 1
    step_cnab(cnab, res.u, convection_rhs(spaces, u0))


def test_global_energy_telescopes(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    cfg = traj.config
    lhs = 0.5 * velocity_l2(spaces, traj.u[-1]) ** 2 + cfg.nu * cfg.dt * sum(
        velocity_h1_semi(spaces, traj.midpoints[m - 1]) ** 2
        for m in range(1, cfg.N + 1))
    rhs = 0.5 * velocity_l2(spaces, traj.u[0]) ** 2
    assert abs(lhs - rhs) <= cfg.N * 10 * cfg.picard_tol * scale_of(spaces,
                                                                    traj)


def test_determinism(level):
    spaces = level(2)
    cfg = SchemeConfig(scheme="CN", case=1, nu=0.2, T=0.5, N=4)
    a = run(cfg, spaces, tg_like())
    b = run(cfg, spaces, tg_like())
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.p, b.p)


def test_second_order_in_time(level):
    # fixed space, shrinking step: errors against a fine reference drop
    # by about four per halving
    spaces = level(2)
    u0 = sine_shear()
    ref = run(SchemeConfig(scheme="CN", case=1, nu=0.5, T=1.0, N=1024),
              spaces, u0)
    errs = [velocity_l2(spaces,
                        run(SchemeConfig(scheme="CN", case=1, nu=0.5,
                                         T=1.0, N=N),
                            spaces, u0).u[-1] - ref.u[-1])
            for N in (16, 32, 64)]
    for a, b in zip(errs, errs[1:]):
        assert 3.0 < a / b < 5.0


def test_picard_divergence_raises(level):
    spaces = level(3)
    cfg = SchemeConfig(scheme="CN", case=1, nu=1e-3, T=400.0, N=2,
                       picard_max_iters=12)
    with pytest.raises(StepperError) as err:
        run(cfg, spaces, tg_like())
    assert err.value.step == 1
    assert len(err.value.history) == 12


def test_picard_iteration_counts_recorded(cn_runs):
    traj = cn_runs[1]
    assert traj.picard_iters.min() >= 1
    assert np.all(traj.residuals >= 0.0)
    tol = traj.config.picard_tol
    assert traj.residuals.max() < 1e3 * tol


# ---------------------------------------------------------------------------
# step/mesh coupling report
# ---------------------------------------------------------------------------

def test_coupling_ratio_values():
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=0.001, N=1)
    rep = check_coupling(cfg, h=0.01, u0_norm=1.0)
    assert abs(rep.cn_ratio - 0.01) < 1e-12
    assert rep.cn_pass
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=1.0, N=1)
    rep = check_coupling(cfg, h=0.01, u0_norm=1.0)
    assert abs(rep.cn_ratio - 10.0) < 1e-12
    assert not rep.cn_pass


def test_cnle_flag_flips_at_threshold():
    # C small keeps the h^2 branch active; the bound is then nu h^2 / 16
    nu, h = 1.0, 1.0
    cfg = SchemeConfig(scheme="CNLE", case=1, nu=nu, T=1.0, N=16, C_cnle=0.1)
    rep = check_coupling(cfg, h=h, u0_norm=1.0)
    assert abs(rep.cnle_bound - nu * h ** 2 / 16.0) < 1e-15
    assert rep.cnle_pass  # dt = 1/16 exactly at the bound
    cfg = SchemeConfig(scheme="CNLE", case=1, nu=nu, T=1.0, N=15, C_cnle=0.1)
    assert not check_coupling(cfg, h=h, u0_norm=1.0).cnle_pass


def test_cnab_ratio_reported_raw():
    cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.1, T=1.0, N=10, c1=2.0)
    rep = check_coupling(cfg, h=0.5, u0_norm=1.0)
    assert abs(rep.ratio_dt_h3 - 0.1 / 0.125) < 1e-12
    assert abs(rep.bound_32nu - 1.0 / 3.2) < 1e-12
    assert rep.cnab_dt_pass  # dt = 0.1 <= 4 c1^2 / nu = 160
    assert set(asdict(rep)) >= {"cn_ratio", "cnle_bound", "ratio_dt_h3"}


@pytest.mark.parametrize("scheme, case", [("CN", 3), ("CNAB", 1)])
def test_run_leaves_no_cycle_garbage(tmp_path, scheme, case):
    # nothing of a run sits in a reference cycle: a full collection after
    # it finds no object of the package, so the saddle systems and their
    # block solvers were freed as soon as their holders were
    spec = RunSpec(n_cells=3, scheme=scheme, case=case, nu=0.1, T=1 / 32,
                   steps=4, datum="random-trig", seed=2)
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_single(spec, tmp_path)
        gc.collect()
        found = {type(o).__module__ + "." + type(o).__qualname__
                 for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not {name for name in found if name.startswith("torusns.")}


def test_projection_system_is_freed_on_return(level, monkeypatch):
    # with the collector off, only reference counts free: the projection's
    # system and its block solver are gone once project_div_free returns
    spaces = level(2)
    made = []
    init = SaddleSystem.__init__

    def spy(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(SaddleSystem, "__init__", spy)
    u = project_velocity(spaces, tg_like())
    gc.disable()
    try:
        project_div_free(spaces, u)
        alive = [ref() is not None for ref in made]
    finally:
        gc.enable()
    assert alive == [False]
