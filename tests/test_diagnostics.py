import json
import sys
import tracemalloc

import numpy as np
import pytest

import torusns.cli
import torusns.diagnostics
import torusns.fespace
from torusns import checks
from torusns.cli import RunSpec
from torusns.diagnostics import (BLOCK, SpaceTimeTest, TimeBump,
                                 _balance_matrices, _flux_and_l3,
                                 build_report, cnab_first_step_check,
                                 cnab_monitor, default_test_family,
                                 energy_residuals, global_energy_defect,
                                 local_energy_residuals, pressure_ratios)
from torusns.fespace import (ROWS, _product_table, _weighted_matrix,
                             field_values, pressure_l2, pressure_values,
                             quad_integral, velocity_gradients,
                             velocity_h1_semi, velocity_l2, velocity_values)
from torusns.forms import divergence_norm
from torusns.interpolants import trajectory_norms
from torusns.steppers import DiscreteTrajectory, SchemeConfig, run
from torusns.trig import TrigPoly, preset_field, tg_like

GAUSS_X = 0.5 * (1.0 + np.array([-np.sqrt(0.6), 0.0, np.sqrt(0.6)]))
GAUSS_W = 0.5 * np.array([5.0, 8.0, 5.0]) / 9.0


@pytest.fixture(scope="module")
def zero_run(level):
    spaces = level(2)
    cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.3, T=0.5, N=4, c1=1.0)
    return run(cfg, spaces, preset_field("zero"))


def test_zero_trajectory_metrics(zero_run, level):
    spaces = level(2)
    cfg = zero_run.config
    norms = trajectory_norms(zero_run, spaces)
    assert np.abs(energy_residuals(norms, cfg)).max() == 0.0
    assert global_energy_defect(norms, cfg) == 0.0
    tests = default_test_family(cfg.T)
    local, l3 = local_energy_residuals(zero_run, spaces, tests)
    assert np.abs(local).max() == 0.0 and np.abs(l3).max() == 0.0
    assert np.abs(pressure_ratios(norms, l3)).max() == 0.0
    mon = cnab_monitor(norms, cfg)
    assert mon.monotone and mon.weighted_ok
    assert np.abs(mon.xi).max() == 0.0
    chk = cnab_first_step_check(norms, cfg, spaces.h)
    assert chk.value == 0.0


def test_cn_energy_residuals_small(cn_runs, level):
    spaces = level(3)
    for traj in cn_runs.values():
        res = energy_residuals(trajectory_norms(traj, spaces), traj.config)
        scale = max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
        assert np.abs(res).max() <= 10 * traj.config.picard_tol * scale


def test_cnab_residuals_are_reported_raw(level):
    spaces = level(3)
    cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.1, T=0.5, N=8)
    traj = run(cfg, spaces, tg_like())
    res = energy_residuals(trajectory_norms(traj, spaces), cfg)
    assert np.all(np.isfinite(res))
    assert np.abs(res).max() > 1e-8  # no balance identity for this scheme


def test_global_defect_signs(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    cfg = traj.config
    norms = trajectory_norms(traj, spaces)
    scale = max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
    assert abs(global_energy_defect(norms, cfg)) \
        <= cfg.N * 10 * cfg.picard_tol * scale
    # against the smooth datum's analytic energy the balance holds with
    # slack: the projection only removes energy
    analytic = tg_like().l2_norm_sq()
    assert global_energy_defect(norms, cfg, analytic) < 0.0


def test_pressure_ratios_bounded_across_levels(level):
    worst = 0.0
    for n in (2, 3, 4):
        spaces = level(n)
        cfg = SchemeConfig(scheme="CN", case=1, nu=0.1, T=0.5, N=8)
        traj = run(cfg, spaces, tg_like())
        l3 = local_energy_residuals(traj, spaces, [])[1]
        worst = max(worst,
                    pressure_ratios(trajectory_norms(traj, spaces), l3).max())
    assert worst < 0.5


def test_pressure_ratios_vanish_for_shear(shear_study):
    for n, spaces, traj, report in shear_study:
        assert report.pressure_ratio_max < 1e-10


def test_local_energy_constant_factor_reduction(cn_runs, level):
    # a spatially constant test function reduces the localized balance
    # to the time-weighted global one; recompute that independently
    spaces = level(3)
    traj = cn_runs[1]
    cfg = traj.config
    bump = TimeBump(cfg.T, 2)
    test = SpaceTimeTest("const", TrigPoly.constant(1.0), bump)
    got = local_energy_residuals(traj, spaces, [test])[0][0]
    indep = 0.0
    for m in range(1, cfg.N + 1):
        t_nodes = (m - 1 + GAUSS_X) * cfg.dt
        int_eta = cfg.dt * GAUSS_W @ bump.value(t_nodes)
        int_deta = cfg.dt * GAUSS_W @ bump.dvalue(t_nodes)
        z = traj.midpoints[m - 1]
        indep += (0.5 * velocity_l2(spaces, z) ** 2 * int_deta
                  - cfg.nu * velocity_h1_semi(spaces, z) ** 2 * int_eta)
    assert abs(got - indep) < 1e-9 * max(1.0, abs(indep))


def local_energy_reference(traj, spaces, pts, tests):
    """The localized balance integrated one test and one step at a time."""
    cfg = traj.config
    out = np.zeros(len(tests))
    for m in range(1, cfg.N + 1):
        t_nodes = (m - 1 + GAUSS_X) * cfg.dt
        z = traj.midpoints[m - 1]
        zv = velocity_values(spaces, z)
        zg = velocity_gradients(spaces, z)
        pv = pressure_values(spaces, traj.p[m - 1])
        ke = 0.5 * (zv ** 2).sum(-1)
        gradsq = (zg ** 2).sum((-1, -2))
        for i, test in enumerate(tests):
            int_eta = cfg.dt * GAUSS_W @ test.eta.value(t_nodes)
            int_deta = cfg.dt * GAUSS_W @ test.eta.dvalue(t_nodes)
            psi_v = test.psi.value(pts)
            psi_lap = test.psi.laplacian().value(pts)
            flux = ((ke + pv)[..., None] * zv
                    * test.psi.gradient().value(pts)).sum(-1)
            rhs_t = quad_integral(spaces, ke * psi_v) * int_deta
            rhs_x = (cfg.nu * quad_integral(spaces, ke * psi_lap)
                     + quad_integral(spaces, flux)) * int_eta
            lhs = cfg.nu * quad_integral(spaces, gradsq * psi_v) * int_eta
            out[i] += rhs_t + rhs_x - lhs
    return out


@pytest.mark.parametrize("which", ["cn_case1", "cn_case3", "cnab_stable"])
def test_local_energy_matches_per_test_loop(which, cn_runs, cnab_runs,
                                            level, quad_points):
    # case 3's pressure is the one after the Bernoulli fold (it absorbs
    # -K(u.u)/2), so its p u.grad(phi) flux differs from case 1's
    spaces = level(3)
    traj = {"cn_case1": cn_runs[1], "cn_case3": cn_runs[3],
            "cnab_stable": cnab_runs["stable"]}[which]
    tests = default_test_family(traj.config.T)
    got = local_energy_residuals(traj, spaces, tests)[0]
    want = local_energy_reference(traj, spaces, quad_points(spaces), tests)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def per_midpoint_flux_and_l3(spaces, u, p, psis):
    """The flux and L3 one midpoint at a time over all elements, from
    E-major samples (the loop the blocked one replaced)."""
    w = spaces.tables.w_phys
    grad_w = np.stack([(field_values(spaces, psi.gradient())
                        * w[:, None]).ravel() for psi in psis])
    N = len(u) - 1
    flux, l3 = np.empty((len(psis), N)), np.empty(N)
    for m in range(1, N + 1):
        zv = velocity_values(spaces, 0.5 * (u[m] + u[m - 1]))
        speed_sq = (zv ** 2).sum(-1)
        l3[m - 1] = quad_integral(spaces,
                                  speed_sq * np.sqrt(speed_sq)) ** (1 / 3)
        pv = pressure_values(spaces, p[m - 1])
        flux[:, m - 1] = grad_w @ (zv * (0.5 * speed_sq + pv)[..., None]
                                   ).ravel()
    return flux, l3


def random_trajectory(spaces, N, seed=0):
    """N steps of random states and pressures over T = 1."""
    rng = np.random.default_rng(seed)
    cfg = SchemeConfig(scheme="CN", case=1, nu=0.1, T=1.0, N=N)
    return DiscreteTrajectory(
        config=cfg, times=cfg.dt * np.arange(N + 1),
        u=rng.standard_normal((N + 1, 3 * spaces.n_scalar)),
        p=rng.standard_normal((N, spaces.pressure.dim)),
        picard_iters=np.ones(N, dtype=int), residuals=np.zeros(N))


def whole_stack_form(matrix, stack, n):
    """Sum over the length-n blocks c of each row of c . (matrix c), with
    one sparse product for the whole stack."""
    blocks = stack.reshape(-1, n)
    images = np.ascontiguousarray((matrix @ blocks.T).T)
    return np.vecdot(blocks, images).reshape(len(stack), -1).sum(-1)


@pytest.mark.parametrize("N", [1, ROWS, ROWS + 1, 2 * ROWS + 1])
def test_blocked_passes_match_the_whole_stacks(level, N):
    # one partial block, one full one, a full one and a tail of one, two
    # full ones and a tail of one
    spaces = level(3)
    traj = random_trajectory(spaces, N)
    u, p, n_s, ops = traj.u, traj.p, spaces.n_scalar, spaces.ops
    mids = 0.5 * (u[1:] + u[:-1])

    def norm(matrix, stack):
        return np.sqrt(np.maximum(0.0, whole_stack_form(matrix, stack, n_s)))

    norms = trajectory_norms(traj, spaces)
    assert np.array_equal(norms.midpoint_l2, norm(ops.M_s, mids))
    assert np.array_equal(norms.midpoint_h1_semi, norm(ops.A_s, mids))
    assert np.array_equal(norms.increment_l2,
                          norm(ops.M_s, np.diff(u, axis=0)))
    r = ops.B @ u.T
    s = ops.Mp_solver.solve(r)
    assert np.array_equal(
        divergence_norm(spaces, u),
        np.sqrt(np.maximum(0.0, np.vecdot(np.ascontiguousarray(r.T),
                                          np.ascontiguousarray(s.T)))))
    tests = default_test_family(traj.config.T)
    got = local_energy_residuals(traj, spaces, tests)[0]
    dt, nu = traj.config.dt, traj.config.nu
    t_nodes = (np.arange(N)[:, None] + GAUSS_X) * dt
    want = np.empty(len(tests))
    for i, test in enumerate(tests):
        K_t, K_x = _balance_matrices(spaces, nu, test.psi)
        flux = _flux_and_l3(spaces, u, p, [test.psi])[0][0]
        want[i] = (whole_stack_form(K_t, mids, n_s)
                   @ (dt * test.eta.dvalue(t_nodes) @ GAUSS_W)
                   + (whole_stack_form(K_x, mids, n_s) + flux)
                   @ (dt * test.eta.value(t_nodes) @ GAUSS_W))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_report_memory_does_not_grow_with_the_steps(level):
    # no pass of the report holds a whole-trajectory stack: from 8 to 128
    # steps its traced peak may grow by 8 states at most (numpy reports
    # its buffers to tracemalloc; the trajectory itself is made before)
    spaces = level(4)
    peaks = []
    for N in (8, 128):
        traj = random_trajectory(spaces, N)
        tracemalloc.start()
        try:
            build_report(traj, spaces)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * 8 * 3 * spaces.n_scalar


@pytest.mark.parametrize("N", [1, 6, 7, 13])
def test_blocked_flux_matches_the_per_midpoint_loop(level, N):
    # with BLOCK = 2: one partial block, three full ones, three full ones
    # and a tail of one, six full ones and a tail of one
    spaces = level(3)
    rng = np.random.default_rng(N)
    u = rng.standard_normal((N + 1, 3 * spaces.n_scalar))
    p = rng.standard_normal((N, spaces.pressure.dim))
    psis = list(dict.fromkeys(t.psi for t in default_test_family(1.0)))
    flux, l3 = _flux_and_l3(spaces, u, p, psis)
    want_flux, want_l3 = per_midpoint_flux_and_l3(spaces, u, p, psis)
    assert flux.shape == want_flux.shape and l3.shape == want_l3.shape
    assert np.abs(flux - want_flux).max() <= 1e-13 * np.abs(want_flux).max()
    assert np.abs(l3 - want_l3).max() <= 1e-13 * want_l3.max()
    # the constant factor has no gradient block: its flux is exactly 0
    assert not any(c.modes for c in psis[0].gradient().components)
    assert np.all(flux[0] == 0.0)


def test_flux_holds_one_types_gradient_table(level):
    # the psi-gradient table of one Kuhn type at a time, beside one block's
    # samples of that type: the tables of all six types alone would be 7
    # (E, Q) float64 arrays.  numpy reports its buffers to tracemalloc.
    spaces = level(6)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((BLOCK + 2, 3 * spaces.n_scalar))
    p = rng.standard_normal((BLOCK + 1, spaces.pressure.dim))
    psis = list(dict.fromkeys(t.psi for t in default_test_family(1.0)))
    tracemalloc.start()
    try:
        _flux_and_l3(spaces, u, p, psis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one_sample_array = 8 * spaces.mesh.n_tets * spaces.tables.w_phys.size
    assert peak < 9 * one_sample_array


@pytest.mark.parametrize("drop", [(0, 0), (5, -1)])
def test_flux_check_fails_on_a_dropped_gradient_block(level, monkeypatch,
                                                      drop):
    # (type, block): the first block of the first type, the last of the last
    spaces = level(2)
    assert checks._local_energy_flux(spaces).passed
    table = torusns.diagnostics._flux_gradient_table

    def dropped(spaces, psis, k):
        blocks = table(spaces, psis, k)
        if k == drop[0]:
            del blocks[drop[1]]
        return blocks
    monkeypatch.setattr(torusns.diagnostics, "_flux_gradient_table", dropped)
    assert not checks._local_energy_flux(spaces).passed


def test_empty_test_family(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    local, l3 = local_energy_residuals(traj, spaces, [])
    assert local.shape == (0,)
    _, l3_full = local_energy_residuals(
        traj, spaces, default_test_family(traj.config.T))
    assert l3.shape == (traj.n_steps,) and np.array_equal(l3, l3_full)


def test_empty_family_assembles_nothing(cn_runs, level, monkeypatch):
    # only the L3 loop runs: no product table, no assembled matrix
    spaces = level(3)
    calls = []

    def spy(fn):
        def wrapped(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapped
    monkeypatch.setattr(torusns.diagnostics, "_product_table",
                        spy(torusns.fespace._product_table))
    monkeypatch.setattr(torusns.fespace._Pattern, "assemble",
                        spy(torusns.fespace._Pattern.assemble))
    local_energy_residuals(cn_runs[1], spaces, [])
    assert calls == []
    local_energy_residuals(cn_runs[1], spaces,
                           default_test_family(cn_runs[1].config.T)[:2])
    assert "_product_table" in calls and "assemble" in calls


def test_pressure_ratios_match_reference(cn_runs, level):
    # |u^{m,1/2}|_3 from its own samples and the rule's weights
    spaces = level(3)
    w = spaces.tables.w_phys
    for traj in cn_runs.values():
        want = np.empty(traj.n_steps)
        for m in range(1, traj.n_steps + 1):
            z = traj.midpoints[m - 1]
            speed = np.linalg.norm(velocity_values(spaces, z), axis=-1)
            l3 = (speed ** 3 @ w).sum() ** (1.0 / 3.0)
            h1 = np.hypot(velocity_l2(spaces, z), velocity_h1_semi(spaces, z))
            want[m - 1] = (pressure_l2(spaces, traj.p[m - 1])
                           / (h1 + l3 * h1))
        got = pressure_ratios(trajectory_norms(traj, spaces),
                              local_energy_residuals(traj, spaces, [])[1])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


NORMS = (velocity_l2, velocity_h1_semi, pressure_l2)


def report_norm_calls(N):
    """The norm calls of `trajectory_norms` on N steps: one stacked call for
    the states and one for the pressures, one per block of ROWS steps for
    the midpoints and for the increments."""
    blocks = -(-N // ROWS)
    return {"velocity_l2": 1 + 2 * blocks, "velocity_h1_semi": 1 + blocks,
            "pressure_l2": 1}


def count_calls(monkeypatch, fns, rows=None):
    """Per-name counts of the calls to `fns`, and in `rows` (if given) of
    the vectors they were handed: every torusns module that binds one of
    them gets the counting one."""
    calls = {}
    for fn in fns:
        def counted(*args, fn=fn):
            calls[fn.__name__] += 1
            if rows is not None:
                rows[fn.__name__] += int(np.prod(np.shape(args[1])[:-1]))
            return fn(*args)
        calls[fn.__name__] = 0
        for mod in list(sys.modules.values()):
            if (mod.__name__.startswith("torusns")
                    and getattr(mod, fn.__name__, None) is fn):
                monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("with_local_energy", [True, False])
def test_report_evaluates_each_midpoint_once(cn_runs, cnab_runs, level,
                                             monkeypatch, with_local_energy):
    # ... and each norm family's rows once, with or without the CNAB
    # monitors: the states and pressures in one stacked call, the
    # midpoints and increments in ceil(N / ROWS) blocks; the local energy
    # balance samples no velocity gradients at all, and its flux and L3
    # loop hands every midpoint (and, with tests, every pressure) to the
    # type-major kernel once per Kuhn type, in ceil(N / BLOCK) blocks and
    # no E-major evaluation
    spaces = level(3)
    norm_rows = {}
    calls = count_calls(monkeypatch,
                        (velocity_values, velocity_gradients) + NORMS,
                        norm_rows)
    rows = []
    kernel = torusns.fespace._samples_of_type

    def spy(coeffs, dofmap, table, k):
        rows.append((coeffs.shape[1], k, len(coeffs)))
        return kernel(coeffs, dofmap, table, k)
    monkeypatch.setattr(torusns.diagnostics, "_samples_of_type", spy)
    for traj in (cn_runs[1], cnab_runs["stable"]):
        calls.update(dict.fromkeys(calls, 0))
        norm_rows.update(dict.fromkeys(calls, 0))
        rows.clear()
        build_report(traj, spaces, with_local_energy=with_local_energy)
        N, blocks = traj.n_steps, -(-traj.n_steps // BLOCK)
        assert N > ROWS
        assert calls == {"velocity_values": 0, "velocity_gradients": 0,
                         **report_norm_calls(N)}
        assert norm_rows == {"velocity_values": 0, "velocity_gradients": 0,
                             "velocity_l2": (N + 1) + 2 * N,
                             "velocity_h1_semi": (N + 1) + N,
                             "pressure_l2": N}
        for k in range(6):
            velocity = [n for c, t, n in rows if (c, t) == (3, k)]
            pressure = [n for c, t, n in rows if (c, t) == (1, k)]
            assert len(velocity) == blocks and sum(velocity) == N
            assert sum(pressure) == (N if with_local_energy else 0)
        assert len(rows) == 6 * blocks * (2 if with_local_energy else 1)


def test_summary_csv_reads_the_report_norms(tmp_path, monkeypatch):
    # after the solve, a run's only norm calls are the report's
    calls = count_calls(monkeypatch, NORMS)
    solve = torusns.cli.run

    def run_spy(*args):
        trajectory = solve(*args)
        calls.update(dict.fromkeys(calls, 0))  # drop the Picard increments
        return trajectory

    monkeypatch.setattr(torusns.cli, "run", run_spy)
    torusns.cli.run_single(RunSpec(n_cells=2, T=0.5, steps=4), tmp_path)
    assert (tmp_path / "summary.csv").is_file()
    assert calls == report_norm_calls(4)


def test_divergence_scan_infinite_after_blow_up(cnab_runs, level):
    # the overdriven run has finite states whose norms overflow, then
    # non-finite states; the scan must report inf, not skip them
    traj = cnab_runs["unstable"]
    assert not np.all(np.isfinite(traj.u))
    with np.errstate(all="ignore"):
        rep = build_report(traj, level(3), with_local_energy=False)
    assert rep.divergence_max_rel == np.inf


def flip_stiffness(spaces, nu, psi):
    """K_x with the sign of its psi-weighted stiffness part flipped."""
    K_t, K_x = _balance_matrices(spaces, nu, psi)
    t = spaces.tables
    stiffness = _product_table(t.grad, t.grad).sum(-1, keepdims=True)
    S = _weighted_matrix(spaces, [psi], stiffness, spaces.velocity.pattern)
    return K_t, K_x.pattern.matrix(K_x.data + 2.0 * nu * S.data)


def scale_rate(spaces, nu, psi):
    """K_t one part in 1e9 too large."""
    K_t, K_x = _balance_matrices(spaces, nu, psi)
    return K_t.pattern.matrix((1.0 + 1e-9) * K_t.data), K_x


@pytest.mark.parametrize("corrupt", [flip_stiffness, scale_rate])
def test_quadform_check_fails_on_a_corrupted_matrix(level, monkeypatch,
                                                    corrupt):
    spaces = level(2)
    assert checks._local_energy_quadform(spaces).passed
    monkeypatch.setattr(checks, "_balance_matrices", corrupt)
    assert not checks._local_energy_quadform(spaces).passed


def test_local_energy_rejects_sign_changing_factor(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    bad = SpaceTimeTest("bad", TrigPoly.cosine((1, 0, 0)),
                        TimeBump(traj.config.T, 2))
    with pytest.raises(ValueError):
        local_energy_residuals(traj, spaces, [bad])


def test_default_family_size_and_positivity(level, quad_points):
    spaces = level(2)
    tests = default_test_family(1.0)
    assert len(tests) == 12
    pts = quad_points(spaces)
    for t in tests:
        assert t.psi.value(pts).min() >= 0.2
        assert t.eta.value(np.linspace(0, 1.0, 33)).min() >= -1e-15


def test_first_step_check_scaling(cnab_runs, level):
    import dataclasses
    spaces = level(3)
    traj = cnab_runs["stable"]
    base = cnab_first_step_check(trajectory_norms(traj, spaces), traj.config,
                                 spaces.h)
    doubled = dataclasses.replace(traj, u=2.0 * traj.u)
    big = cnab_first_step_check(trajectory_norms(doubled, spaces),
                                traj.config, spaces.h)
    assert abs(big.lhs - 4.0 * base.lhs) < 1e-10 * abs(base.lhs)
    assert abs(big.rhs - 4.0 * base.rhs) < 1e-10 * abs(base.rhs)


def test_first_step_check_nonpositive_on_stable_run(cnab_runs, level):
    spaces = level(3)
    traj = cnab_runs["stable"]
    chk = cnab_first_step_check(trajectory_norms(traj, spaces), traj.config,
                                spaces.h)
    assert chk.value <= 1e-10 * abs(chk.rhs)


def test_report_serialization(cn_runs, level):
    spaces = level(3)
    rep = build_report(cn_runs[1], spaces,
                       u0_norm=tg_like().l2_norm())
    text = rep.to_tab_text()
    for line in text.strip().splitlines():
        name, value = line.split("\t")
        assert name
    doc = json.loads(rep.to_json())
    assert doc == rep.to_json_dict()
    assert len(doc["energy_residuals"]) == cn_runs[1].n_steps
    assert "cnab_xi" not in doc


def test_report_cnab_sections(cnab_runs, level):
    spaces = level(3)
    with np.errstate(all="ignore"):
        rep = build_report(cnab_runs["stable"], spaces,
                           with_local_energy=False)
    assert rep.cnab is not None
    assert rep.first_step_check is not None
    doc = rep.to_json_dict()
    assert "cnab_xi" in doc
    assert doc["cnab.monotone"] is True


#: report.txt's keys, in order, of a report without the explicit-scheme
#: sections; a CNAB report appends CNAB_KEYS
REPORT_KEYS = [
    "scheme", "case", "nu", "T", "N", "dt", "h", "u0_l2_discrete",
    "u0_h1_discrete", "u0_l2_analytic", "max_energy_residual",
    "global_defect_discrete", "global_defect_analytic", "increment_sum",
    "increment_normalized", "gap_l2", "pressure_ratio_max",
    "divergence_max_rel", "local_energy_min", "coupling.cn_ratio",
    "coupling.cn_pass", "coupling.cnle_bound", "coupling.cnle_pass",
    "coupling.cnab_bound", "coupling.cnab_dt_pass", "coupling.ratio_dt_h3",
    "coupling.bound_32nu"]
CNAB_KEYS = [
    "cnab.monotone", "cnab.first_violation", "cnab.weighted_ok",
    "cnab.max_state_sq", "cnab.increment_within_32max", "first_step.lhs",
    "first_step.rhs", "first_step.value"]
ARRAY_KEYS = {"energy_residuals", "pressure_ratios", "picard_iters",
              "step_residuals"}


def test_report_artifact_layout(cn_runs, cnab_runs, level):
    spaces = level(3)
    cn = build_report(cn_runs[1], spaces, u0_norm=tg_like().l2_norm())
    with np.errstate(all="ignore"):
        cnab = build_report(cnab_runs["stable"], spaces,
                            with_local_energy=False)
    for rep, keys, json_only in (
            (cn, REPORT_KEYS, {"local_energy"}),
            (cnab, REPORT_KEYS + CNAB_KEYS, {"cnab_xi"})):
        lines = rep.to_tab_text().splitlines()
        assert [line.split("\t")[0] for line in lines] == keys
        assert set(json.loads(rep.to_json())) == (set(keys) | ARRAY_KEYS
                                                  | json_only)
    # a report without local energy still prints its (absent) minimum
    assert "local_energy_min\tNone" in cnab.to_tab_text().splitlines()
    assert json.loads(cnab.to_json())["local_energy_min"] is None
