import json

import numpy as np
import pytest

from torusns.diagnostics import (SpaceTimeTest, TimeBump, build_report,
                                 cnab_first_step_check, cnab_monitor,
                                 default_test_family, energy_residuals,
                                 global_energy_defect, local_energy_residuals,
                                 pressure_ratios)
from torusns.fespace import (pressure_values, quad_integral,
                             velocity_gradients, velocity_h1_semi,
                             velocity_l2, velocity_values)
from torusns.steppers import SchemeConfig, run
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
    assert np.abs(energy_residuals(zero_run, spaces)).max() == 0.0
    assert global_energy_defect(zero_run, spaces) == 0.0
    assert np.abs(pressure_ratios(zero_run, spaces)).max() == 0.0
    tests = default_test_family(zero_run.config.T)
    assert np.abs(local_energy_residuals(zero_run, spaces, tests)).max() == 0.0
    mon = cnab_monitor(zero_run, spaces, c1=1.0)
    assert mon.monotone and mon.weighted_ok
    assert np.abs(mon.xi).max() == 0.0
    chk = cnab_first_step_check(zero_run, spaces, zero_run.h)
    assert chk.value == 0.0


def test_cn_energy_residuals_small(cn_runs, level):
    spaces = level(3)
    for traj in cn_runs.values():
        res = energy_residuals(traj, spaces)
        scale = max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
        assert np.abs(res).max() <= 10 * traj.config.picard_tol * scale


def test_cnab_residuals_are_reported_raw(level):
    spaces = level(3)
    cfg = SchemeConfig(scheme="CNAB", case=1, nu=0.1, T=0.5, N=8)
    traj = run(cfg, spaces, tg_like())
    res = energy_residuals(traj, spaces)
    assert np.all(np.isfinite(res))
    assert np.abs(res).max() > 1e-8  # no balance identity for this scheme


def test_global_defect_signs(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    cfg = traj.config
    scale = max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
    assert abs(global_energy_defect(traj, spaces)) \
        <= cfg.N * 10 * cfg.picard_tol * scale
    # against the smooth datum's analytic energy the balance holds with
    # slack: the projection only removes energy
    analytic = tg_like().l2_norm_sq()
    assert global_energy_defect(traj, spaces, analytic) < 0.0


def test_pressure_ratios_bounded_across_levels(level):
    worst = 0.0
    for n in (2, 3, 4):
        spaces = level(n)
        cfg = SchemeConfig(scheme="CN", case=1, nu=0.1, T=0.5, N=8)
        traj = run(cfg, spaces, tg_like())
        worst = max(worst, pressure_ratios(traj, spaces).max())
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
    got = local_energy_residuals(traj, spaces, [test])[0]
    indep = 0.0
    for m in range(1, cfg.N + 1):
        t_nodes = (m - 1 + GAUSS_X) * cfg.dt
        int_eta = cfg.dt * GAUSS_W @ bump.value(t_nodes)
        int_deta = cfg.dt * GAUSS_W @ bump.dvalue(t_nodes)
        z = traj.midpoint(m)
        indep += (0.5 * velocity_l2(spaces, z) ** 2 * int_deta
                  - cfg.nu * velocity_h1_semi(spaces, z) ** 2 * int_eta)
    assert abs(got - indep) < 1e-9 * max(1.0, abs(indep))


def local_energy_reference(traj, spaces, tests):
    """The localized balance integrated one test and one step at a time."""
    cfg = traj.config
    pts = spaces.tables.quad_points
    out = np.zeros(len(tests))
    for m in range(1, cfg.N + 1):
        t_nodes = (m - 1 + GAUSS_X) * cfg.dt
        z = traj.midpoint(m)
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
            flux = ((ke + pv)[..., None] * zv * test.psi.grad(pts)).sum(-1)
            rhs_t = quad_integral(spaces, ke * psi_v) * int_deta
            rhs_x = (cfg.nu * quad_integral(spaces, ke * psi_lap)
                     + quad_integral(spaces, flux)) * int_eta
            lhs = cfg.nu * quad_integral(spaces, gradsq * psi_v) * int_eta
            out[i] += rhs_t + rhs_x - lhs
    return out


@pytest.mark.parametrize("which", ["cn_case1", "cnab_stable"])
def test_local_energy_matches_per_test_loop(which, cn_runs, cnab_runs,
                                            level):
    spaces = level(3)
    traj = cn_runs[1] if which == "cn_case1" else cnab_runs["stable"]
    tests = default_test_family(traj.config.T)
    got = local_energy_residuals(traj, spaces, tests)
    want = local_energy_reference(traj, spaces, tests)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_divergence_scan_infinite_after_blow_up(cnab_runs, level):
    # the overdriven run has finite states whose norms overflow, then
    # non-finite states; the scan must report inf, not skip them
    traj = cnab_runs["unstable"]
    assert not np.all(np.isfinite(traj.u))
    with np.errstate(all="ignore"):
        rep = build_report(traj, level(3), with_local_energy=False)
    assert rep.divergence_max_rel == np.inf


def test_local_energy_rejects_sign_changing_factor(cn_runs, level):
    spaces = level(3)
    traj = cn_runs[1]
    bad = SpaceTimeTest("bad", TrigPoly.cosine((1, 0, 0)),
                        TimeBump(traj.config.T, 2))
    with pytest.raises(ValueError):
        local_energy_residuals(traj, spaces, [bad])


def test_default_family_size_and_positivity(level):
    spaces = level(2)
    tests = default_test_family(1.0)
    assert len(tests) == 12
    pts = spaces.tables.quad_points
    for t in tests:
        assert t.psi.value(pts).min() >= 0.2
        assert t.eta.value(np.linspace(0, 1.0, 33)).min() >= -1e-15


def test_cnab_monitor_validation(zero_run, level):
    spaces = level(2)
    with pytest.raises(ValueError):
        cnab_monitor(zero_run, spaces, c1=0.0)


def test_first_step_check_scaling(cnab_runs, level):
    import dataclasses
    spaces = level(3)
    traj = cnab_runs["stable"]
    base = cnab_first_step_check(traj, spaces, traj.h)
    doubled = dataclasses.replace(traj, u=2.0 * traj.u)
    big = cnab_first_step_check(doubled, spaces, traj.h)
    assert abs(big.lhs - 4.0 * base.lhs) < 1e-10 * abs(base.lhs)
    assert abs(big.rhs - 4.0 * base.rhs) < 1e-10 * abs(base.rhs)


def test_first_step_check_nonpositive_on_stable_run(cnab_runs, level):
    spaces = level(3)
    chk = cnab_first_step_check(cnab_runs["stable"], spaces,
                                cnab_runs["stable"].h)
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
