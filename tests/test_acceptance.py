"""Acceptance battery: one test per criterion, each printing a
PASS/FAIL line with its measured values (run with -s to see them while
the suite executes).

Heavy trajectories are shared through session fixtures; criterion 10
re-examines every velocity solved for the other criteria.
"""

import numpy as np

from torusns.fespace import (commutator_constant, commutator_defect,
                             inf_sup_constant, inverse_constant,
                             pressure_commutator_constant,
                             pressure_commutator_defect, project_pressure,
                             project_velocity, velocity_h1, velocity_l2)
from torusns.forms import (b_case1, b_case2, b_case3, divergence_norm,
                           project_div_free)
from torusns.diagnostics import cnab_monitor, energy_residuals, \
    global_energy_defect
from torusns.interpolants import gap_l2, increment_sum, trajectory_norms
from torusns.trig import TrigPoly, random_trig, sine_shear


def verdict(num, name, passed, detail):
    line = f"ACCEPTANCE {num:2d} {name}: " \
           f"{'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    return passed


# ---------------------------------------------------------------------------
# 1. cancellation structure of the convective forms
# ---------------------------------------------------------------------------

def test_criterion_1_skew_symmetry(level):
    spaces = level(3)
    worst = {"case1": 0.0, "case2": 0.0, "case3": 0.0}
    for seed in range(20):
        u = project_velocity(spaces, random_trig(3 * seed + 1, 2))
        v = project_velocity(spaces, random_trig(3 * seed + 2, 2))
        scale = velocity_h1(spaces, u) * velocity_h1(spaces, v) ** 2
        worst["case1"] = max(worst["case1"],
                             abs(b_case1(spaces, u, v, v)) / scale)
        worst["case2"] = max(worst["case2"],
                             abs(b_case2(spaces, u, v, v)) / scale)
        vdf = project_div_free(spaces, v)
        scale3 = velocity_h1(spaces, u) * velocity_h1(spaces, vdf) ** 2
        worst["case3"] = max(worst["case3"],
                             abs(b_case3(spaces, u, vdf, vdf)) / scale3)
    ok = all(w <= 1e-10 for w in worst.values())
    assert verdict(1, "skew-symmetry", ok,
                   ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


# ---------------------------------------------------------------------------
# 2. midpoint-scheme energy equality, all convective cases
# ---------------------------------------------------------------------------

def test_criterion_2_cn_energy_equality(cn_runs, level):
    spaces = level(3)
    ok = True
    details = []
    for case, traj in sorted(cn_runs.items()):
        norms = trajectory_norms(traj, spaces)
        res = np.abs(energy_residuals(norms, traj.config)).max()
        tol = 1e-8 * max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
        defect = abs(global_energy_defect(norms, traj.config))
        ok &= res <= tol and defect <= 1.6e-7
        details.append(f"case{case} step {res:.2e} global {defect:.2e}")
    assert verdict(2, "CN energy equality", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. extrapolated-scheme energy equality
# ---------------------------------------------------------------------------

def test_criterion_3_cnle_energy_equality(cnle_run, level):
    spaces = level(3)
    res = np.abs(energy_residuals(trajectory_norms(cnle_run, spaces),
                                  cnle_run.config)).max()
    tol = 1e-9 * max(1.0, velocity_l2(spaces, cnle_run.u[0]) ** 2)
    assert verdict(3, "CNLE energy equality", res <= tol,
                   f"max residual {res:.2e} vs {tol:.2e}")


# ---------------------------------------------------------------------------
# 4. reconstruction-gap identity on every produced trajectory
# ---------------------------------------------------------------------------

def test_criterion_4_gap_identity(cn_runs, cnle_run, cnab_runs, shear_study,
                                  level):
    spaces3 = level(3)
    trajectories = [(spaces3, t) for t in cn_runs.values()]
    trajectories.append((spaces3, cnle_run))
    trajectories.append((spaces3, cnab_runs["stable"]))
    trajectories += [(s, t) for _, s, t, _ in shear_study]
    worst = 0.0
    for spaces, traj in trajectories:
        norms = trajectory_norms(traj, spaces)
        gap = gap_l2(norms, traj.config)
        inc = increment_sum(norms)
        if inc == 0.0:
            continue
        worst = max(worst, abs(gap - traj.config.dt / 12.0 * inc)
                    / (traj.config.dt / 12.0 * inc))
    # independent quadrature oracle on one representative trajectory: on
    # step m, at t = (m - 1 + x) dt, the midpoint field is u^{m,1/2} and
    # the linear reconstruction u^{m-1} + x (u^m - u^{m-1})
    traj = cn_runs[1]
    nodes = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    dt = traj.config.dt
    oracle = sum(0.5 * dt * velocity_l2(
        spaces3, traj.midpoints[m - 1]
        - (traj.u[m - 1] + x * (traj.u[m] - traj.u[m - 1]))) ** 2
        for m in range(1, traj.n_steps + 1) for x in nodes)
    oracle_err = abs(gap_l2(trajectory_norms(traj, spaces3), traj.config)
                     - oracle) / oracle
    ok = worst <= 1e-12 and oracle_err <= 1e-12
    assert verdict(4, "gap identity", ok,
                   f"worst rel {worst:.2e}, oracle rel {oracle_err:.2e} "
                   f"over {len(trajectories)} trajectories")


# ---------------------------------------------------------------------------
# 5. coupled refinement drives the reconstruction gap down
# ---------------------------------------------------------------------------

def test_criterion_5_gap_decay_under_coupling(shear_study):
    gaps = [rep.gap_l2 for _, _, _, rep in shear_study]
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    assert verdict(5, "coupled gap decay", ok,
                   "gaps " + " > ".join(f"{g:.5f}" for g in gaps))


# ---------------------------------------------------------------------------
# 6. stability constants across refinement
# ---------------------------------------------------------------------------

def test_criterion_6_stability_constants(level):
    infsup = [inf_sup_constant(level(n)) for n in range(2, 9)]
    invh = [inverse_constant(level(n)) for n in range(2, 9)]
    spread_is = (max(infsup) - min(infsup)) / min(infsup)
    spread_inv = (max(invh) - min(invh)) / min(invh)
    ok = spread_is < 0.5 and spread_inv < 0.25
    assert verdict(6, "stability constants", ok,
                   f"inf-sup {[round(v, 4) for v in infsup]} "
                   f"spread {spread_is:.1%}; C_inv*h "
                   f"{[round(v, 2) for v in invh]} spread {spread_inv:.1%}")


# ---------------------------------------------------------------------------
# 7. commutator constant across refinement
# ---------------------------------------------------------------------------

def test_criterion_7_commutator_ratio_stability(level):
    """The commutator constant does not grow under refinement.

    The discrete commutator property bounds |phi v_h - P_h(phi v_h)|_{H^l}
    by c h^{1+m-l} |v_h|_{H^m} |phi|_{W^{m+1,inf}} with c independent of
    h and of v_h.  The constant c is the worst case over the whole space
    (`commutator_constant`, `pressure_commutator_constant`); the ratio of
    one fixed smooth field is a single sample of the quotient, bounded by
    c on every level but free to drift (a smooth field's defect
    superconverges), so on n = 2..6 it is only checked against c.

    Growth is measured as the least-squares slope of log c against
    log(1/h) over n = 4..8, a factor two in h.  A defect that falls like
    h^{1+m-l-s} instead of h^{1+m-l} gives slope s; the test fails at
    s >= 1/2, a loss of half the promised order or more, and on a spread
    of c of 50% or more over the same levels.  Levels 2 and 3 are left
    out of the fit: there the element diameter (h = 5.44, 3.63) exceeds
    pi, half of phi's period, so phi is not resolved by the mesh.

    Growth slower than h^{-1/2} is not caught.  The worst case localizes
    where |phi'| is largest and reaches its h-independent value only as
    h -> 0; on these levels c still rises (pressure slope about 0.4,
    velocity about 0.25), so a smaller limit would need finer levels.
    """
    phi = TrigPoly.constant(2.0) + TrigPoly.cosine((1, 0, 0))
    consts, samples = {}, {}
    for n in range(2, 9):
        spaces = level(n)
        consts[n] = (spaces.h, commutator_constant(spaces, phi),
                     pressure_commutator_constant(spaces, phi))
        if n <= 6:
            v = project_velocity(spaces, sine_shear())
            q = project_pressure(spaces, TrigPoly.sine((0, 1, 0)))
            samples[n] = (
                commutator_defect(spaces, v, phi, l=1).ratios[1],
                pressure_commutator_defect(spaces, q, phi).ratios[0])
    below = all(r <= c * (1.0 + 1e-10)
                for n, rs in samples.items()
                for r, c in zip(rs, consts[n][1:]))
    growth = {}
    for name, col in (("velocity", 1), ("pressure", 2)):
        hs, cs = np.array([(consts[n][0], consts[n][col])
                           for n in range(4, 9)]).T
        slope = np.polyfit(np.log(1.0 / hs), np.log(cs), 1)[0]
        growth[name] = (cs, slope, (cs.max() - cs.min()) / cs.min())
    ok = below and all(slope < 0.5 and spread < 0.5
                       for _, slope, spread in growth.values())
    ratios = "; ".join(
        f"n={n} v {r1:.4f}<={consts[n][1]:.4f} p {r2:.4f}<={consts[n][2]:.4f}"
        for n, (r1, r2) in samples.items())
    trend = "; ".join(
        f"{name} c {np.round(cs, 4).tolist()} slope {slope:.2f} "
        f"spread {spread:.1%}"
        for name, (cs, slope, spread) in growth.items())
    assert verdict(7, "commutator constant stability", ok,
                   f"{ratios}; n=4-8 {trend}")


# ---------------------------------------------------------------------------
# 8. explicit-scheme stability dichotomy
# ---------------------------------------------------------------------------

def test_criterion_8_cnab_dichotomy(cnab_runs, level):
    spaces = level(3)
    with np.errstate(all="ignore"):
        stable, unstable = (
            cnab_monitor(trajectory_norms(traj, spaces), traj.config)
            for traj in (cnab_runs["stable"], cnab_runs["unstable"]))
    dt_s = cnab_runs["stable"].config.dt
    dt_u = cnab_runs["unstable"].config.dt
    nu = cnab_runs["stable"].config.nu
    h = spaces.h
    margin = (1.0 / (32.0 * nu)) / (dt_s / h ** 3)
    ok = (stable.monotone and stable.increment_within_32max
          and not unstable.monotone and dt_u == 100.0 * dt_s
          and margin >= 32.0 * nu)
    assert verdict(
        8, "CNAB dichotomy", ok,
        f"stable dt/h^3 {dt_s / h ** 3:.1e} (margin {margin:.0f}x) "
        f"monotone; unstable 100x dt fails at step "
        f"{unstable.first_violation}")


# ---------------------------------------------------------------------------
# 9. localized energy balance under coupled refinement
# ---------------------------------------------------------------------------

def test_criterion_9_local_energy_trend(shear_study):
    mins = [rep.local_energy_min for _, _, _, rep in shear_study]
    eps = [max(0.0, -m) for m in mins]
    ok = all(a >= b for a, b in zip(eps, eps[1:]))
    assert verdict(9, "local energy floor", ok,
                   "mins " + ", ".join(f"{m:+.2e}" for m in mins))


# ---------------------------------------------------------------------------
# 10. discrete divergence constraint everywhere
# ---------------------------------------------------------------------------

def test_criterion_10_divergence_everywhere(cn_runs, cnle_run, cnab_runs,
                                            shear_study, level):
    spaces3 = level(3)
    bundles = [(spaces3, t) for t in cn_runs.values()]
    bundles.append((spaces3, cnle_run))
    bundles += [(spaces3, cnab_runs[k]) for k in ("stable", "unstable")]
    bundles += [(s, t) for _, s, t, _ in shear_study]
    worst = 0.0
    checked = skipped = 0
    for spaces, traj in bundles:
        for m in range(traj.n_steps + 1):
            u = traj.u[m]
            with np.errstate(over="ignore", invalid="ignore"):
                if np.all(np.isfinite(u)):
                    scale = velocity_h1(spaces, u)
                    ratio = (divergence_norm(spaces, u) / scale
                             if scale > 0.0 else 0.0)
                else:
                    ratio = np.nan
            if not np.isfinite(ratio):
                skipped += 1  # overdriven explicit run after blow-up
                continue
            worst = max(worst, ratio)
            checked += 1
    ok = worst <= 1e-9
    assert verdict(10, "divergence constraint", ok,
                   f"worst {worst:.2e} over {checked} states "
                   f"({skipped} non-finite skipped)")
