"""Self-contained structural identity checks behind the `check` command.

Each check returns its measured value so failures are diagnosable from
the command line without rerunning anything.  The suite is intentionally
small and fast (coarsest meshes, a handful of steps); the full test
battery lives in the package's test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from .diagnostics import energy_residuals
from .fespace import build_spaces, project_velocity, velocity_h1, velocity_l2
from .interpolants import InterpolantSet, gap_l2, increment_sum
from .mesh import build_torus_mesh, conformity_ok
from .quadrature import monomial_integral, tet_rule
from .steppers import DiscreteTrajectory, SchemeConfig, run
from .trig import TWO_PI, random_trig, tg_like


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float


def _rule_exactness() -> CheckResult:
    rule = tet_rule()
    worst = 0.0
    for p in range(rule.degree + 1):
        for q in range(rule.degree + 1 - p):
            for r in range(rule.degree + 1 - p - q):
                approx = (rule.weights * rule.points[:, 0] ** p
                          * rule.points[:, 1] ** q
                          * rule.points[:, 2] ** r).sum()
                worst = max(worst, abs(approx - monomial_integral(p, q, r)))
    return CheckResult("quadrature_monomial_exactness", worst < 1e-14,
                       worst, 1e-14)


def _mesh_volume() -> CheckResult:
    worst = 0.0
    for n in (2, 3):
        mesh = build_torus_mesh(n)
        worst = max(worst, abs(mesh.volumes().sum() - TWO_PI ** 3) / TWO_PI ** 3)
    return CheckResult("mesh_volume_partition", worst < 1e-12, worst, 1e-12)


def _mesh_conformity() -> CheckResult:
    ok = all(conformity_ok(build_torus_mesh(n)) for n in (2, 3))
    return CheckResult("mesh_face_pairing", ok, float(ok), 1.0)


def remove_mean(spaces, coeffs):
    """Subtract the componentwise mean (the constant lives on the
    vertex part of the space: hat functions sum to one)."""
    c = np.asarray(coeffs, dtype=float).reshape(3, spaces.n_scalar).copy()
    ones = np.zeros(spaces.n_scalar)
    ones[:spaces.mesh.n_vertices] = 1.0
    for k in range(3):
        c[k] -= (spaces.ops.int_s @ c[k]) / TWO_PI ** 3 * ones
    return c.ravel()


def _projection_idempotence(spaces) -> CheckResult:
    rng = np.random.default_rng(42)
    c = remove_mean(spaces, rng.standard_normal(3 * spaces.n_scalar))
    from .fespace import velocity_values
    vals = velocity_values(spaces, c)
    again = project_velocity(spaces, lambda pts: vals)
    err = np.abs(again - c).max() / max(1.0, np.abs(c).max())
    return CheckResult("projection_idempotence", err < 1e-10, err, 1e-10)


def _skew_symmetry(spaces) -> list[CheckResult]:
    worst1 = worst2 = 0.0
    for seed in range(20):
        u = project_velocity(spaces, random_trig(3 * seed + 1, 2))
        v = project_velocity(spaces, random_trig(3 * seed + 2, 2))
        scale = velocity_h1(spaces, u) * velocity_h1(spaces, v) ** 2
        worst1 = max(worst1, abs(forms.b_case1(spaces, u, v, v)) / scale)
        worst2 = max(worst2, abs(forms.b_case2(spaces, u, v, v)) / scale)
    return [CheckResult("skew_symmetry_case1", worst1 < 1e-10, worst1, 1e-10),
            CheckResult("skew_symmetry_case2", worst2 < 1e-10, worst2, 1e-10)]


def _gap_identity(spaces) -> CheckResult:
    rng = np.random.default_rng(7)
    N, dim = 10, 3 * spaces.n_scalar
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=1.0, N=N)
    u = rng.standard_normal((N + 1, dim))
    traj = DiscreteTrajectory(config=cfg, h=spaces.h,
                              times=cfg.dt * np.arange(N + 1), u=u,
                              p=np.zeros((N, spaces.pressure.dim)),
                              picard_iters=np.zeros(N, dtype=int),
                              residuals=np.zeros(N))
    iset = InterpolantSet(traj, spaces)
    lhs = gap_l2(iset)
    rhs = (cfg.dt / 12.0) * increment_sum(iset)
    err = abs(lhs - rhs) / rhs
    return CheckResult("gap_increment_identity", err < 1e-12, err, 1e-12)


def _energy_identity(spaces) -> CheckResult:
    cfg = SchemeConfig(scheme="CN", case=1, nu=0.5, T=0.25, N=2)
    traj = run(cfg, spaces, tg_like())
    worst = float(np.abs(energy_residuals(traj, spaces)).max())
    scale = max(1.0, velocity_l2(spaces, traj.u[0]) ** 2)
    return CheckResult("cn_energy_identity", worst < 1e-10 * scale,
                       worst, 1e-10 * scale)


def _divergence_bound(spaces) -> CheckResult:
    cfg = SchemeConfig(scheme="CN", case=1, nu=0.5, T=0.25, N=2)
    traj = run(cfg, spaces, tg_like())
    worst = float((forms.divergence_norm(spaces, traj.u)
                   / np.maximum(1e-300, velocity_h1(spaces, traj.u))).max())
    return CheckResult("discrete_divergence", worst < 1e-9, worst, 1e-9)


def _gradient_div_duality(spaces) -> CheckResult:
    """(grad q, w) must equal -(q, div w) exactly at this quadrature."""
    rng = np.random.default_rng(3)
    q = rng.standard_normal(spaces.pressure.dim)
    w = rng.standard_normal(3 * spaces.n_scalar)
    from .fespace import pressure_gradients, velocity_values, quad_integral
    lhs = quad_integral(spaces, (pressure_gradients(spaces, q)
                                 * velocity_values(spaces, w)).sum(-1))
    rhs = -float(q @ (spaces.ops.B @ w))
    err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return CheckResult("gradient_divergence_duality", err < 1e-12, err, 1e-12)


def run_checks(verbose: bool = True) -> list[CheckResult]:
    mesh = build_torus_mesh(2)
    spaces = build_spaces(mesh)
    results = [
        _rule_exactness(),
        _mesh_volume(),
        _mesh_conformity(),
        _projection_idempotence(spaces),
        *_skew_symmetry(spaces),
        _gap_identity(spaces),
        _energy_identity(spaces),
        _divergence_bound(spaces),
        _gradient_div_duality(spaces),
    ]
    if verbose:
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            print(f"{status} {r.name:32s} measured {r.measured:.3e} "
                  f"(bound {r.bound:.0e})")
    return results
