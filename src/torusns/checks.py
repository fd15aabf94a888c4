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
from .diagnostics import (_balance_matrices, _flux_and_l3,
                          default_test_family, energy_residuals)
from .fespace import (_scalar_quadform, build_spaces, field_values,
                      pressure_gradients, pressure_values,
                      project_velocity, quad_integral,
                      velocity_gradients, velocity_h1, velocity_l2,
                      velocity_values)
from .interpolants import gap_l2, trajectory_norms
from .mesh import build_torus_mesh, conformity_ok
from .quadrature import monomial_integral, tet_rule
from .steppers import DiscreteTrajectory, SchemeConfig, StepOperator, run
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
    again = project_velocity(spaces, velocity_values(spaces, c))
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


def _convection_tensor(spaces) -> CheckResult:
    """The convection operators built from the per-type element tensors
    against the pointwise forms, on projected random fields: w.(C(u) v)
    for cases 1 and 2 against b_case1 and b_case2, and convection_rhs(u).w
    against b_case1(u, u, w), each relative to the form's value."""
    u, v, w = (project_velocity(spaces, random_trig(seed, 2))
               for seed in (21, 22, 23))
    pairs = [(w @ (forms.convection_matrix(spaces, case, u) @ v),
              forms.b_form(spaces, case, u, v, w)) for case in (1, 2)]
    pairs.append((forms.convection_rhs(spaces, u) @ w,
                  forms.b_case1(spaces, u, u, w)))
    err = max(abs(got - want) / abs(want) for got, want in pairs)
    return CheckResult("convection_tensor", err < 1e-12, err, 1e-12)


def _dense(matrix) -> np.ndarray:
    """A CSR matrix (`fespace._CSR`) as a dense array, from its arrays."""
    out = np.zeros(matrix.shape)
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    out[rows, matrix.indices] = matrix.data
    return out


def _saddle_apply(spaces) -> CheckResult:
    """A case-3 frozen-advection system, applied and normed block by
    block, against the dense saddle matrix A built here from its blocks,
    [[F, -B^T, W^T, 0], [B, 0, 0, m], [W, 0, 0, 0], [0, m^T, 0, 0]] with
    W = diag(int_s, int_s, int_s) and m = int_p: `system @ x` at a random
    x relative to the largest |A||x|, and |A|_1 relative to the largest
    column sum of |A|."""
    op = StepOperator(spaces, SchemeConfig(scheme="CN", case=3, nu=0.1,
                                           T=1 / 128, N=1))
    w = project_velocity(spaces, random_trig(41, 2))
    system, _ = op.frozen_system(w, w)
    ops = spaces.ops
    n_p, n_u = ops.B.shape
    B, W = _dense(ops.B), np.kron(np.eye(3), ops.int_s)
    u, p, a = slice(0, n_u), slice(n_u, n_u + n_p), slice(n_u + n_p, -1)
    A = np.zeros((n_u + n_p + 4,) * 2)
    A[u, u], A[u, p], A[p, u] = _dense(system.F), -B.T, B
    A[u, a], A[a, u] = W.T, W
    A[p, -1] = A[-1, p] = ops.int_p
    x = np.random.default_rng(13).standard_normal(A.shape[1])
    norm1 = np.abs(A).sum(axis=0).max()
    err = max(np.abs(system @ x - A @ x).max()
              / (np.abs(A) @ np.abs(x)).max(),
              abs(system.norm1 - norm1) / norm1)
    return CheckResult("saddle_apply", err < 1e-14, err, 1e-14)


def _gap_identity(spaces) -> CheckResult:
    """`gap_l2` against an independent quadrature: on each step |u - v|^2
    is quadratic in time, so two Gauss nodes per step integrate it
    exactly.  At t = (m - 1 + x) dt the midpoint field is u^{m,1/2} and
    the linear reconstruction u^{m-1} + x (u^m - u^{m-1})."""
    rng = np.random.default_rng(7)
    N, dim = 10, 3 * spaces.n_scalar
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=1.0, N=N)
    u = rng.standard_normal((N + 1, dim))
    traj = DiscreteTrajectory(config=cfg, times=cfg.dt * np.arange(N + 1),
                              u=u, p=np.zeros((N, spaces.pressure.dim)),
                              picard_iters=np.zeros(N, dtype=int),
                              residuals=np.zeros(N))
    mid = traj.midpoints
    nodes = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    gaps = np.concatenate([mid - (u[:-1] + x * (u[1:] - u[:-1]))
                           for x in nodes])
    oracle = 0.5 * cfg.dt * float((velocity_l2(spaces, gaps) ** 2).sum())
    gap = gap_l2(trajectory_norms(traj, spaces), cfg)
    err = abs(gap - oracle) / oracle
    return CheckResult("gap_increment_identity", err < 1e-12, err, 1e-12)


def _local_energy_quadform(spaces) -> CheckResult:
    """The local energy balance's assembled forms against the pointwise
    sums they replace, at a random velocity and psi = 1 + cos(x)/2,
    relative to the sum of the terms' magnitudes.  (The pressure enters
    only the flux, which stays pointwise.)"""
    nu, psi = 0.3, default_test_family(1.0)[2].psi
    z = np.random.default_rng(5).standard_normal(3 * spaces.n_scalar)
    psi_v, lap_v = (field_values(spaces, f) for f in (psi, psi.laplacian()))
    ke = 0.5 * (velocity_values(spaces, z) ** 2).sum(-1)
    gradsq = (velocity_gradients(spaces, z) ** 2).sum((-1, -2))
    terms = (psi_v * ke, nu * lap_v * ke, -nu * psi_v * gradsq)
    err = sum(abs(_scalar_quadform([K], z, spaces.n_scalar)[0]
                  - quad_integral(spaces, want)) for K, want in zip(
        _balance_matrices(spaces, nu, psi),
        (terms[0], terms[1] + terms[2])))
    err /= sum(quad_integral(spaces, np.abs(t)) for t in terms)
    return CheckResult("local_energy_quadform", err < 1e-12, err, 1e-12)


def _local_energy_flux(spaces) -> CheckResult:
    """The local energy balance's blocked flux and L3 against pointwise
    sums over E-major samples, one midpoint at a time, on projected
    random fields: seven midpoints (a full block and a tail) and every
    spatial factor of the default family, each quantity relative to its
    largest value."""
    psis = list(dict.fromkeys(t.psi for t in default_test_family(1.0)))
    a, b = (project_velocity(spaces, random_trig(seed, 2))
            for seed in (31, 32))
    angle = np.arange(8)[:, None]
    u = np.cos(angle) * a + np.sin(angle) * b
    p = np.random.default_rng(9).standard_normal((7, spaces.pressure.dim))
    flux, l3 = _flux_and_l3(spaces, u, p, psis)
    grads = [field_values(spaces, psi.gradient()) for psi in psis]
    want_flux, want_l3 = np.empty_like(flux), np.empty_like(l3)
    for m in range(len(p)):
        zv = velocity_values(spaces, 0.5 * (u[m + 1] + u[m]))
        ke = 0.5 * (zv ** 2).sum(-1)
        density = (ke + pressure_values(spaces, p[m]))[..., None] * zv
        want_flux[:, m] = [quad_integral(spaces, (density * g).sum(-1))
                           for g in grads]
        want_l3[m] = quad_integral(spaces, (2.0 * ke) ** 1.5) ** (1 / 3)
    err = max(np.abs(flux - want_flux).max() / np.abs(want_flux).max(),
              np.abs(l3 - want_l3).max() / want_l3.max())
    return CheckResult("local_energy_flux", err < 1e-12, err, 1e-12)


def _energy_identity(norms, config) -> CheckResult:
    worst = float(np.abs(energy_residuals(norms, config)).max())
    scale = max(1.0, norms.state_l2[0] ** 2)
    return CheckResult("cn_energy_identity", worst < 1e-10 * scale,
                       worst, 1e-10 * scale)


def _divergence_bound(spaces, traj, norms) -> CheckResult:
    h1 = np.hypot(norms.state_l2, norms.state_h1_semi)
    worst = float((forms.divergence_norm(spaces, traj.u)
                   / np.maximum(1e-300, h1)).max())
    return CheckResult("discrete_divergence", worst < 1e-9, worst, 1e-9)


def _gradient_div_duality(spaces) -> CheckResult:
    """(grad q, w) must equal -(q, div w) exactly at this quadrature."""
    rng = np.random.default_rng(3)
    q = rng.standard_normal(spaces.pressure.dim)
    w = rng.standard_normal(3 * spaces.n_scalar)
    lhs = quad_integral(spaces, (pressure_gradients(spaces, q)
                                 * velocity_values(spaces, w)).sum(-1))
    rhs = -float(q @ (spaces.ops.B @ w))
    err = abs(lhs - rhs) / max(1.0, abs(rhs))
    return CheckResult("gradient_divergence_duality", err < 1e-12, err, 1e-12)


def run_checks() -> list[CheckResult]:
    mesh = build_torus_mesh(2)
    spaces = build_spaces(mesh)
    cn_traj = run(SchemeConfig(scheme="CN", case=1, nu=0.5, T=0.25, N=2),
                  spaces, tg_like())
    cn_norms = trajectory_norms(cn_traj, spaces)
    results = [
        _rule_exactness(),
        _mesh_volume(),
        _mesh_conformity(),
        _projection_idempotence(spaces),
        *_skew_symmetry(spaces),
        _convection_tensor(spaces),
        _saddle_apply(spaces),
        _gap_identity(spaces),
        _local_energy_quadform(spaces),
        _local_energy_flux(spaces),
        _energy_identity(cn_norms, cn_traj.config),
        _divergence_bound(spaces, cn_traj, cn_norms),
        _gradient_div_duality(spaces),
    ]
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        print(f"{status} {r.name:32s} measured {r.measured:.3e} "
              f"(bound {r.bound:.0e})")
    return results
