"""Residuals, bounds and monitors evaluated on a completed trajectory.

Everything here is a pure function of the trajectory and the spaces it
was computed on.  The monitors fall into four groups:

* per-step and global energy balances of the midpoint schemes;
* pressure-size ratios against the velocity norms that control them;
* the localized energy balance tested against a family of nonnegative
  space-time functions (smooth positive spatial factors times
  polynomial time bumps vanishing at both ends);
* the explicit-scheme stability monitor xi^m = |u^m|^2 + |u^m-u^{m-1}|^2/4
  with its decay recursion, plus the first-step bound of that scheme.

Reports serialize to a flat name<TAB>value text for quick diffing and
to a JSON document that keeps the per-step arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .fespace import (pressure_l2, pressure_values, velocity_gradients,
                      velocity_h1, velocity_h1_semi, velocity_l2, velocity_l3,
                      velocity_values)
from .interpolants import InterpolantSet, gap_l2, increment_sum
from .steppers import DiscreteTrajectory, StepperError, check_coupling
from .trig import TrigPoly

#: 3-point Gauss-Legendre nodes/weights on [0, 1].
_GAUSS3_X = 0.5 * (1.0 + np.array([-np.sqrt(3.0 / 5.0), 0.0,
                                   np.sqrt(3.0 / 5.0)]))
_GAUSS3_W = 0.5 * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


# ---------------------------------------------------------------------------
# energy balances
# ---------------------------------------------------------------------------

def energy_residuals(trajectory: DiscreteTrajectory, spaces) -> np.ndarray:
    """Per-step balance  (|u^m|^2 - |u^{m-1}|^2)/2 + nu dt |grad u^{m,1/2}|^2.

    Zero to solver tolerance for the midpoint schemes; for the explicit
    scheme the values are reported raw (no identity holds).
    """
    cfg = trajectory.config
    u = trajectory.u
    return (0.5 * np.diff(velocity_l2(spaces, u) ** 2)
            + cfg.nu * cfg.dt
            * velocity_h1_semi(spaces, 0.5 * (u[1:] + u[:-1])) ** 2)


def dissipation_integral(trajectory: DiscreteTrajectory, spaces) -> float:
    """nu * integral over [0,T] of |grad u|^2 for the midpoint field."""
    cfg = trajectory.config
    u = trajectory.u
    return cfg.nu * cfg.dt * float(
        (velocity_h1_semi(spaces, 0.5 * (u[1:] + u[:-1])) ** 2).sum())


def global_energy_defect(trajectory: DiscreteTrajectory, spaces,
                         u0_norm_sq: float | None = None) -> float:
    """|v(T)|^2/2 + dissipation - |u0|^2/2; nonpositive when the global
    balance holds.  `u0_norm_sq` defaults to the discrete initial energy,
    in which case the midpoint schemes return a roundoff-size value."""
    first, final = velocity_l2(spaces, trajectory.u[[0, -1]]) ** 2
    if u0_norm_sq is None:
        u0_norm_sq = first
    return float(0.5 * final + dissipation_integral(trajectory, spaces)
                 - 0.5 * u0_norm_sq)


# ---------------------------------------------------------------------------
# pressure control
# ---------------------------------------------------------------------------

def pressure_ratios(trajectory: DiscreteTrajectory, spaces) -> np.ndarray:
    """|p^m|_2 / (|u^{m,1/2}|_H1 + |u^{m,1/2}|_3 |u^{m,1/2}|_H1) per step."""
    u = trajectory.u
    mid = 0.5 * (u[1:] + u[:-1])
    h1 = velocity_h1(spaces, mid)
    denom = h1 + np.array([velocity_l3(spaces, z) for z in mid]) * h1
    p = pressure_l2(spaces, trajectory.p)
    unbalanced = (denom == 0.0) & (p > 0.0)
    if unbalanced.any():
        raise StepperError("nonzero pressure with zero velocity",
                           step=int(np.argmax(unbalanced)) + 1)
    return np.divide(p, denom, out=np.zeros_like(p), where=denom != 0.0)


# ---------------------------------------------------------------------------
# local energy balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeBump:
    """(t (T - t))^power, normalized to peak value 1; vanishes at 0, T."""

    T: float
    power: int = 2

    @property
    def name(self) -> str:
        return f"bump{self.power}"

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return (t * (self.T - t)) ** self.power / (self.T ** 2 / 4.0) ** self.power

    def dvalue(self, t):
        t = np.asarray(t, dtype=float)
        core = (t * (self.T - t)) ** (self.power - 1) * (self.T - 2.0 * t)
        return self.power * core / (self.T ** 2 / 4.0) ** self.power


@dataclass(frozen=True)
class SpaceTimeTest:
    """Separated test function psi(x) * eta(t), psi >= 0, eta >= 0."""

    name: str
    psi: TrigPoly
    eta: TimeBump


def default_test_family(T: float) -> list[SpaceTimeTest]:
    """Twelve tests: six strictly positive spatial factors, two bumps."""
    one = TrigPoly.constant(1.0)
    half = 0.5
    psis = [
        ("const", one),
        ("1+cx/2", one + TrigPoly.cosine((1, 0, 0), half)),
        ("1+cy/2", one + TrigPoly.cosine((0, 1, 0), half)),
        ("1+cz/2", one + TrigPoly.cosine((0, 0, 1), half)),
        ("(1+cx/2)(1+cy/2)", (one + TrigPoly.cosine((1, 0, 0), half))
         * (one + TrigPoly.cosine((0, 1, 0), half))),
        ("(1+cy/2)(1+cz/2)", (one + TrigPoly.cosine((0, 1, 0), half))
         * (one + TrigPoly.cosine((0, 0, 1), half))),
    ]
    bumps = [TimeBump(T, 2), TimeBump(T, 4)]
    return [SpaceTimeTest(name=f"{pn}*{b.name}", psi=p, eta=b)
            for pn, p in psis for b in bumps]


def local_energy_residuals(trajectory: DiscreteTrajectory, spaces,
                           tests) -> np.ndarray:
    """Right side minus left side of the localized balance, per test.

    With u the piecewise-constant midpoint field and p the piecewise
    constant pressure,

        residual = int [ |u|^2/2 (dphi/dt + nu lap phi)
                         + (|u|^2/2 + p) u . grad phi ]
                   - nu int |grad u|^2 phi.

    Nonnegative (up to tolerance) means the discrete fields satisfy the
    localized inequality for that test function.  Time integration uses
    3-point Gauss per subinterval on the smooth time factor; spatial
    integrals use the package rule.  Tests must be nonnegative at every
    quadrature point, otherwise the input is rejected.
    """
    cfg = trajectory.config
    nu, dt, N = cfg.nu, cfg.dt, trajectory.n_steps
    pts = spaces.tables.quad_points
    w = spaces.tables.w_phys

    # weighted by the quadrature rule: one product integrates all tests
    psi_w = np.empty((len(tests),) + pts.shape[:2])
    lap_w = np.empty_like(psi_w)
    grad_w = np.empty((len(tests),) + pts.shape)
    for i, test in enumerate(tests):
        psi_v = test.psi.value(pts)
        if psi_v.min() < 0.0:
            raise ValueError(f"test {test.name}: spatial factor is negative")
        np.multiply(psi_v, w, out=psi_w[i])
        np.multiply(test.psi.laplacian().value(pts), w, out=lap_w[i])
        np.multiply(test.psi.grad(pts), w[:, None], out=grad_w[i])
    psi_w, lap_w, grad_w = (a.reshape(len(tests), -1)
                            for a in (psi_w, lap_w, grad_w))
    t_nodes = (np.arange(N)[:, None] + _GAUSS3_X[None, :]) * dt
    eta_int = np.empty((len(tests), N))
    deta_int = np.empty((len(tests), N))
    for i, test in enumerate(tests):
        ev = test.eta.value(t_nodes)
        if ev.min() < -1e-15:
            raise ValueError(f"test {test.name}: time factor is negative")
        eta_int[i] = dt * ev @ _GAUSS3_W
        deta_int[i] = dt * test.eta.dvalue(t_nodes) @ _GAUSS3_W

    out = np.zeros(len(tests))
    for m in range(1, N + 1):
        z = trajectory.midpoint(m)
        zv = velocity_values(spaces, z)
        zg = velocity_gradients(spaces, z)
        pv = pressure_values(spaces, trajectory.p[m - 1])
        ke = 0.5 * (zv ** 2).sum(-1)
        gradsq = (zg ** 2).sum((-1, -2)).ravel()
        flux = ((ke + pv)[..., None] * zv).ravel()
        ke = ke.ravel()
        rhs_t = (psi_w @ ke) * deta_int[:, m - 1]
        rhs_x = (nu * (lap_w @ ke) + grad_w @ flux) * eta_int[:, m - 1]
        lhs = nu * (psi_w @ gradsq) * eta_int[:, m - 1]
        out += rhs_t + rhs_x - lhs
    return out


# ---------------------------------------------------------------------------
# explicit-scheme monitors
# ---------------------------------------------------------------------------

@dataclass
class CnabMonitor:
    xi: np.ndarray                 # xi^m for m = 1..N
    monotone: bool                 # xi nonincreasing from m = 2 on
    first_violation: int | None    # step index of the first increase
    weighted_ok: bool              # (1 + dt/(2 c1^2)) xi^m <= xi^{m-1}
    weighted_first_violation: int | None
    max_state_sq: float            # max_m |u^m|^2
    increment_sum: float
    increment_within_32max: bool   # sum |u^m - u^{m-1}|^2 <= 32 max_m |u^m|^2


def cnab_monitor(trajectory: DiscreteTrajectory, spaces,
                 c1: float) -> CnabMonitor:
    if not c1 > 0:
        raise ValueError("c1 must be positive")
    cfg = trajectory.config
    norms_sq = velocity_l2(spaces, trajectory.u) ** 2
    incr_sq = velocity_l2(spaces, np.diff(trajectory.u, axis=0)) ** 2
    xi = norms_sq[1:] + 0.25 * incr_sq
    growth = 1.0 + cfg.dt / (2.0 * c1 ** 2)

    def first_bad(factor):
        # step m compares factor * xi^m with xi^{m-1}, for m = 2..N
        a, b = factor * xi[1:], xi[:-1]
        bad = ~np.isfinite(a) | ~np.isfinite(b) | (a > b * (1 + 1e-12))
        return int(np.argmax(bad)) + 2 if bad.any() else None

    v_plain = first_bad(1.0)
    v_weighted = first_bad(growth)
    max_sq = float(np.max(norms_sq)) if np.all(np.isfinite(norms_sq)) else np.inf
    inc_total = float(incr_sq.sum())
    return CnabMonitor(
        xi=xi, monotone=v_plain is None, first_violation=v_plain,
        weighted_ok=v_weighted is None, weighted_first_violation=v_weighted,
        max_state_sq=max_sq, increment_sum=inc_total,
        increment_within_32max=bool(np.isfinite(inc_total)
                                    and inc_total <= 32.0 * max_sq))


@dataclass
class FirstStepCheck:
    lhs: float
    rhs: float

    @property
    def value(self) -> float:
        return self.lhs - self.rhs


def cnab_first_step_check(trajectory: DiscreteTrajectory, spaces,
                          h: float) -> FirstStepCheck:
    """First-step bound |u^1|^2/2 + (nu dt/4)|grad u^1|^2 against
    (1/2 + nu dt/(4 h^2)) |u^0|^2; nonpositive for a stable start."""
    cfg = trajectory.config
    l2_sq = velocity_l2(spaces, trajectory.u[:2]) ** 2
    lhs = (0.5 * l2_sq[1] + 0.25 * cfg.nu * cfg.dt
           * velocity_h1_semi(spaces, trajectory.u[1]) ** 2)
    rhs = (0.5 + cfg.nu * cfg.dt / (4.0 * h ** 2)) * l2_sq[0]
    return FirstStepCheck(lhs=float(lhs), rhs=float(rhs))


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

@dataclass
class DiagnosticsReport:
    scheme: str
    case: int
    nu: float
    T: float
    N: int
    dt: float
    h: float
    u0_l2_discrete: float
    u0_h1_discrete: float  # enters the constant of the increment bound
    u0_l2_analytic: float | None
    energy_residuals: np.ndarray
    max_energy_residual: float
    global_defect_discrete: float
    global_defect_analytic: float | None
    increment_sum: float
    increment_normalized: float
    gap_l2: float
    pressure_ratios: np.ndarray
    pressure_ratio_max: float
    divergence_max_rel: float
    coupling: dict
    local_energy: dict | None = None
    local_energy_min: float | None = None
    cnab: CnabMonitor | None = None
    first_step_check: FirstStepCheck | None = None
    picard_iters: np.ndarray = field(default_factory=lambda: np.zeros(0))
    step_residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))

    # -- serialization -------------------------------------------------
    def scalar_items(self):
        items = [
            ("scheme", self.scheme), ("case", self.case), ("nu", self.nu),
            ("T", self.T), ("N", self.N), ("dt", self.dt), ("h", self.h),
            ("u0_l2_discrete", self.u0_l2_discrete),
            ("u0_h1_discrete", self.u0_h1_discrete),
            ("u0_l2_analytic", self.u0_l2_analytic),
            ("max_energy_residual", self.max_energy_residual),
            ("global_defect_discrete", self.global_defect_discrete),
            ("global_defect_analytic", self.global_defect_analytic),
            ("increment_sum", self.increment_sum),
            ("increment_normalized", self.increment_normalized),
            ("gap_l2", self.gap_l2),
            ("pressure_ratio_max", self.pressure_ratio_max),
            ("divergence_max_rel", self.divergence_max_rel),
            ("local_energy_min", self.local_energy_min),
        ]
        for k, v in self.coupling.items():
            items.append((f"coupling.{k}", v))
        if self.cnab is not None:
            items += [("cnab.monotone", self.cnab.monotone),
                      ("cnab.first_violation", self.cnab.first_violation),
                      ("cnab.weighted_ok", self.cnab.weighted_ok),
                      ("cnab.max_state_sq", self.cnab.max_state_sq),
                      ("cnab.increment_within_32max",
                       self.cnab.increment_within_32max)]
        if self.first_step_check is not None:
            items += [("first_step.lhs", self.first_step_check.lhs),
                      ("first_step.rhs", self.first_step_check.rhs),
                      ("first_step.value", self.first_step_check.value)]
        return items

    def to_tab_text(self) -> str:
        lines = []
        for k, v in self.scalar_items():
            if isinstance(v, float):
                lines.append(f"{k}\t{v:.17g}")
            else:
                lines.append(f"{k}\t{v}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        def conv(x):
            if isinstance(x, np.ndarray):
                return x.tolist()
            if isinstance(x, (np.floating, np.integer)):
                return x.item()
            return x
        doc = {k: conv(v) for k, v in self.scalar_items()}
        doc["energy_residuals"] = conv(self.energy_residuals)
        doc["pressure_ratios"] = conv(self.pressure_ratios)
        doc["picard_iters"] = conv(self.picard_iters)
        doc["step_residuals"] = conv(self.step_residuals)
        if self.local_energy is not None:
            doc["local_energy"] = {k: conv(v)
                                   for k, v in self.local_energy.items()}
        if self.cnab is not None:
            doc["cnab_xi"] = conv(self.cnab.xi)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True)


def build_report(trajectory: DiscreteTrajectory, spaces,
                 u0_norm: float | None = None,
                 with_local_energy: bool = True,
                 cn_threshold: float = 1.0) -> DiagnosticsReport:
    """Evaluate every monitor that applies to the trajectory's scheme."""
    cfg = trajectory.config
    iset = InterpolantSet(trajectory, spaces)
    res = energy_residuals(trajectory, spaces)
    pr = pressure_ratios(trajectory, spaces)
    inc = increment_sum(iset)
    div_rel = np.inf
    if np.all(np.isfinite(trajectory.u)):
        scale = velocity_h1(spaces, trajectory.u)
        div = forms.divergence_norm(spaces, trajectory.u)
        # fmax skips the NaN of a norm that overflowed (inf / inf)
        div_rel = np.fmax.reduce(div[scale > 0] / scale[scale > 0],
                                 initial=0.0)

    u0_disc = velocity_l2(spaces, trajectory.u[0])
    local = None
    local_min = None
    if with_local_energy:
        tests = default_test_family(cfg.T)
        vals = local_energy_residuals(trajectory, spaces, tests)
        local = {t.name: float(v) for t, v in zip(tests, vals)}
        local_min = float(vals.min())

    cnab = None
    fstep = None
    if cfg.scheme == "CNAB":
        cnab = cnab_monitor(trajectory, spaces, cfg.c1)
        fstep = cnab_first_step_check(trajectory, spaces, trajectory.h)

    coupling = check_coupling(cfg, trajectory.h,
                              u0_norm if u0_norm is not None else u0_disc,
                              cn_threshold=cn_threshold).as_dict()
    return DiagnosticsReport(
        scheme=cfg.scheme, case=cfg.case, nu=cfg.nu, T=cfg.T, N=cfg.N,
        dt=cfg.dt, h=trajectory.h,
        u0_l2_discrete=float(u0_disc),
        u0_h1_discrete=float(velocity_h1(spaces, trajectory.u[0])),
        u0_l2_analytic=None if u0_norm is None else float(u0_norm),
        energy_residuals=res,
        max_energy_residual=float(np.abs(res).max()) if res.size else 0.0,
        global_defect_discrete=global_energy_defect(trajectory, spaces),
        global_defect_analytic=(None if u0_norm is None else
                                global_energy_defect(trajectory, spaces,
                                                     u0_norm ** 2)),
        increment_sum=float(inc),
        increment_normalized=float(inc / (cfg.dt + trajectory.h ** -0.5)),
        gap_l2=float(gap_l2(iset)),
        pressure_ratios=pr,
        pressure_ratio_max=float(pr.max()) if pr.size else 0.0,
        divergence_max_rel=float(div_rel),
        coupling=coupling,
        local_energy=local,
        local_energy_min=local_min,
        cnab=cnab,
        first_step_check=fstep,
        picard_iters=trajectory.picard_iters,
        step_residuals=trajectory.residuals,
    )
