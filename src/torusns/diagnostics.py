"""Residuals, bounds and monitors evaluated on a completed trajectory.

Everything here is a pure function of the trajectory and the spaces it
was computed on.  The energy balances, the pressure ratios and the
explicit-scheme monitors are arithmetic on the trajectory's norms
(`interpolants.trajectory_norms`, evaluated once per report) and its
configuration; the localized balance is assembled quadratic forms but
for its cubic flux, which with the midpoint L3 norms is all that goes
back to the fields' samples, one Kuhn type at a time, in blocks of
midpoints.  The monitors fall into four groups:

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
from dataclasses import dataclass, field, fields

import numpy as np

from . import forms
from .fespace import (_product_table, _samples_of_type, _scalar_quadform,
                      _values_of_type, _weighted_matrix)
from .interpolants import (TrajectoryNorms, _step_blocks, gap_l2,
                           increment_sum, trajectory_norms)
from .steppers import (CouplingReport, DiscreteTrajectory, StepperError,
                       check_coupling)
from .trig import TrigPoly

#: 3-point Gauss-Legendre nodes/weights on [0, 1].
_GAUSS3_X = 0.5 * (1.0 + np.array([-np.sqrt(3.0 / 5.0), 0.0,
                                   np.sqrt(3.0 / 5.0)]))
_GAUSS3_W = 0.5 * np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])


# ---------------------------------------------------------------------------
# energy balances
# ---------------------------------------------------------------------------

def energy_residuals(norms: TrajectoryNorms, config) -> np.ndarray:
    """Per-step balance  (|u^m|^2 - |u^{m-1}|^2)/2 + nu dt |grad u^{m,1/2}|^2.

    Zero to solver tolerance for the midpoint schemes; for the explicit
    scheme the values are reported raw (no identity holds).
    """
    return (0.5 * np.diff(norms.state_l2 ** 2)
            + config.nu * config.dt * norms.midpoint_h1_semi ** 2)


def global_energy_defect(norms: TrajectoryNorms, config,
                         u0_norm_sq: float | None = None) -> float:
    """|v(T)|^2/2 + nu int_0^T |grad u|^2 - |u0|^2/2 for the midpoint
    field u; nonpositive when the global balance holds.  `u0_norm_sq`
    defaults to the discrete initial energy, in which case the midpoint
    schemes return a roundoff-size value."""
    first, final = norms.state_l2[[0, -1]] ** 2
    if u0_norm_sq is None:
        u0_norm_sq = first
    dissipation = config.nu * config.dt * float(
        (norms.midpoint_h1_semi ** 2).sum())
    return float(0.5 * final + dissipation - 0.5 * u0_norm_sq)


# ---------------------------------------------------------------------------
# pressure control
# ---------------------------------------------------------------------------

def pressure_ratios(norms: TrajectoryNorms, l3) -> np.ndarray:
    """|p^m|_2 / (|u^{m,1/2}|_H1 + |u^{m,1/2}|_3 |u^{m,1/2}|_H1) per step,
    given the midpoint L3 norms `l3` (from `local_energy_residuals`)."""
    h1 = np.hypot(norms.midpoint_l2, norms.midpoint_h1_semi)
    denom = h1 + l3 * h1
    p = norms.pressure_l2
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


def _balance_matrices(spaces, nu, psi):
    """K_t = (psi N_a, N_b)/2 and K_x = nu [(lap psi N_a, N_b)/2 - (psi grad
    N_a, grad N_b)] of a spatial factor psi (TrigPoly, weights by exact
    algebra): summed over the components of u, their quadratic forms are the
    rule's int psi |u|^2/2 and nu int (lap psi |u|^2/2 - psi |grad u|^2)."""
    t, pattern = spaces.tables, spaces.velocity.pattern
    mass = _product_table(t.N, t.N)
    stiffness = _product_table(t.grad, t.grad).sum(-1, keepdims=True)
    return (_weighted_matrix(spaces, [0.5 * psi], mass, pattern),
            _weighted_matrix(spaces, [(0.5 * nu) * psi.laplacian(), -nu * psi],
                             np.concatenate([mass, stiffness], -1), pattern))


#: midpoints per block of the flux and L3 loop: one Kuhn type's samples of
#: a block, (2, 3, E/6, Q), are a third of one midpoint's (E, Q, 3), so a
#: type's pass holds less than a per-midpoint loop would
BLOCK = 2


def _flux_gradient_table(spaces, psis, k):
    """The rule-weighted psi gradients the flux reads at Kuhn type k's
    points: a list of (c, rows, table) with table[i] = w_q d_c psi_rows[i],
    (len(rows), n_k Q), for every component c of which some factor's
    derivative is not identically zero, and only for those factors (a
    constant factor has no block)."""
    t = spaces.tables
    gradients = [psi.gradient() for psi in psis]
    samples = [_values_of_type(spaces, g, k) for g in gradients]  # (n_k, Q, 3)
    return [(c, np.array(rows), np.stack(
        [(samples[j][..., c] * t.w_phys).ravel() for j in rows]))
        for c in range(3) if (rows := [j for j, g in enumerate(gradients)
                                       if g.components[c].modes])]


@np.errstate(over="ignore", invalid="ignore")
def _flux_and_l3(spaces, u, p, psis):
    """The flux int (|z|^2/2 + p) z . grad psi of every factor in `psis`
    and the L3 norm |z|_3, at every midpoint z = (u[m] + u[m-1])/2 of the
    states `u` with its pressure p[m-1]: (len(psis), N) and (N,).

    One Kuhn type at a time: its gradient table (`_flux_gradient_table`)
    is built at the start of its pass and dropped at the end, and blocks
    of BLOCK midpoints go through the type-major kernel: the block's
    samples at the type's points, |z|^2, the type's share of |z|_3^3, the
    flux density (|z|^2/2 + p) z in place, then one product per nonzero
    gradient block.  Every entry still adds its types' terms in type
    order.  Without factors the pressure is not sampled.  A state near
    the float maximum overflows |z|^2 and the flux to inf without a
    warning: the report records it."""
    t = spaces.tables
    N = len(u) - 1
    cube = np.zeros(N)
    flux = np.zeros((len(psis), N))
    for k in range(6):
        table = _flux_gradient_table(spaces, psis, k)
        for block, _, z in _step_blocks(u, BLOCK):
            zv = _samples_of_type(z.reshape(len(z), 3, -1),
                                  spaces.velocity.dofmap, t.N, k)[..., 0]
            speed_sq = zv[:, 0] ** 2 + zv[:, 1] ** 2 + zv[:, 2] ** 2
            # |z|^3 as |z|^2 |z|: half the rounding error of sqrt(.)**3,
            # and 7x faster than its pow
            cube[block] += ((speed_sq * np.sqrt(speed_sq)) @ t.w_phys).sum(-1)
            if psis:
                # the flux density, in place
                zv *= (0.5 * speed_sq + _samples_of_type(
                    p[block][:, None], spaces.pressure.dofmap, t.N,
                    k)[:, 0, ..., 0])[:, None]
                for c, rows, g in table:
                    flux[rows, block] += g @ zv[:, c].reshape(len(zv), -1).T
            # drop this block's samples before the next block's exist
            del zv, speed_sq
        # and this type's table before the next type's
        del table
    return flux, cube ** (1 / 3)


def local_energy_residuals(trajectory: DiscreteTrajectory, spaces,
                           tests) -> tuple[np.ndarray, np.ndarray]:
    """Right side minus left side of the localized balance, per test, and
    the L3 norm |u^{m,1/2}|_3 of every midpoint.

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

    Every term but the cubic flux is a `_balance_matrices` form of a
    distinct spatial factor, all factors' forms at once over blocks of
    ROWS midpoints (two products each, whose gathers the matrices share,
    and a row's value bitwise that of the whole stack); the flux and L3
    go to the samples one Kuhn type at a time, in blocks of BLOCK
    midpoints (`_flux_and_l3`).  No stack of all midpoints is made.  With
    no tests only L3 is computed.
    """
    cfg = trajectory.config
    nu, dt, N = cfg.nu, cfg.dt, trajectory.n_steps
    # tests sharing a spatial factor share its matrices and flux row
    psis = list(dict.fromkeys(test.psi for test in tests))
    row = [psis.index(test.psi) for test in tests]
    # each factor's least value at the points, one Kuhn type at a time
    psi_min = [min(_values_of_type(spaces, psi, k).min() for k in range(6))
               for psi in psis]
    for test, i in zip(tests, row):
        if psi_min[i] < 0.0:
            raise ValueError(f"test {test.name}: spatial factor is negative")
    t_nodes = (np.arange(N)[:, None] + _GAUSS3_X[None, :]) * dt
    eta_int = np.empty((len(tests), N))
    deta_int = np.empty((len(tests), N))
    for i, test in enumerate(tests):
        ev = test.eta.value(t_nodes)
        if ev.min() < -1e-15:
            raise ValueError(f"test {test.name}: time factor is negative")
        eta_int[i] = dt * ev @ _GAUSS3_W
        deta_int[i] = dt * test.eta.dvalue(t_nodes) @ _GAUSS3_W
    flux, l3 = _flux_and_l3(spaces, trajectory.u, trajectory.p, psis)
    if not tests:
        return np.zeros(0), l3
    # the K_t and K_x forms of every factor, on one gather per block
    matrices = [K for psi in psis for K in _balance_matrices(spaces, nu, psi)]
    forms = np.empty((len(matrices), N))
    for steps, _, mids in _step_blocks(trajectory.u):
        forms[:, steps] = _scalar_quadform(matrices, mids, spaces.n_scalar)
    rate, diffusion = forms[0::2], forms[1::2]
    return (np.vecdot(rate[row], deta_int)
            + np.vecdot((diffusion + flux)[row], eta_int)), l3


# ---------------------------------------------------------------------------
# explicit-scheme monitors
# ---------------------------------------------------------------------------

#: field metadata of the serialized dataclasses (see DiagnosticsReport): a
#: field that only report.json holds, and one that no artifact holds
_JSON_ONLY = {"json_only": True}
_UNSERIALIZED = {"unserialized": True}


@dataclass
class CnabMonitor:
    xi: np.ndarray = field(metadata=_JSON_ONLY)  # xi^m for m = 1..N
    monotone: bool                 # xi nonincreasing from m = 2 on
    first_violation: int | None    # step index of the first increase
    weighted_ok: bool              # (1 + dt/(2 c1^2)) xi^m <= xi^{m-1}
    max_state_sq: float            # max_m |u^m|^2
    increment_within_32max: bool   # sum |u^m - u^{m-1}|^2 <= 32 max_m |u^m|^2


def cnab_monitor(norms: TrajectoryNorms, config) -> CnabMonitor:
    """xi^m and its decay tests, with the configured step parameter c1."""
    state_sq = norms.state_l2 ** 2
    incr_sq = norms.increment_l2 ** 2
    xi = state_sq[1:] + 0.25 * incr_sq
    growth = 1.0 + config.dt / (2.0 * config.c1 ** 2)

    def first_bad(factor):
        # step m compares factor * xi^m with xi^{m-1}, for m = 2..N
        a, b = factor * xi[1:], xi[:-1]
        bad = ~np.isfinite(a) | ~np.isfinite(b) | (a > b * (1 + 1e-12))
        return int(np.argmax(bad)) + 2 if bad.any() else None

    v_plain = first_bad(1.0)
    max_sq = float(np.max(state_sq)) if np.all(np.isfinite(state_sq)) else np.inf
    inc_total = float(incr_sq.sum())
    return CnabMonitor(
        xi=xi, monotone=v_plain is None, first_violation=v_plain,
        weighted_ok=first_bad(growth) is None, max_state_sq=max_sq,
        increment_within_32max=bool(np.isfinite(inc_total)
                                    and inc_total <= 32.0 * max_sq))


@dataclass
class FirstStepCheck:
    lhs: float
    rhs: float
    value: float                   # lhs - rhs


def cnab_first_step_check(norms: TrajectoryNorms, config,
                          h: float) -> FirstStepCheck:
    """First-step bound |u^1|^2/2 + (nu dt/4)|grad u^1|^2 against
    (1/2 + nu dt/(4 h^2)) |u^0|^2; nonpositive for a stable start."""
    nu, dt = config.nu, config.dt
    l2_sq = norms.state_l2[:2] ** 2
    lhs = float(0.5 * l2_sq[1] + 0.25 * nu * dt * norms.state_h1_semi[1] ** 2)
    rhs = float((0.5 + nu * dt / (4.0 * h ** 2)) * l2_sq[0])
    return FirstStepCheck(lhs=lhs, rhs=rhs, value=lhs - rhs)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def _serialized_items(obj, section=None):
    """(name, value, json_only) of the serialized fields of the dataclass
    `obj`, in field order, by the rule of DiagnosticsReport."""
    for f in fields(obj):
        value, meta = getattr(obj, f.name), f.metadata
        if "section" in meta:
            if value is not None:
                yield from _serialized_items(value, meta["section"])
        elif meta.get("json_only"):
            if value is not None:
                yield f"{section}_{f.name}" if section else f.name, value, True
        elif not meta.get("unserialized"):
            yield f"{section}.{f.name}" if section else f.name, value, False


def _json_value(x):
    """x with its numpy arrays and scalars as lists and Python scalars."""
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    return x.tolist() if isinstance(x, (np.ndarray, np.generic)) else x


@dataclass(kw_only=True)
class DiagnosticsReport:
    """Every monitor of a trajectory, serialized field by field.

    The fields' order is report.txt's line order.  A section field
    (`coupling`, `cnab`, `first_step_check`) contributes its dataclass's
    fields as `section.field`, under the section's name (`first_step` for
    the first-step check), and nothing when it is None.  A `_JSON_ONLY`
    field -- the per-step arrays, the per-test `local_energy` values and
    `cnab`'s `xi`, keyed `cnab_xi` -- goes to report.json only, and is
    left out when None; every other field goes to both, None included
    (`local_energy_min` of a report without local energy).  `norms` goes
    to neither.
    """

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
    energy_residuals: np.ndarray = field(metadata=_JSON_ONLY)
    max_energy_residual: float
    global_defect_discrete: float
    global_defect_analytic: float | None
    increment_sum: float
    increment_normalized: float
    gap_l2: float
    pressure_ratios: np.ndarray = field(metadata=_JSON_ONLY)
    pressure_ratio_max: float
    divergence_max_rel: float
    local_energy: dict | None = field(metadata=_JSON_ONLY)
    local_energy_min: float | None
    coupling: CouplingReport = field(metadata={"section": "coupling"})
    # what the monitors read
    norms: TrajectoryNorms = field(metadata=_UNSERIALIZED)
    cnab: CnabMonitor | None = field(metadata={"section": "cnab"})
    first_step_check: FirstStepCheck | None = field(
        metadata={"section": "first_step"})
    picard_iters: np.ndarray = field(metadata=_JSON_ONLY)
    step_residuals: np.ndarray = field(metadata=_JSON_ONLY)

    # -- serialization -------------------------------------------------
    def to_tab_text(self) -> str:
        return "".join(f"{k}\t{v:.17g}\n" if isinstance(v, float)
                       else f"{k}\t{v}\n"
                       for k, v, json_only in _serialized_items(self)
                       if not json_only)

    def to_json_dict(self) -> dict:
        return {k: _json_value(v) for k, v, _ in _serialized_items(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True)


def build_report(trajectory: DiscreteTrajectory, spaces,
                 u0_norm: float | None = None,
                 with_local_energy: bool = True,
                 cn_threshold: float = 1.0) -> DiagnosticsReport:
    """Evaluate every monitor that applies to the trajectory's scheme."""
    cfg, h = trajectory.config, spaces.h
    norms = trajectory_norms(trajectory, spaces)
    res = energy_residuals(norms, cfg)
    tests = default_test_family(cfg.T) if with_local_energy else []
    vals, l3 = local_energy_residuals(trajectory, spaces, tests)
    pr = pressure_ratios(norms, l3)
    inc = increment_sum(norms)
    state_h1 = np.hypot(norms.state_l2, norms.state_h1_semi)
    div_rel = np.inf
    if np.all(np.isfinite(trajectory.u)):
        div = forms.divergence_norm(spaces, trajectory.u)
        positive = state_h1 > 0
        # fmax skips the NaN of a norm that overflowed (inf / inf)
        div_rel = np.fmax.reduce(div[positive] / state_h1[positive],
                                 initial=0.0)

    u0_disc = norms.state_l2[0]
    local = None
    local_min = None
    if with_local_energy:
        local = {t.name: float(v) for t, v in zip(tests, vals)}
        local_min = float(vals.min())

    cnab = None
    fstep = None
    if cfg.scheme == "CNAB":
        cnab = cnab_monitor(norms, cfg)
        fstep = cnab_first_step_check(norms, cfg, h)

    coupling = check_coupling(cfg, h,
                              u0_norm if u0_norm is not None else u0_disc,
                              cn_threshold=cn_threshold)
    return DiagnosticsReport(
        scheme=cfg.scheme, case=cfg.case, nu=cfg.nu, T=cfg.T, N=cfg.N,
        dt=cfg.dt, h=h,
        u0_l2_discrete=float(u0_disc),
        u0_h1_discrete=float(state_h1[0]),
        u0_l2_analytic=None if u0_norm is None else float(u0_norm),
        energy_residuals=res,
        max_energy_residual=float(np.abs(res).max()) if res.size else 0.0,
        global_defect_discrete=global_energy_defect(norms, cfg),
        global_defect_analytic=(None if u0_norm is None else
                                global_energy_defect(norms, cfg,
                                                     u0_norm ** 2)),
        increment_sum=float(inc),
        increment_normalized=float(inc / (cfg.dt + h ** -0.5)),
        gap_l2=float(gap_l2(norms, cfg)),
        pressure_ratios=pr,
        pressure_ratio_max=float(pr.max()) if pr.size else 0.0,
        divergence_max_rel=float(div_rel),
        coupling=coupling,
        norms=norms,
        local_energy=local,
        local_energy_min=local_min,
        cnab=cnab,
        first_step_check=fstep,
        picard_iters=trajectory.picard_iters,
        step_residuals=trajectory.residuals,
    )
