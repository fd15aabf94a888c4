"""Second-order time discretizations of the incompressible flow problem.

Three schemes advance a trajectory on the uniform net t_m = m*dt:

* CN   -- implicit midpoint: the convective term couples the midpoint
  field to itself and is resolved by Picard iteration with the
  advecting slot frozen at the previous iterate.  Every iterate keeps
  the antisymmetric convection structure, so the step energy balance
  holds whether or not the iteration has fully converged.
* CNLE -- linearly implicit: the advecting field is extrapolated as
  (3 u^{m-1} - u^{m-2}) / 2 and the step is a single solve.
* CNAB -- convection fully explicit (3/2, -1/2 combination); the step
  matrix is time-independent, and its block solver is made once.

CNLE and CNAB take their first step with CN so the two-level history
exists; both are defined with the symmetrized (case 1) convective form.
Each solved velocity is discretely divergence-free and componentwise
mean-free, enforced through the constraint rows of the saddle system.

A trajectory factorizes nothing.  Its zero-advection (CNAB) system is
invariant under cell shifts and is solved by its lattice Fourier blocks
(`linsolve.LatticeSolver`): CNAB solves with them directly, and every
frozen-advection solve of CN and CNLE runs GMRES preconditioned with
them, each from the previous solve's answer.  The initial datum is
projected by the blocks of its own system, with velocity block M
(`forms.project_div_free`).  An answer the guards reject raises
`linsolve.LinearSolveError`, which ends the run.
All its saddle systems share one set of constraint blocks
(`linsolve.SaddleConstraints`) and differ only in their velocity block
F, which also fixes the right-hand side, Crank-Nicolson's (2M/dt - F)
u^{m-1} (less CNAB's explicit convection): an iterate assembles its
convection from the per-type tensors of `forms` into a fixed pattern,
halves it and adds F0's entries in place, so no iterate samples a
field, converts a sparse format or builds a block matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms
from .fespace import project_velocity, velocity_l2
from .linsolve import (LinearSolveError, SaddleConstraints, SaddleSolution,
                       SaddleSystem)

SCHEMES = ("CN", "CNLE", "CNAB")


class ConfigError(ValueError):
    pass


class StepperError(RuntimeError):
    def __init__(self, message, step=None, history=None):
        super().__init__(message)
        self.step = step
        self.history = history or []


@dataclass
class SchemeConfig:
    scheme: str = "CN"
    case: int = 1
    nu: float = 1.0
    T: float = 1.0
    N: int = 16
    picard_tol: float = 1e-10
    picard_max_iters: int = 50
    c1: float = 1.0          # explicit-scheme step-size parameter
    C_cnle: float = 1.0      # constant in the extrapolated-scheme bound

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}")
        if self.case not in (1, 2, 3):
            raise ConfigError("convective case must be 1, 2 or 3")
        if self.scheme != "CN" and self.case != 1:
            raise ConfigError(f"{self.scheme} is defined with the "
                              "symmetrized convective form (case 1)")
        if not 0 < self.nu < np.inf:
            raise ConfigError("viscosity must be positive and finite")
        if not 0 < self.T < np.inf:
            raise ConfigError("final time must be positive and finite")
        if not 0 < self.picard_tol < np.inf:
            raise ConfigError("picard_tol must be positive and finite")
        if self.N < 1:
            raise ConfigError("need at least one step")
        if self.picard_max_iters < 1:
            raise ConfigError("picard_max_iters must be >= 1")
        if not self.c1 > 0:
            raise ConfigError("c1 must be positive")
        if not self.C_cnle > 0:
            raise ConfigError("C_cnle must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.N


@dataclass
class DiscreteTrajectory:
    config: SchemeConfig
    times: np.ndarray        # (N+1,)
    u: np.ndarray            # (N+1, 3 n_s) velocity coefficients
    p: np.ndarray            # (N, n_p) pressure coefficients, p[m-1] = p^m
    picard_iters: np.ndarray  # (N,)
    residuals: np.ndarray     # (N,) assembled step residuals (relative)
    # the datum's exact L2 norm; None for a trajectory made without one
    u0_l2_analytic: float | None = None

    @property
    def n_steps(self) -> int:
        return self.config.N

    @property
    def midpoints(self) -> np.ndarray:
        """(N, 3 n_s) stack of u^{m,1/2} = (u^m + u^{m-1}) / 2, row m - 1
        for m = 1..N."""
        return 0.5 * (self.u[1:] + self.u[:-1])


@dataclass
class StepResult:
    u: np.ndarray
    p: np.ndarray
    iterations: int
    residual: float
    convection: np.ndarray | None = None  # CNAB: N(u^{m-1}), for step m+1


# ---------------------------------------------------------------------------
# the midpoint saddle system of a trajectory
# ---------------------------------------------------------------------------

class StepOperator:
    """The parts of the midpoint step shared by every step of one
    trajectory: the saddle systems' constraint blocks, F0 = M/dt +
    nu A/2, the frozen-advection systems, and the history-independent
    CNAB system with its block solver (`solver`), made and held here,
    which solves every CNAB step and preconditions every frozen-advection
    solve, each GMRES starting from the answer of the trajectory's
    previous solve.

    Every system F u^m = (2M/dt - F) u^{m-1} takes its right-hand side
    from its velocity block F (`midpoint_rhs`).  A frozen system's F is
    conv/2 + F0 in the convection's own data array and pattern: F0's for
    case 1 (diag(S, S, S)), and for cases 2 and 3 the 3 x 3 block grid of
    the scalar pattern, F0's slots on it found once, here."""

    def __init__(self, spaces, config):
        self.spaces = spaces
        self.config = config
        dt, nu = config.dt, config.nu
        ops, velocity = spaces.ops, spaces.velocity
        self.F0 = velocity.block_pattern.matrix(
            np.tile((1.0 / dt) * ops.M_s.data + 0.5 * nu * ops.A_s.data, 3))
        self.constraints = SaddleConstraints(spaces)
        # the CNAB system: its matrix does not depend on the history
        self.explicit_system = SaddleSystem(self.constraints, self.F0)
        self._F0_slots = (slice(None) if config.case == 1
                          else velocity.vector_pattern.diagonal.ravel())
        # its block solver, held here only (see `linsolve.SaddleSystem`)
        self.solver = self.constraints.lattice_solver(self.explicit_system)
        self._start = None     # the answer of the previous frozen solve

    def midpoint_rhs(self, F, u_prev):
        """(2/dt) M u - F u, M u by M_s on the three components at once:
        the momentum right-hand side of velocity block F, less convection."""
        Mu = (self.spaces.ops.M_s @ np.reshape(u_prev, (3, -1)).T).T.ravel()
        return (2.0 / self.config.dt) * Mu - F @ u_prev

    def frozen_system(self, advect, u_prev):
        """Midpoint step with the advecting field frozen: its system and
        full right-hand side.  The unknown enters through the midpoint,
        hence the factor 1/2 on the convection: its data are halved in
        place and F0's entries added to them, so F is the convection
        matrix itself."""
        F = forms.convection_matrix(self.spaces, self.config.case, advect)
        F.data *= 0.5
        F.data[self._F0_slots] += self.F0.data
        system = SaddleSystem(self.constraints, F)
        return system, system.rhs(self.midpoint_rhs(F, u_prev))

    def solve_frozen(self, advect, u_prev) -> SaddleSolution:
        """Solve `frozen_system` once, by GMRES preconditioned with the
        trajectory's block solver, from the answer of the previous solve;
        an answer the guards reject raises LinearSolveError."""
        system, rhs = self.frozen_system(advect, u_prev)
        sol = system.solve(rhs, preconditioner=self.solver,
                           x0=self._start)
        self._start = sol.x
        return sol


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def step_cn(op: StepOperator, u_prev, step_index=None) -> StepResult:
    """One implicit-midpoint step, Picard iteration on the midpoint.

    Case 3 adds 0.5 grad K(w.z) to the rotational form of case 2.  The
    gradient of a pressure-space field is absorbed by the pressure, so a
    case-3 iterate solves the case-2 system for pi = p + 0.5 K(w.z), and
    the step returns p = pi - 0.5 K(w.z) with w the advecting field of
    the last solve and z the returned midpoint.
    """
    config, spaces = op.config, op.spaces
    u_prev = np.asarray(u_prev, dtype=float)
    scale = max(1.0, velocity_l2(spaces, u_prev))
    w = u_prev.copy()
    history = []
    converged = False
    for _ in range(config.picard_max_iters):
        sol = op.solve_frozen(w, u_prev)
        u_new = sol["u"]
        z = 0.5 * (u_new + u_prev)
        delta = velocity_l2(spaces, z - w)
        history.append(delta)
        advect, w = w, z
        if delta <= config.picard_tol * scale:
            converged = True
            break
    if not converged:
        raise StepperError(
            "Picard iteration did not converge within "
            f"{config.picard_max_iters} iterations "
            f"(last increments {history[-3:]})",
            step=step_index, history=history)
    # residual of the nonlinear system at the returned state
    system, rhs = op.frozen_system(w, u_prev)
    resid = system.residual(sol.x, rhs)
    p = sol["p"]
    if config.case == 3:
        p = p - 0.5 * forms.bernoulli_projection(spaces, advect, w)
    return StepResult(u=u_new, p=p, iterations=len(history),
                      residual=resid)


def step_cnle(op: StepOperator, u_prev, u_prev2) -> StepResult:
    """One linearly-implicit step: the frozen midpoint system advected
    by the extrapolation (3 u^{m-1} - u^{m-2}) / 2."""
    advect = 0.5 * (3.0 * np.asarray(u_prev) - np.asarray(u_prev2))
    sol = op.solve_frozen(advect, u_prev)
    return StepResult(u=sol["u"], p=sol["p"], iterations=1,
                      residual=sol.residual)


def step_cnab(op: StepOperator, u_prev, conv_prev2) -> StepResult:
    """One step with explicit two-level convection, solved directly by
    the trajectory's block solver of `op.explicit_system`, `op.solver`;
    `conv_prev2` is N(u^{m-2}), the previous step's `convection`."""
    conv_prev = forms.convection_rhs(op.spaces, u_prev)
    conv = 1.5 * conv_prev - 0.5 * conv_prev2
    system = op.explicit_system
    sol = system.solve(system.rhs(op.midpoint_rhs(system.F, u_prev) - conv),
                       solver=op.solver)
    return StepResult(u=sol["u"], p=sol["p"], iterations=1,
                      residual=sol.residual, convection=conv_prev)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def run(config: SchemeConfig, spaces, u0) -> DiscreteTrajectory:
    """Advance a full trajectory from the datum u0.

    `u0` is trigonometric data (a TrigVector), whose exact L2 norm
    (Parseval on its coefficients) the trajectory keeps.  The starting
    state is its mass-orthogonal projection onto the discretely
    divergence-free, mean-free subspace (`forms.project_div_free`), so
    the pressure term cancels in the energy balance from the very first
    step.
    """
    # the datum's samples and the projection's system are freed before
    # the step operator is made, so the peak holds one set at a time
    try:
        start = forms.project_div_free(spaces, project_velocity(spaces, u0))
    except LinearSolveError as exc:
        raise LinearSolveError(f"datum projection: {exc}") from exc
    op = StepOperator(spaces, config)
    N = config.N
    u = np.zeros((N + 1, 3 * spaces.n_scalar))
    p = np.zeros((N, spaces.pressure.dim))
    iters = np.zeros(N, dtype=int)
    resids = np.zeros(N)
    u[0] = start
    conv_prev = None     # CNAB: convection of the state before u[m - 1]
    for m in range(1, N + 1):
        try:
            if m == 1 or config.scheme == "CN":
                res = step_cn(op, u[m - 1], step_index=m)
            elif config.scheme == "CNLE":
                res = step_cnle(op, u[m - 1], u[m - 2])
            else:
                if conv_prev is None:
                    conv_prev = forms.convection_rhs(spaces, u[m - 2])
                res = step_cnab(op, u[m - 1], conv_prev)
                conv_prev = res.convection
        except StepperError:
            raise
        except Exception as exc:
            raise StepperError(f"step {m} failed: {exc}", step=m) from exc
        u[m], p[m - 1] = res.u, res.p
        iters[m - 1], resids[m - 1] = res.iterations, res.residual
    times = config.dt * np.arange(N + 1)
    return DiscreteTrajectory(config=config, times=times, u=u, p=p,
                              picard_iters=iters, residuals=resids,
                              u0_l2_analytic=u0.l2_norm())


# ---------------------------------------------------------------------------
# step-size / mesh-size coupling checks
# ---------------------------------------------------------------------------

@dataclass
class CouplingReport:
    """Dimensionless step/mesh ratios and their pass flags.

    * cn_ratio      dt |u0|^3 / (nu sqrt(h)); must be small for the
                    implicit midpoint scheme (threshold set by caller,
                    the condition is asymptotic).
    * cnle_bound    (nu/16) min(h^2, h^3 |u0|^2 / (4 C^2)) with the
                    configured constant C.
    * cnab_bound    4 c1^2 / nu for the explicit scheme's first
                    condition; the second condition involves constants
                    the analysis does not quantify, so only the raw
                    ratio dt/h^3 is reported, next to 1/(32 nu) for
                    orientation.
    """

    cn_ratio: float
    cn_pass: bool
    cnle_bound: float
    cnle_pass: bool
    cnab_bound: float
    cnab_dt_pass: bool
    ratio_dt_h3: float
    bound_32nu: float


def check_coupling(config: SchemeConfig, h: float, u0_norm: float,
                   cn_threshold: float = 1.0) -> CouplingReport:
    dt, nu = config.dt, config.nu
    cn_ratio = dt * u0_norm ** 3 / (nu * np.sqrt(h))
    cnle_bound = (nu / 16.0) * min(
        h ** 2, h ** 3 * u0_norm ** 2 / (4.0 * config.C_cnle ** 2))
    cnab_bound = 4.0 * config.c1 ** 2 / nu
    return CouplingReport(
        cn_ratio=float(cn_ratio),
        cn_pass=bool(cn_ratio <= cn_threshold),
        cnle_bound=float(cnle_bound),
        cnle_pass=bool(dt <= cnle_bound),
        cnab_bound=float(cnab_bound),
        cnab_dt_pass=bool(dt <= cnab_bound),
        ratio_dt_h3=float(dt / h ** 3),
        bound_32nu=float(1.0 / (32.0 * nu)),
    )
