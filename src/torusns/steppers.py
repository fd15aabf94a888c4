"""Second-order time discretizations of the incompressible flow problem.

Three schemes advance a trajectory on the uniform net t_m = m*dt:

* CN   -- implicit midpoint: the convective term couples the midpoint
  field to itself and is resolved by Picard iteration with the
  advecting slot frozen at the previous iterate.  Every iterate keeps
  the antisymmetric convection structure, so the step energy balance
  holds whether or not the iteration has fully converged.
* CNLE -- linearly implicit: the advecting field is extrapolated as
  3 u^{m-1} - u^{m-2} and the step is a single solve.
* CNAB -- convection fully explicit (3/2, -1/2 combination); the step
  matrix is time-independent and its factorization is reused.

CNLE and CNAB take their first step with CN so the two-level history
exists; both are defined with the symmetrized (case 1) convective form.
Each solved velocity is discretely divergence-free and componentwise
mean-free, enforced through the constraint rows of the saddle system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import forms
from .fespace import project_velocity, velocity_l2
from .linsolve import Factorization, saddle_system, solve_saddle

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
        if not self.nu > 0:
            raise ConfigError("viscosity must be positive")
        if not self.T > 0:
            raise ConfigError("final time must be positive")
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
    h: float
    times: np.ndarray        # (N+1,)
    u: np.ndarray            # (N+1, 3 n_s) velocity coefficients
    p: np.ndarray            # (N, n_p) pressure coefficients, p[m-1] = p^m
    picard_iters: np.ndarray  # (N,)
    residuals: np.ndarray     # (N,) assembled step residuals (relative)

    @property
    def n_steps(self) -> int:
        return self.config.N

    def midpoint(self, m: int) -> np.ndarray:
        """u^{m,1/2} = (u^m + u^{m-1}) / 2 for m = 1..N."""
        return 0.5 * (self.u[m] + self.u[m - 1])


@dataclass
class StepResult:
    u: np.ndarray
    p: np.ndarray
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# saddle-system assembly
# ---------------------------------------------------------------------------

class _Workspace:
    """Constant blocks shared by every step of one trajectory."""

    def __init__(self, spaces, config):
        self.spaces = spaces
        self.config = config
        dt, nu = config.dt, config.nu
        self.A = sp.kron(sp.identity(3), spaces.ops.A_s, format="csr")
        self.F0 = ((1.0 / dt) * spaces.ops.M + 0.5 * nu * self.A).tocsr()

    def base_rhs_u(self, u_prev):
        dt, nu = self.config.dt, self.config.nu
        return ((1.0 / dt) * (self.spaces.ops.M @ u_prev)
                - 0.5 * nu * (self.A @ u_prev))


def _system_for_frozen_advection(ws: _Workspace, case, advect, weight, u_prev):
    """Midpoint step with the advecting field frozen.

    `weight` multiplies the convective form: 1 for plain midpoint
    convection, 1/2 for the extrapolated variant.  The unknown enters
    through the midpoint, hence the factor weight/2 on the matrix side.
    """
    conv = forms.convection_matrix(ws.spaces, case, advect)
    F = (ws.F0 + 0.5 * weight * conv).tocsr()
    rhs_u = ws.base_rhs_u(u_prev) - 0.5 * weight * (conv @ u_prev)
    if case == 3:
        R = weight * forms.bernoulli_rhs_matrix(ws.spaces, advect)
        return saddle_system(ws.spaces, F, rhs_u, R=R,
                             rhs_kappa=0.5 * (R @ u_prev))
    return saddle_system(ws.spaces, F, rhs_u)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def step_cn(u_prev, config, spaces, step_index=None,
            ws: _Workspace | None = None) -> StepResult:
    """One implicit-midpoint step, Picard iteration on the midpoint."""
    ws = ws or _Workspace(spaces, config)
    u_prev = np.asarray(u_prev, dtype=float)
    scale = max(1.0, velocity_l2(spaces, u_prev))
    w = u_prev.copy()
    history = []
    converged = False
    for _ in range(config.picard_max_iters):
        system = _system_for_frozen_advection(ws, config.case, w, 1.0, u_prev)
        sol = solve_saddle(system)
        u_new = sol["u"]
        z = 0.5 * (u_new + u_prev)
        delta = velocity_l2(spaces, z - w)
        history.append(delta)
        w = z
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
    system = _system_for_frozen_advection(ws, config.case, w, 1.0, u_prev)
    resid = np.linalg.norm(system.matrix @ sol.x - system.rhs)
    resid /= max(1.0, np.linalg.norm(system.rhs))
    return StepResult(u=u_new, p=sol["p"], iterations=len(history),
                      residual=float(resid))


def step_cnle(u_prev, u_prev2, config, spaces, step_index=None,
              ws: _Workspace | None = None) -> StepResult:
    """One linearly-implicit step with extrapolated advecting field."""
    ws = ws or _Workspace(spaces, config)
    advect = 3.0 * np.asarray(u_prev) - np.asarray(u_prev2)
    system = _system_for_frozen_advection(ws, 1, advect, 0.5, u_prev)
    sol = solve_saddle(system)
    return StepResult(u=sol["u"], p=sol["p"], iterations=1,
                      residual=sol.residual
                      / max(1.0, float(np.linalg.norm(system.rhs))))


def step_cnab(u_prev, u_prev2, config, spaces, step_index=None,
              factor: Factorization | None = None,
              ws: _Workspace | None = None) -> StepResult:
    """One step with explicit two-level convection.

    The matrix does not depend on the history, so callers advancing a
    trajectory pass a cached `factor`.
    """
    ws = ws or _Workspace(spaces, config)
    conv = (1.5 * forms.convection_rhs(spaces, config.case, u_prev)
            - 0.5 * forms.convection_rhs(spaces, config.case, u_prev2))
    rhs_u = ws.base_rhs_u(np.asarray(u_prev)) - conv
    system = saddle_system(spaces, ws.F0, rhs_u)
    sol = solve_saddle(system, factor=factor)
    return StepResult(u=sol["u"], p=sol["p"], iterations=1,
                      residual=sol.residual
                      / max(1.0, float(np.linalg.norm(system.rhs))))


def cnab_factorization(config, spaces,
                       ws: _Workspace | None = None) -> Factorization:
    ws = ws or _Workspace(spaces, config)
    return Factorization(saddle_system(spaces, ws.F0, 0.0).matrix)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def run(config: SchemeConfig, spaces, u0) -> DiscreteTrajectory:
    """Advance a full trajectory from the datum u0.

    `u0` may be a smooth field (anything `project_velocity` accepts) or a
    coefficient vector.  Either way the starting state is its
    mass-orthogonal projection onto the discretely divergence-free,
    mean-free subspace, so the pressure term cancels in the energy
    balance from the very first step.
    """
    if isinstance(u0, np.ndarray) and u0.size == 3 * spaces.n_scalar:
        coeffs = np.asarray(u0, dtype=float)
    else:
        coeffs = project_velocity(spaces, u0)
    start = forms.project_div_free(spaces, coeffs)

    N = config.N
    u = np.zeros((N + 1, 3 * spaces.n_scalar))
    p = np.zeros((N, spaces.pressure.dim))
    iters = np.zeros(N, dtype=int)
    resids = np.zeros(N)
    u[0] = start
    ws = _Workspace(spaces, config)
    cnab_factor = None
    for m in range(1, N + 1):
        try:
            if m == 1 or config.scheme == "CN":
                res = step_cn(u[m - 1], config, spaces, step_index=m, ws=ws)
            elif config.scheme == "CNLE":
                res = step_cnle(u[m - 1], u[m - 2], config, spaces,
                                step_index=m, ws=ws)
            else:
                if cnab_factor is None:
                    cnab_factor = cnab_factorization(config, spaces, ws=ws)
                res = step_cnab(u[m - 1], u[m - 2], config, spaces,
                                step_index=m, factor=cnab_factor, ws=ws)
        except StepperError:
            raise
        except Exception as exc:
            raise StepperError(f"step {m} failed: {exc}", step=m) from exc
        u[m], p[m - 1] = res.u, res.p
        iters[m - 1], resids[m - 1] = res.iterations, res.residual
    times = config.dt * np.arange(N + 1)
    return DiscreteTrajectory(config=config, h=spaces.h, times=times,
                              u=u, p=p, picard_iters=iters, residuals=resids)


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

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


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
