"""Time interpolants of a discrete trajectory and their gap functionals.

A trajectory is turned into three fields of time: the continuous
piecewise-linear reconstruction through the states (v), the piecewise
constant midpoint field (u) and the piecewise constant pressure (p).
All evaluators are right-continuous at the interior nodes and take the
final-time values at t = T.

The squared distance between the two velocity reconstructions is a
quadratic polynomial of time on every subinterval, so its integral has
a closed form: exactly dt/12 times the sum of squared increments.  The
functionals below use that closed form; the test-suite checks it
against an independent interior-node quadrature of the evaluators.
"""

from __future__ import annotations

import numpy as np

from .fespace import velocity_l2
from .steppers import DiscreteTrajectory


class InterpolantSet:
    """Evaluators for the three reconstructions of one trajectory."""

    def __init__(self, trajectory: DiscreteTrajectory, spaces):
        self.trajectory = trajectory
        self.spaces = spaces
        self.dt = trajectory.config.dt
        self.T = trajectory.config.T

    def _locate(self, t: float) -> tuple[int, float, bool]:
        if not 0.0 <= t <= self.T * (1.0 + 1e-12):
            raise ValueError(f"time {t} outside [0, {self.T}]")
        if t >= self.T:
            return self.trajectory.n_steps, self.dt, True
        m = int(np.floor(t / self.dt)) + 1
        m = min(max(m, 1), self.trajectory.n_steps)
        return m, t - (m - 1) * self.dt, False

    def evaluate(self, which: str, t: float) -> np.ndarray:
        """Coefficients of v, u or p at time t."""
        m, s, at_end = self._locate(t)
        traj = self.trajectory
        if which == "v":
            if at_end:  # the node value itself, not the interpolation
                return traj.u[m]
            return traj.u[m - 1] + (s / self.dt) * (traj.u[m] - traj.u[m - 1])
        if which == "u":
            return traj.midpoint(m)
        if which == "p":
            return traj.p[m - 1]
        raise ValueError("which must be 'v', 'u' or 'p'")


def increment_sum(iset: InterpolantSet) -> float:
    """Sum over steps of the squared L2 norm of u^m - u^{m-1}."""
    increments = np.diff(iset.trajectory.u, axis=0)
    return float((velocity_l2(iset.spaces, increments) ** 2).sum())


def gap_l2(iset: InterpolantSet) -> float:
    """Exact integral over [0, T] of |u - v|_2^2.

    On each subinterval the difference is (1/2 - s/dt) (u^m - u^{m-1})
    and the time integral of the square of that profile is dt/12.
    """
    return (iset.dt / 12.0) * increment_sum(iset)
