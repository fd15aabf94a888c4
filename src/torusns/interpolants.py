"""Discrete norms of a trajectory's time interpolants.

A trajectory is turned into three fields of time: the continuous
piecewise-linear reconstruction through the states (v), the piecewise
constant midpoint field (u) and the piecewise constant pressure (p).
Every monitor of the schemes is arithmetic on a few norms of these
fields: the state energies |u^m|, the midpoint dissipation
|grad u^{m,1/2}|, the increments |u^m - u^{m-1}| and the pressures
|p^m|.  `trajectory_norms` evaluates the states and the pressures with
one stacked norm call each, and the midpoints and increments block by
block (`_step_blocks`): a block of ROWS steps is two sparse products of
the norm, and only one block's midpoints and increments exist at a time.
A row of a stack is bitwise the single-vector norm, so the blocks change
no value.

The squared distance between the two velocity reconstructions is a
quadratic polynomial of time on every subinterval, so its integral has
a closed form: exactly dt/12 times the sum of squared increments.  The
test-suite checks it against an independent interior-node quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fespace import (ROWS, _row_blocks, pressure_l2, velocity_h1_semi,
                      velocity_l2)
from .steppers import DiscreteTrajectory


@dataclass(frozen=True)
class TrajectoryNorms:
    """Per-step norms of one trajectory; states are indexed m = 0..N,
    midpoints, increments and pressures m = 1..N."""

    state_l2: np.ndarray          # |u^m|_2
    state_h1_semi: np.ndarray     # |grad u^m|_2
    midpoint_l2: np.ndarray       # |u^{m,1/2}|_2
    midpoint_h1_semi: np.ndarray  # |grad u^{m,1/2}|_2
    increment_l2: np.ndarray      # |u^m - u^{m-1}|_2
    pressure_l2: np.ndarray       # |p^m|_2


def _step_blocks(u, size=ROWS):
    """The steps of the states u, (N + 1, n), in blocks of `size`: per
    block the slice `steps` of its step indices m - 1, its size + 1 states
    u[steps.start:steps.stop + 1] and their midpoints."""
    for steps in _row_blocks(len(u) - 1, size):
        states = u[steps.start:steps.stop + 1]
        yield steps, states, 0.5 * (states[1:] + states[:-1])


def trajectory_norms(trajectory: DiscreteTrajectory, spaces) -> TrajectoryNorms:
    u = trajectory.u
    midpoint_l2, midpoint_h1_semi, increment_l2 = np.empty((3, len(u) - 1))
    for steps, states, mid in _step_blocks(u):
        midpoint_l2[steps] = velocity_l2(spaces, mid)
        midpoint_h1_semi[steps] = velocity_h1_semi(spaces, mid)
        increment_l2[steps] = velocity_l2(spaces, np.diff(states, axis=0))
    return TrajectoryNorms(
        state_l2=velocity_l2(spaces, u),
        state_h1_semi=velocity_h1_semi(spaces, u),
        midpoint_l2=midpoint_l2,
        midpoint_h1_semi=midpoint_h1_semi,
        increment_l2=increment_l2,
        pressure_l2=pressure_l2(spaces, trajectory.p))


def increment_sum(norms: TrajectoryNorms) -> float:
    """Sum over steps of the squared L2 norm of u^m - u^{m-1}."""
    return float((norms.increment_l2 ** 2).sum())


def gap_l2(norms: TrajectoryNorms, config) -> float:
    """Exact integral over [0, T] of |u - v|_2^2.

    On each subinterval the difference is (1/2 - s/dt) (u^m - u^{m-1})
    and the time integral of the square of that profile is dt/12.
    """
    return (config.dt / 12.0) * increment_sum(norms)
