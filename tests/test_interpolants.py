import dataclasses

import numpy as np
import pytest

from torusns import checks
from torusns.fespace import pressure_l2, velocity_h1_semi, velocity_l2
from torusns.interpolants import gap_l2, increment_sum, trajectory_norms
from torusns.steppers import DiscreteTrajectory, SchemeConfig


def synthetic_trajectory(spaces, states, dt):
    states = np.asarray(states, dtype=float)
    N = states.shape[0] - 1
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=N * dt, N=N)
    return DiscreteTrajectory(
        config=cfg, times=dt * np.arange(N + 1), u=states,
        p=np.arange(1, N + 1)[:, None]
        * np.ones((N, spaces.pressure.dim)),
        picard_iters=np.zeros(N, dtype=int), residuals=np.zeros(N))


def test_constant_trajectory(level):
    spaces = level(2)
    state = np.random.default_rng(2).standard_normal(3 * spaces.n_scalar)
    states = np.tile(state, (5, 1))
    traj = synthetic_trajectory(spaces, states, 0.1)
    norms = trajectory_norms(traj, spaces)
    assert np.array_equal(norms.midpoint_l2, norms.state_l2[1:])
    assert gap_l2(norms, traj.config) == 0.0
    assert increment_sum(norms) == 0.0


def test_two_state_gap_value(level):
    # one step of length 0.1 with squared increment 4 integrates the
    # squared reconstruction gap to 0.1 * 4 / 12
    spaces = level(2)
    rng = np.random.default_rng(3)
    d = rng.standard_normal(3 * spaces.n_scalar)
    d *= 2.0 / velocity_l2(spaces, d)
    states = np.stack([np.zeros_like(d), d])
    traj = synthetic_trajectory(spaces, states, 0.1)
    norms = trajectory_norms(traj, spaces)
    assert abs(increment_sum(norms) - 4.0) < 1e-12
    assert abs(gap_l2(norms, traj.config) - 0.1 * 4.0 / 12.0) < 1e-13


def test_single_step_increment_is_mass_norm(level):
    spaces = level(2)
    rng = np.random.default_rng(4)
    d = rng.standard_normal(3 * spaces.n_scalar)
    states = np.stack([np.zeros_like(d), d])
    norms = trajectory_norms(synthetic_trajectory(spaces, states, 0.3),
                             spaces)
    assert abs(increment_sum(norms)
               - velocity_l2(spaces, d) ** 2) < 1e-12 * max(
                   1.0, velocity_l2(spaces, d) ** 2)


def test_gap_identity_against_quadrature_oracle(level):
    # independent check: two interior Gauss nodes per subinterval
    # integrate the quadratic gap profile exactly; at t = (m - 1 + x) dt
    # the midpoint field is u^{m,1/2} and the linear reconstruction
    # u^{m-1} + x (u^m - u^{m-1})
    spaces = level(2)
    rng = np.random.default_rng(5)
    states = rng.standard_normal((11, 3 * spaces.n_scalar))
    dt = 0.07
    traj = synthetic_trajectory(spaces, states, dt)
    norms = trajectory_norms(traj, spaces)
    nodes = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    oracle = 0.0
    for m in range(1, 11):
        for x in nodes:
            v = states[m - 1] + x * (states[m] - states[m - 1])
            diff = traj.midpoints[m - 1] - v
            oracle += 0.5 * dt * velocity_l2(spaces, diff) ** 2
    gap = gap_l2(norms, traj.config)
    assert abs(gap - oracle) < 1e-12 * oracle
    assert abs(gap - dt / 12.0 * increment_sum(norms)) < 1e-12 * gap


def corrupt_constant(monkeypatch):
    monkeypatch.setattr(checks, "gap_l2", lambda norms, config:
                        config.dt / 10.0 * increment_sum(norms))


def corrupt_increments(monkeypatch):
    # a gap that is still dt/12 times the increment sum of its norms,
    # but of increments 0.1% off
    def norms(traj, spaces):
        exact = trajectory_norms(traj, spaces)
        return dataclasses.replace(exact,
                                   increment_l2=1.001 * exact.increment_l2)

    monkeypatch.setattr(checks, "trajectory_norms", norms)


@pytest.mark.parametrize("corrupt", [corrupt_constant, corrupt_increments])
def test_gap_check_fails_on_a_corrupted_gap(level, monkeypatch, corrupt):
    spaces = level(2)
    assert checks._gap_identity(spaces).passed
    corrupt(monkeypatch)
    assert not checks._gap_identity(spaces).passed


def test_endpoint_energy_matches_final_state(level):
    spaces = level(2)
    rng = np.random.default_rng(6)
    states = rng.standard_normal((6, 3 * spaces.n_scalar))
    norms = trajectory_norms(synthetic_trajectory(spaces, states, 0.2),
                             spaces)
    assert norms.state_l2[-1] == velocity_l2(spaces, states[-1])


def test_norm_rows_equal_single_vector_norms(level):
    # the artifacts' byte-identity rests on this: a row of a stacked
    # norm call is bitwise the norm of that vector alone
    spaces = level(3)
    rng = np.random.default_rng(7)
    states = rng.standard_normal((9, 3 * spaces.n_scalar))
    traj = synthetic_trajectory(spaces, states, 0.1)
    norms = trajectory_norms(traj, spaces)
    for m in range(9):
        assert norms.state_l2[m] == velocity_l2(spaces, states[m])
        assert norms.state_h1_semi[m] == velocity_h1_semi(spaces, states[m])
    for m in range(1, 9):
        z = traj.midpoints[m - 1]
        assert norms.midpoint_l2[m - 1] == velocity_l2(spaces, z)
        assert norms.midpoint_h1_semi[m - 1] == velocity_h1_semi(spaces, z)
        assert norms.increment_l2[m - 1] == velocity_l2(
            spaces, states[m] - states[m - 1])
        assert norms.pressure_l2[m - 1] == pressure_l2(spaces,
                                                       traj.p[m - 1])
