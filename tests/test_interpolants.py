import numpy as np
import pytest

from torusns.fespace import velocity_l2
from torusns.interpolants import InterpolantSet, gap_l2, increment_sum
from torusns.steppers import DiscreteTrajectory, SchemeConfig


def synthetic_trajectory(spaces, states, dt):
    states = np.asarray(states, dtype=float)
    N = states.shape[0] - 1
    cfg = SchemeConfig(scheme="CN", case=1, nu=1.0, T=N * dt, N=N)
    return DiscreteTrajectory(
        config=cfg, h=spaces.h, times=dt * np.arange(N + 1), u=states,
        p=np.arange(1, N + 1)[:, None]
        * np.ones((N, spaces.pressure.dim)),
        picard_iters=np.zeros(N, dtype=int), residuals=np.zeros(N))


def test_node_and_midpoint_values(level):
    spaces = level(2)
    rng = np.random.default_rng(0)
    states = rng.standard_normal((4, 3 * spaces.n_scalar))
    iset = InterpolantSet(synthetic_trajectory(spaces, states, 0.25), spaces)
    for m in range(4):
        assert np.array_equal(iset.evaluate("v", 0.25 * m), states[m])
    mid = iset.evaluate("v", 0.125)
    assert np.allclose(mid, 0.5 * (states[0] + states[1]), atol=1e-15)
    assert np.allclose(iset.evaluate("u", 0.125), mid, atol=1e-15)


def test_final_time_conventions(level):
    spaces = level(2)
    rng = np.random.default_rng(1)
    states = rng.standard_normal((3, 3 * spaces.n_scalar))
    traj = synthetic_trajectory(spaces, states, 0.5)
    iset = InterpolantSet(traj, spaces)
    assert np.array_equal(iset.evaluate("v", 1.0), states[2])
    assert np.allclose(iset.evaluate("u", 1.0),
                       0.5 * (states[1] + states[2]), atol=1e-15)
    assert np.array_equal(iset.evaluate("p", 1.0), traj.p[1])
    # right-continuity at an interior node
    assert np.array_equal(iset.evaluate("p", 0.5), traj.p[1])
    with pytest.raises(ValueError):
        iset.evaluate("v", -0.1)
    with pytest.raises(ValueError):
        iset.evaluate("v", 1.2)
    with pytest.raises(ValueError):
        iset.evaluate("q", 0.3)


def test_constant_trajectory(level):
    spaces = level(2)
    state = np.random.default_rng(2).standard_normal(3 * spaces.n_scalar)
    states = np.tile(state, (5, 1))
    iset = InterpolantSet(synthetic_trajectory(spaces, states, 0.1), spaces)
    for t in (0.0, 0.05, 0.21, 0.4):
        assert np.allclose(iset.evaluate("v", t), state, atol=1e-15)
        assert np.allclose(iset.evaluate("u", t), state, atol=1e-15)
    assert gap_l2(iset) == 0.0
    assert increment_sum(iset) == 0.0


def test_two_state_gap_value(level):
    # one step of length 0.1 with squared increment 4 integrates the
    # squared reconstruction gap to 0.1 * 4 / 12
    spaces = level(2)
    rng = np.random.default_rng(3)
    d = rng.standard_normal(3 * spaces.n_scalar)
    d *= 2.0 / velocity_l2(spaces, d)
    states = np.stack([np.zeros_like(d), d])
    iset = InterpolantSet(synthetic_trajectory(spaces, states, 0.1), spaces)
    assert abs(increment_sum(iset) - 4.0) < 1e-12
    assert abs(gap_l2(iset) - 0.1 * 4.0 / 12.0) < 1e-13


def test_single_step_increment_is_mass_norm(level):
    spaces = level(2)
    rng = np.random.default_rng(4)
    d = rng.standard_normal(3 * spaces.n_scalar)
    states = np.stack([np.zeros_like(d), d])
    iset = InterpolantSet(synthetic_trajectory(spaces, states, 0.3), spaces)
    assert abs(increment_sum(iset)
               - velocity_l2(spaces, d) ** 2) < 1e-12 * max(
                   1.0, velocity_l2(spaces, d) ** 2)


def test_gap_identity_against_quadrature_oracle(level):
    # independent check: two interior Gauss nodes per subinterval
    # integrate the quadratic gap profile exactly
    spaces = level(2)
    rng = np.random.default_rng(5)
    states = rng.standard_normal((11, 3 * spaces.n_scalar))
    dt = 0.07
    iset = InterpolantSet(synthetic_trajectory(spaces, states, dt), spaces)
    nodes = 0.5 * (1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0))
    oracle = 0.0
    for m in range(10):
        for x in nodes:
            t = (m + x) * dt
            diff = iset.evaluate("u", t) - iset.evaluate("v", t)
            oracle += 0.5 * dt * velocity_l2(spaces, diff) ** 2
    assert abs(gap_l2(iset) - oracle) < 1e-12 * oracle
    assert abs(gap_l2(iset) - dt / 12.0 * increment_sum(iset)) \
        < 1e-12 * gap_l2(iset)


def test_endpoint_energy_matches_final_state(level):
    spaces = level(2)
    rng = np.random.default_rng(6)
    states = rng.standard_normal((6, 3 * spaces.n_scalar))
    iset = InterpolantSet(synthetic_trajectory(spaces, states, 0.2), spaces)
    assert velocity_l2(spaces, iset.evaluate("v", 1.0)) \
        == velocity_l2(spaces, states[-1])
