import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sea_l1ac import EnvironmentModel, contact_torque, gravity_gain
from sea_l1ac.plant import _derivative, _link_gravity_gains, _rk4_tuple

FREE = EnvironmentModel()


def _gravity(params, q, mass):
    return gravity_gain(params, mass) * math.sin(q)


def _rhs(x, tau_m, params, env=FREE, gravity_on=True, mass=1.5):
    return _derivative(*x, tau_m, params, env, _link_gravity_gains(params, mass, gravity_on))


def _step(x, tau_m, dt, params, env=FREE, gravity_on=True, mass=1.5):
    return _rk4_tuple(x, tau_m, dt, params, env, _link_gravity_gains(params, mass, gravity_on))


def _disturbance(params, env, q, mass=1.5):
    """tau_dis at link angle q as the plant applies it to a load of ``mass``:
    the change of the link acceleration against the nominal-mass, wall-free
    plant, spring relaxed, gravity on."""
    ddq = _rhs((q, 0.0, q, 0.0), 0.0, params, env, mass=mass)[1]
    return -params.J_a * (ddq - _rhs((q, 0.0, q, 0.0), 0.0, params, mass=params.m_0)[1])


def _energy(x, params):
    """Kinetic plus spring potential energy of the two-mass chain."""
    q, dq, theta, dtheta = x
    return 0.5 * (params.J_a * dq ** 2 + params.J_m * dtheta ** 2
                  + params.K_f * (theta - q) ** 2)


def test_gravity_at_horizontal_matches_calibration(params):
    # calibration point: nominal load at q = 90 deg
    assert _gravity(params, math.pi / 2, 1.5) == pytest.approx(8.856, abs=1e-12)


def test_gravity_vanishes_at_zero(params):
    assert _gravity(params, 0.0, 1.5) == 0.0


def test_gravity_scales_linearly_with_mass(params):
    # oracle: (0.75 / 1.5) * 8.856
    assert _gravity(params, math.pi / 2, 0.75) == pytest.approx(4.428, abs=1e-12)


def test_gravity_rejects_negative_mass(params):
    with pytest.raises(ValueError):
        gravity_gain(params, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(-math.pi, math.pi),
    mass=st.floats(0.0, 5.0),
    scale=st.floats(0.0, 3.0),
)
def test_gravity_odd_in_angle_and_linear_in_mass(params, q, mass, scale):
    g = _gravity(params, q, mass)
    assert _gravity(params, -q, mass) == pytest.approx(-g, abs=1e-9)
    assert _gravity(params, q, scale * mass) == pytest.approx(
        scale * g, rel=1e-12, abs=1e-12
    )


@settings(max_examples=200, deadline=None)
@given(mass=st.floats(0.0, 10.0))
@example(mass=0.16432488188032993)  # where m_0 + (m - m_0) rounds off m
def test_load_gravity_is_the_gain_of_the_load_mass(params, mass):
    # the plant's load torque is the gain of m itself, whatever m_0 is
    assert _link_gravity_gains(params, mass, True)[1] == gravity_gain(params, mass)


def test_disturbance_zero_without_mismatch_or_contact(params):
    for q in (-1.0, 0.0, 0.7, 2.0):
        assert _disturbance(params, FREE, q) == 0.0


def test_disturbance_from_mass_mismatch(params):
    nominal, load = _link_gravity_gains(params, 2.25, True)
    assert load - nominal == pytest.approx(4.428, abs=1e-12)
    assert _disturbance(params, FREE, math.pi / 2, mass=2.25) == pytest.approx(4.428, abs=1e-12)


def test_disturbance_from_contact(params):
    env = EnvironmentModel(K_e=500.0, q_0=1.0)
    assert contact_torque(env, 1.1) == pytest.approx(50.0, rel=1e-12)
    assert _disturbance(params, env, 1.1) == pytest.approx(50.0, rel=1e-12)


def test_contact_is_one_sided_and_continuous(params):
    env = EnvironmentModel(K_e=800.0, q_0=0.9)
    assert _disturbance(params, env, 0.5) == 0.0
    eps = 1e-9
    below = _disturbance(params, env, env.q_0 - eps)
    above = _disturbance(params, env, env.q_0 + eps)
    assert abs(above - below) < 1e-5


def test_bilateral_contact_flag(params):
    env = EnvironmentModel(K_e=100.0, q_0=0.0, bilateral=True)
    assert _disturbance(params, env, -0.2) == pytest.approx(-20.0, rel=1e-12)


def test_rhs_equilibrium_at_origin(params):
    assert _rhs((0.0, 0.0, 0.0, 0.0), 0.0, params) == (0.0, 0.0, 0.0, 0.0)


def test_rhs_spring_only_accelerations(params):
    # oracle: hand arithmetic, K_f * 0.1 / J_a and -K_f * 0.1 / J_m
    _, ddq, _, ddtheta = _rhs((0.0, 0.0, 0.1, 0.0), 0.0, params, gravity_on=False)
    assert ddq == pytest.approx(36.37, abs=5e-3)
    assert ddtheta == pytest.approx(-42.68, abs=5e-3)


def test_rhs_static_deflection_balances_gravity(params):
    q = 0.6
    g = _gravity(params, q, params.m_0)
    ddq = _rhs((q, 0.0, q + g / params.K_f, 0.0), 0.0, params)[1]
    assert ddq == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    x1=st.tuples(*[st.floats(-2, 2) for _ in range(4)]),
    x2=st.tuples(*[st.floats(-2, 2) for _ in range(4)]),
    t1=st.floats(-50, 50),
    t2=st.floats(-50, 50),
    a=st.floats(-2, 2),
)
def test_rhs_superposition_without_gravity(params, x1, x2, t1, t2, a):
    def f(x, tau):
        return np.array(_rhs(x, tau, params, gravity_on=False))

    combined = f(tuple(a * u + v for u, v in zip(x1, x2)), a * t1 + t2)
    split = a * f(x1, t1) + f(x2, t2)
    assert np.allclose(combined, split, rtol=1e-9, atol=1e-9)


def test_integrator_holds_equilibrium(params):
    q = 0.8
    theta = q + _gravity(params, q, params.m_0) / params.K_f
    x = (q, 0.0, theta, 0.0)
    out = _step(x, params.K_f * (theta - q), 1e-3, params)
    assert np.allclose(out, x, atol=1e-12)


def test_integrator_conserves_energy_in_free_oscillation(params):
    frictionless = replace(params, f_m=0.0)
    x = (0.1, 0.0, -0.05, 0.0)
    e_prev = _energy(x, frictionless)
    for _ in range(2000):
        x = _step(x, 0.0, 1e-3, frictionless, gravity_on=False)
        e = _energy(x, frictionless)
        assert abs(e - e_prev) / e_prev < 1e-6
        e_prev = e


def test_integrator_step_halving_consistency(params):
    x = (0.3, -1.2, 0.5, 2.0)
    full = _step(x, 5.0, 1e-3, params)
    half = _step(_step(x, 5.0, 5e-4, params), 5.0, 5e-4, params)
    assert np.allclose(full, half, atol=1e-9)


@pytest.mark.parametrize("gravity_on", [False, True])
def test_integrator_signals_blowup(params, gravity_on):
    # with gravity on, an RK4 stage takes sin of q = inf
    out = _step((0.0, 0.0, 1e307, 0.0), 0.0, 1e-3, params, gravity_on=gravity_on)
    assert not all(map(math.isfinite, out))
