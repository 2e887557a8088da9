import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sea_l1ac import (
    EnvironmentModel,
    PlantState,
    disturbance_torque,
    gravity_torque,
    integrate_step,
    mechanical_energy,
    plant_rhs,
)
from sea_l1ac.params import FREE_SPACE


def test_gravity_at_horizontal_matches_calibration(params):
    # calibration point: nominal load at q = 90 deg
    assert gravity_torque(params, math.pi / 2, 1.5) == pytest.approx(8.856, abs=1e-12)


def test_gravity_vanishes_at_zero(params):
    assert gravity_torque(params, 0.0, 1.5) == 0.0


def test_gravity_scales_linearly_with_mass(params):
    # oracle: (0.75 / 1.5) * 8.856
    assert gravity_torque(params, math.pi / 2, 0.75) == pytest.approx(4.428, abs=1e-12)


def test_gravity_rejects_negative_mass(params):
    with pytest.raises(ValueError):
        gravity_torque(params, 0.1, -1.0)


@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(-math.pi, math.pi),
    mass=st.floats(0.0, 5.0),
    scale=st.floats(0.0, 3.0),
)
def test_gravity_odd_in_angle_and_linear_in_mass(params, q, mass, scale):
    g = gravity_torque(params, q, mass)
    assert gravity_torque(params, -q, mass) == pytest.approx(-g, abs=1e-9)
    assert gravity_torque(params, q, scale * mass) == pytest.approx(
        scale * g, rel=1e-12, abs=1e-12
    )


def test_disturbance_zero_without_mismatch_or_contact(params):
    env = EnvironmentModel()
    for q in (-1.0, 0.0, 0.7, 2.0):
        assert disturbance_torque(env, params, q) == 0.0


def test_disturbance_from_mass_mismatch(params):
    heavy = params.with_mass(2.25)
    env = EnvironmentModel()
    assert disturbance_torque(env, heavy, math.pi / 2) == pytest.approx(4.428, abs=1e-12)


def test_disturbance_from_contact(params):
    env = EnvironmentModel(K_e=500.0, q_0=1.0)
    assert disturbance_torque(env, params, 1.1) == pytest.approx(50.0, rel=1e-12)


def test_contact_is_one_sided_and_continuous(params):
    env = EnvironmentModel(K_e=800.0, q_0=0.9)
    assert disturbance_torque(env, params, 0.5) == 0.0
    eps = 1e-9
    below = disturbance_torque(env, params, env.q_0 - eps)
    above = disturbance_torque(env, params, env.q_0 + eps)
    assert abs(above - below) < 1e-5


def test_bilateral_contact_flag(params):
    env = EnvironmentModel(K_e=100.0, q_0=0.0, bilateral=True)
    assert disturbance_torque(env, params, -0.2) == pytest.approx(-20.0, rel=1e-12)


def test_explicit_mass_deviation_overrides_params(params):
    env = EnvironmentModel(delta_m=0.75)
    assert disturbance_torque(env, params, math.pi / 2) == pytest.approx(4.428, abs=1e-12)


def test_rhs_equilibrium_at_origin(params):
    d = plant_rhs(PlantState.zero(), 0.0, params, FREE_SPACE, gravity_on=True)
    assert d.as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_rhs_spring_only_accelerations(params):
    # oracle: hand arithmetic, K_f * 0.1 / J_a and -K_f * 0.1 / J_m
    state = PlantState(q=0.0, dq=0.0, theta=0.1, dtheta=0.0)
    d = plant_rhs(state, 0.0, params, FREE_SPACE, gravity_on=False)
    assert d.dq == pytest.approx(36.37, abs=5e-3)
    assert d.dtheta == pytest.approx(-42.68, abs=5e-3)


def test_rhs_static_deflection_balances_gravity(params):
    q = 0.6
    g = gravity_torque(params, q, params.m_0)
    state = PlantState(q=q, dq=0.0, theta=q + g / params.K_f, dtheta=0.0)
    d = plant_rhs(state, 0.0, params, FREE_SPACE, gravity_on=True)
    assert d.dq == pytest.approx(0.0, abs=1e-12)


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
        return np.array(plant_rhs(PlantState(*x), tau, params, FREE_SPACE, False).as_tuple())

    combined = f(tuple(a * u + v for u, v in zip(x1, x2)), a * t1 + t2)
    split = a * f(x1, t1) + f(x2, t2)
    assert np.allclose(combined, split, rtol=1e-9, atol=1e-9)


def test_integrator_holds_equilibrium(params):
    q = 0.8
    g = gravity_torque(params, q, params.m_0)
    state = PlantState(q=q, dq=0.0, theta=q + g / params.K_f, dtheta=0.0)
    tau_m = params.K_f * (state.theta - state.q)
    out = integrate_step(state, tau_m, 1e-3, params, FREE_SPACE, gravity_on=True)
    assert np.allclose(out.as_tuple(), state.as_tuple(), atol=1e-12)


def test_integrator_conserves_energy_in_free_oscillation(params):
    frictionless = replace(params, f_m=0.0)
    state = PlantState(q=0.1, dq=0.0, theta=-0.05, dtheta=0.0)
    e_prev = mechanical_energy(state, frictionless)
    for _ in range(2000):
        state = integrate_step(state, 0.0, 1e-3, frictionless, FREE_SPACE, gravity_on=False)
        e = mechanical_energy(state, frictionless)
        assert abs(e - e_prev) / e_prev < 1e-6
        e_prev = e


def test_integrator_step_halving_consistency(params):
    state = PlantState(q=0.3, dq=-1.2, theta=0.5, dtheta=2.0)
    full = integrate_step(state, 5.0, 1e-3, params, FREE_SPACE)
    half = integrate_step(state, 5.0, 5e-4, params, FREE_SPACE)
    half = integrate_step(half, 5.0, 5e-4, params, FREE_SPACE)
    assert np.allclose(full.as_tuple(), half.as_tuple(), atol=1e-9)


def test_integrator_rejects_bad_dt(params):
    with pytest.raises(ValueError):
        integrate_step(PlantState.zero(), 0.0, 0.0, params, FREE_SPACE)


@pytest.mark.parametrize("gravity_on", [False, True])
def test_integrator_signals_blowup(params, gravity_on):
    # with gravity on, an RK4 stage takes sin of q = inf
    huge = PlantState(q=0.0, dq=0.0, theta=1e307, dtheta=0.0)
    with pytest.raises(ArithmeticError):
        integrate_step(huge, 0.0, 1e-3, params, FREE_SPACE, gravity_on=gravity_on)


def test_state_requires_finite_fields():
    with pytest.raises(ValueError):
        PlantState(math.nan, 0.0, 0.0, 0.0)
