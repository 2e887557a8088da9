"""Continuous-time dynamics of the elastic joint and a fixed-step integrator.

The link side carries gravity and the external disturbance, the motor side
carries viscous friction; both couple through the torsional spring:

    J_a q''     = K_f (theta - q) - tau_dis - G(q)
    J_m theta'' = tau_m - f_m theta' - K_f (theta - q)

All functions are pure; states are value types, so concurrent scenario runs
can share them freely.
"""

from __future__ import annotations

import math

from .params import EnvironmentModel, PlantParams, PlantState


def gravity_gain(params: PlantParams, mass: float | None = None) -> float:
    """Gravity load torque per unit sin(q) for the given load mass.

    Single-link pendulum form, calibrated so that the nominal mass produces
    ``G_0`` at q = 90 deg: G(q) = (mass / m_0) * G_0 * sin(q).
    """
    if mass is None:
        mass = params.m
    if mass < 0.0:
        raise ValueError("mass must be nonnegative")
    return (mass / params.m_0) * params.G_0


def gravity_torque(params: PlantParams, q: float, mass: float | None = None) -> float:
    """Gravity load torque at link angle ``q`` for the given load mass."""
    return gravity_gain(params, mass) * math.sin(q)


def contact_torque(env: EnvironmentModel, q: float) -> float:
    """Environment reaction K_e (q - q_0), one-sided unless bilateral."""
    if env.K_e == 0.0:
        return 0.0
    deflection = q - env.q_0
    if not env.bilateral and deflection <= 0.0:
        return 0.0
    return env.K_e * deflection


def disturbance_torque(env: EnvironmentModel, params: PlantParams, q: float) -> float:
    """Total link-side disturbance: gravity mismatch plus contact reaction."""
    dm = env.mass_deviation(params)
    delta_g = gravity_torque(params, q, params.m_0 + dm) - gravity_torque(
        params, q, params.m_0
    )
    return delta_g + contact_torque(env, q)


def _link_gravity_gains(params: PlantParams, env: EnvironmentModel, gravity_on: bool):
    # (nominal, actual load) gravity gains, or None with gravity off
    if not gravity_on:
        return None
    return (gravity_gain(params, params.m_0),
            gravity_gain(params, params.m_0 + env.mass_deviation(params)))


def _derivative(q, dq, theta, dtheta, tau_m, params, env, gravity_gains):
    # scalar core of plant_rhs and the integrator hot loop; the arithmetic of
    # gravity_torque and disturbance_torque, with sin q computed once
    tau_dis = contact_torque(env, q)
    g_nom = 0.0
    if gravity_gains is not None:
        nominal, load = gravity_gains
        try:
            s = math.sin(q)
        except ValueError:  # sin(+-inf): leave the blow-up to the finiteness check
            s = math.nan
        g_nom = nominal * s
        tau_dis = (load * s - g_nom) + tau_dis
    spring = params.K_f * (theta - q)
    ddq = (spring - tau_dis - g_nom) / params.J_a
    ddtheta = (tau_m - params.f_m * dtheta - spring) / params.J_m
    return dq, ddq, dtheta, ddtheta


def plant_rhs(
    state: PlantState,
    tau_m: float,
    params: PlantParams,
    env: EnvironmentModel,
    gravity_on: bool = True,
) -> PlantState:
    """Time derivative of the state under motor torque ``tau_m``.

    Returned as a PlantState whose fields are (dq, ddq, dtheta, ddtheta).
    With ``gravity_on=False`` both the nominal gravity and the load-mismatch
    part of the disturbance are dropped (contact stays active).
    """
    d = _derivative(state.q, state.dq, state.theta, state.dtheta, tau_m, params, env,
                    _link_gravity_gains(params, env, gravity_on))
    return PlantState(*d)


def integrate_step(
    state: PlantState,
    tau_m: float,
    dt: float,
    params: PlantParams,
    env: EnvironmentModel,
    gravity_on: bool = True,
) -> PlantState:
    """Advance the state by ``dt`` with classical fourth-order Runge-Kutta.

    ``tau_m`` is held constant over the step (zero-order hold). Raises
    ValueError on dt <= 0 and signals numeric blow-up by rejecting a
    non-finite result.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    out = _rk4_tuple(state.as_tuple(), tau_m, dt, params, env, gravity_on)
    if not all(map(math.isfinite, out)):
        raise ArithmeticError("state became non-finite during integration")
    return PlantState(*out)


def _rk4_tuple(x, tau_m, dt, params, env, gravity_on):
    q, dq, th, dth = x
    gains = _link_gravity_gains(params, env, gravity_on)
    k1 = _derivative(q, dq, th, dth, tau_m, params, env, gains)
    h2 = dt * 0.5
    k2 = _derivative(
        q + h2 * k1[0], dq + h2 * k1[1], th + h2 * k1[2], dth + h2 * k1[3],
        tau_m, params, env, gains,
    )
    k3 = _derivative(
        q + h2 * k2[0], dq + h2 * k2[1], th + h2 * k2[2], dth + h2 * k2[3],
        tau_m, params, env, gains,
    )
    k4 = _derivative(
        q + dt * k3[0], dq + dt * k3[1], th + dt * k3[2], dth + dt * k3[3],
        tau_m, params, env, gains,
    )
    c = dt / 6.0
    return (
        q + c * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0]),
        dq + c * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1]),
        th + c * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2]),
        dth + c * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3]),
    )


def mechanical_energy(state: PlantState, params: PlantParams) -> float:
    """Kinetic plus spring potential energy of the two-mass chain."""
    twist = state.theta - state.q
    return 0.5 * (
        params.J_a * state.dq ** 2
        + params.J_m * state.dtheta ** 2
        + params.K_f * twist ** 2
    )
