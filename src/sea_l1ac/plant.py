"""Continuous-time dynamics of the elastic joint and its fixed-step integrator.

The link side carries gravity and the external disturbance, the motor side
carries viscous friction; both couple through the torsional spring:

    J_a q''     = K_f (theta - q) - tau_dis - G(q)
    J_m theta'' = tau_m - f_m theta' - K_f (theta - q)

G(q) = g_0 sin q is the nominal-mass gravity and tau_dis = (g - g_0) sin q
plus ``contact_torque`` is the load disturbance, with (g_0, g) the nominal
and scenario load gains ``_link_gravity_gains(params, mass, gravity_on)``
returns (None with gravity off). The one plant API is ``_rk4_tuple(x,
tau_m, dt, params, env, gains)``: one classical RK4 step of x = (q, q',
theta, theta') under ``_derivative``, with the gains computed once per
run. It leaves the finiteness check of the result to its caller.
"""

from __future__ import annotations

import math

from .params import EnvironmentModel, PlantParams


def gravity_gain(params: PlantParams, mass: float) -> float:
    """Gravity load torque per unit sin(q) for the given load mass.

    Single-link pendulum form, calibrated so that the nominal mass produces
    ``G_0`` at q = 90 deg: G(q) = (mass / m_0) * G_0 * sin(q).
    """
    if mass < 0.0:
        raise ValueError("mass must be nonnegative")
    return (mass / params.m_0) * params.G_0


def contact_torque(env: EnvironmentModel, q: float) -> float:
    """Environment reaction K_e (q - q_0), one-sided unless bilateral."""
    if env.K_e == 0.0:
        return 0.0
    deflection = q - env.q_0
    if not env.bilateral and deflection <= 0.0:
        return 0.0
    return env.K_e * deflection


def _link_gravity_gains(params: PlantParams, mass: float, gravity_on: bool):
    # (nominal, load of ``mass``) gravity gains, or None with gravity off
    if not gravity_on:
        return None
    return params.G_0, gravity_gain(params, mass)


def _derivative(q, dq, theta, dtheta, tau_m, params, env, gravity_gains):
    # (dq, ddq, dtheta, ddtheta) under motor torque tau_m; gravity_gains is
    # _link_gravity_gains(...), and sin q is computed once
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


def _rk4_tuple(x, tau_m, dt, params, env, gains):
    # one RK4 step on a 4-tuple, tau_m held over the step (zero-order hold);
    # ``gains`` is _link_gravity_gains(...), which a caller stepping many
    # times computes once
    q, dq, th, dth = x
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
