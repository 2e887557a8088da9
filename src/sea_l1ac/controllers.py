"""Discrete-time controllers: baseline state-feedback law with disturbance
observer, the adaptive augmentation, and the simulation-only reference system.

The adaptive layer runs three pieces once per sample period T_s:

  1. adaptation: invert the one-sample zero-order-hold response of the
     predictor to explain the current prediction error exactly,
  2. command filtering: pass (sigma1_hat + H_m^-1 H_um sigma2_hat - K_g q_d)
     through the low-pass filter C(s) = K_a D(s) / (1 + K_a D(s)) with
     D(s) = 1 / (s (T s + 1)^3),
  3. prediction: advance x_hat by the exact matrix-exponential discretization
     of the nominal model with all inputs held over the step.

Controller instances are single-writer mutable state; independent instances
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, solve

from .nominal import NominalModel, RrcGains
from .params import PlantParams, PlantState
from .plant import gravity_torque


# ---------------------------------------------------------------------------
# disturbance observer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DobConfig:
    """First-order disturbance observer bandwidth [rad/s]."""

    g_ob: float = 500.0

    def __post_init__(self):
        if self.g_ob <= 0.0:
            raise ValueError("observer bandwidth must be positive")


class DisturbanceObserver:
    """Velocity-form estimator of the lumped motor-side disturbance.

    The observer cannot filter the unknown disturbance directly, so it uses
    the algebraically equivalent form

        tau_hat = LPF_g(tau_m + g J_m theta') - g J_m theta'

    whose output equals g/(s+g) applied to (friction + spring reaction) when
    the motor-side model is exact. The internal low-pass filter is advanced
    with its exact zero-order-hold discretization at period ``dt``.
    """

    def __init__(self, cfg: DobConfig, params: PlantParams, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if cfg.g_ob < 10.0 * params.omega:
            raise ValueError(
                "observer bandwidth must dominate the closed loop "
                f"(g_ob={cfg.g_ob} < 10*omega={10 * params.omega:.1f})"
            )
        self.cfg = cfg
        self.dt = dt
        self._gain = cfg.g_ob * params.J_m
        self._decay = math.exp(-cfg.g_ob * dt)
        self._state = 0.0

    def reset(self):
        self._state = 0.0

    def estimate(self, dtheta: float) -> float:
        """Current disturbance estimate given the measured motor velocity."""
        return self._state - self._gain * dtheta

    def advance(self, tau_m_applied: float, dtheta: float):
        """Push one sample of the applied torque and motor velocity."""
        v = tau_m_applied + self._gain * dtheta
        self._state = self._decay * self._state + (1.0 - self._decay) * v


def dob_update(dob: DisturbanceObserver, dtheta: float, tau_m_applied: float) -> float:
    """Advance the observer one period and return the fresh estimate."""
    dob.advance(tau_m_applied, dtheta)
    return dob.estimate(dtheta)


def ideal_motor_side_compensation(state: PlantState | np.ndarray, params: PlantParams) -> float:
    """Exact friction-plus-spring torque, the observer's zero-lag limit."""
    if isinstance(state, PlantState):
        q, _, theta, dtheta = state.as_tuple()
    else:
        q, _, theta, dtheta = state
    return params.f_m * dtheta + params.K_f * (theta - q)


# ---------------------------------------------------------------------------
# baseline position law
# ---------------------------------------------------------------------------

def rrc_control(
    state: PlantState | np.ndarray,
    q_d: float,
    gains: RrcGains,
    gravity_est: float,
    dob_out: float,
    params: PlantParams,
) -> float:
    """Baseline torque: motor target offset by the spring wind-up that holds
    gravity, plus spring-feedback shaping, plus the observer feedforward."""
    if isinstance(state, PlantState):
        q, _, theta, dtheta = state.as_tuple()
    else:
        q, _, theta, dtheta = state
    theta_d = q_d + gravity_est / params.K_f
    u = (
        gains.K_p * (theta_d - theta)
        - gains.K_v * dtheta
        + gains.K_r * (gravity_est - params.K_f * (theta - q))
    )
    return params.J_m * u + dob_out


class RrcController:
    """Stateless baseline controller wrapper holding its configuration."""

    def __init__(
        self,
        params: PlantParams,
        gains: RrcGains,
        gravity_comp: bool = True,
        torque_limit: float | None = None,
    ):
        self.params = params
        self.gains = gains
        self.gravity_comp = gravity_comp
        self.torque_limit = torque_limit
        # trace hooks, populated each step
        self.u1_last = 0.0
        self.u2_last = 0.0
        self.sigma2_hat = np.zeros(3)
        self.xtilde_inf_last = 0.0

    def reset(self, x0=None):
        self.u1_last = 0.0

    def step(self, x, q_d: float, tau_dob: float) -> float:
        gravity_est = gravity_torque(self.params, x[0], self.params.m_0) if self.gravity_comp else 0.0
        tau_m = rrc_control(x, q_d, self.gains, gravity_est, tau_dob, self.params)
        if self.torque_limit is not None:
            tau_m = min(max(tau_m, -self.torque_limit), self.torque_limit)
        self.u1_last = (tau_m - tau_dob) / self.params.J_m
        return tau_m


# ---------------------------------------------------------------------------
# adaptive augmentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L1Config:
    """Sample period, filter time constant and adaptive filter gain."""

    T_s: float = 1e-3
    T: float = 0.01
    K_a: float = 10.0

    def __post_init__(self):
        if self.T_s <= 0.0:
            raise ValueError("T_s must be positive")
        if self.T <= self.T_s:
            raise ValueError("filter time constant T must exceed the period T_s")
        if self.K_a <= 0.0:
            raise ValueError("K_a must be positive")


def shaping_filter_polynomials(T: float, K_a: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of C(s) = K_a / (s (T s + 1)^3 + K_a)."""
    lag = np.array([T, 1.0])
    den = np.polymul(np.polymul(lag, lag), lag)
    den = np.polymul(den, np.array([1.0, 0.0]))
    den = np.polyadd(den, np.array([K_a]))
    return np.array([K_a]), den


def _trim_leading(coeffs: np.ndarray, rel: float = 1e-9) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    scale = np.max(np.abs(c)) if c.size else 0.0
    if scale == 0.0:
        return np.zeros(1)
    keep = np.abs(c) > rel * scale
    first = int(np.argmax(keep))
    return c[first:]


def build_filter_bank(model: NominalModel, cfg: L1Config):
    """Continuous realization of the four command-filter channels.

    Inputs are [sigma1_hat - K_g q_d, sigma2_hat(0..2)], the single output is
    the quantity the control law negates: C(s) applied to the first input and
    C(s) H_m^-1(s) H_um(s) applied to the unmatched estimates. All four
    channels share the denominator of C(s) once the model's common
    denominator cancels inside H_m^-1 H_um, which requires the matched
    numerator to be a constant (full relative degree from the matched input
    to the output). Raises ValueError when a channel would be improper or
    the closed filter is unstable.
    """
    num_c, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    poles = np.roots(den)
    if np.max(poles.real) >= 0.0:
        raise ValueError("closed low-pass filter C(s) is unstable for this (T, K_a)")

    h_m = model.H_m()
    num_m = _trim_leading(h_m.num)
    if len(num_m) != 1:
        raise ValueError(
            "matched channel does not have full relative degree; the combined "
            "filter C(s) H_m^-1(s) H_um(s) cannot be realized over C's denominator"
        )
    # properness of C(s) H_m^-1(s): relative degree of den(C) against den(A_m)
    if (len(den) - 1) < (len(h_m.den) - 1):
        raise ValueError("C(s) H_m^-1(s) is improper for this filter order")

    order = len(den) - 1
    numerators = [num_c]
    for j in range(3):
        num_umj = _trim_leading(model.H_um(j).num)
        if len(num_umj) - 1 > order - 1:
            raise ValueError(f"combined filter channel {j} is not strictly proper")
        numerators.append(cfg.K_a * num_umj / num_m[0])

    # observable canonical form: one shared state chain, one input column per
    # numerator, output = first state
    den_monic = den / den[0]
    A = np.zeros((order, order))
    A[:, 0] = -den_monic[1:]
    A[: order - 1, 1:] = np.eye(order - 1)
    B = np.zeros((order, 4))
    for j, num in enumerate(numerators):
        nc = np.asarray(num, dtype=float) / den[0]
        B[order - len(nc):, j] = nc
    C = np.zeros((1, order))
    C[0, 0] = 1.0
    D = np.zeros((1, 4))
    return A, B, C, D


def discretize_filter_bank(model: NominalModel, cfg: L1Config):
    """Bilinear (trapezoidal) discretization of the command filters at T_s.

    The bilinear map preserves the DC gain exactly, which is what makes the
    steady-state cancellation identities hold in discrete time. Discrete
    poles are verified to lie strictly inside the unit circle.
    """
    A, B, C, D = build_filter_bank(model, cfg)
    ima = np.eye(A.shape[0]) - 0.5 * cfg.T_s * A
    Ad = solve(ima, np.eye(A.shape[0]) + 0.5 * cfg.T_s * A)
    Bd = solve(ima, cfg.T_s * B)
    Cd = solve(ima.T, C.T).T
    Dd = D + 0.5 * (C @ Bd)
    zpoles = np.linalg.eigvals(Ad)
    if np.max(np.abs(zpoles)) >= 1.0:
        raise ValueError("discretized command filter has poles on or outside the unit circle")
    return Ad, Bd, Cd, Dd


class L1Controller:
    """Adaptive position controller around the nominal closed-loop model.

    Per sample (order fixed so the control law uses the freshest estimates):
    measure -> prediction error -> adaptation -> command filter -> predictor
    advance -> torque out. The predictor uses the exact zero-order-hold
    discretization, and the adaptation inverts that one-sample map, so
    grid-aligned piecewise-constant disturbances are recovered exactly.

    With ``gravity_comp`` enabled the known nominal-mass gravity enters as a
    feedforward on the matched channel (the baseline law's two gravity terms)
    and as a known unmatched input to the predictor, leaving only the
    load-deviation part to the adaptive estimates.
    """

    def __init__(
        self,
        params: PlantParams,
        gains: RrcGains,
        model: NominalModel,
        cfg: L1Config,
        gravity_comp: bool = True,
        torque_limit: float | None = None,
    ):
        self.params = params
        self.gains = gains
        self.model = model
        self.cfg = cfg
        self.gravity_comp = gravity_comp
        self.torque_limit = torque_limit

        n = model.A_m.shape[0]
        self.E = expm(model.A_m * cfg.T_s)
        try:
            self.Phi = np.linalg.solve(model.A_m, self.E - np.eye(n))
            self._zoh_inverse = np.linalg.inv(self.Phi @ model.b_stacked)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular hold response; check T_s and the model") from exc

        self.Ad, self.Bd, self.Cd, self.Dd = discretize_filter_bank(model, cfg)

        self.x_hat = np.zeros(n)
        self.sigma1_hat = 0.0
        self.sigma2_hat = np.zeros(3)
        self.u2 = 0.0
        self._zf = np.zeros(self.Ad.shape[0])
        # trace hooks
        self.u1_last = 0.0
        self.u2_last = 0.0
        self.xtilde_inf_last = 0.0
        self.u_gc_last = 0.0
        self.g_ff_last = np.zeros(3)

    def reset(self, x0):
        """Start from a measured state: zero prediction error, zero estimates."""
        if isinstance(x0, PlantState):
            x0 = np.array(x0.as_tuple())
        self.x_hat = np.asarray(x0, dtype=float).copy()
        self.sigma1_hat = 0.0
        self.sigma2_hat = np.zeros(3)
        self.u2 = 0.0
        self._zf = np.zeros(self.Ad.shape[0])

    # -- the three per-sample operations, exposed for direct testing --------

    def adaptation_update(self, x_tilde: np.ndarray) -> tuple[float, np.ndarray]:
        """Piecewise-constant estimates explaining the prediction error.

        Solves x_tilde = Phi(T_s) [B_m B_um] sigma for sigma and negates it,
        i.e. the estimates exactly cancel the error a one-step hold of the
        true disturbances would have produced from zero.
        """
        sigma = -self._zoh_inverse @ np.asarray(x_tilde, dtype=float)
        self.sigma1_hat = float(sigma[0])
        self.sigma2_hat = sigma[1:].copy()
        return self.sigma1_hat, self.sigma2_hat

    def l1_control_update(self, sigma1: float, sigma2: np.ndarray, q_d: float) -> float:
        """Advance the command filters one sample and return u2."""
        v = np.empty(4)
        v[0] = sigma1 - self.model.K_g * q_d
        v[1:] = sigma2
        y = float((self.Cd @ self._zf + self.Dd @ v)[0])
        self._zf = self.Ad @ self._zf + self.Bd @ v
        self.u2 = -y
        return self.u2

    def predictor_step(self, u2: float, matched_known: float = 0.0,
                       unmatched_known: np.ndarray | None = None) -> np.ndarray:
        """Exact hold discretization of the predictor over one period."""
        matched = u2 + matched_known + self.sigma1_hat
        unmatched = self.sigma2_hat if unmatched_known is None \
            else self.sigma2_hat + unmatched_known
        self.x_hat = self.E @ self.x_hat + self.Phi @ (
            self.model.B_m * matched + self.model.B_um @ unmatched
        )
        return self.x_hat

    # -----------------------------------------------------------------------

    def _gravity_terms(self, q_meas: float, q_d: float) -> tuple[float, np.ndarray]:
        if not self.gravity_comp:
            return 0.0, np.zeros(3)
        p = self.params
        u_gc = (
            self.gains.K_p * gravity_torque(p, q_d, p.m_0) / p.K_f
            + self.gains.K_r * gravity_torque(p, self.x_hat[0], p.m_0)
        )
        g_ff = np.array([0.0, -gravity_torque(p, q_meas, p.m_0) / p.J_a, 0.0])
        return u_gc, g_ff

    def step(self, x: np.ndarray, q_d: float, tau_dob: float) -> float:
        """One full control sample; returns the motor torque to apply.

        When the torque limit clips, the predictor is fed the achieved input
        instead of the requested one so the estimates never wind up against
        the saturation.
        """
        x = np.asarray(x, dtype=float)
        x_tilde = self.x_hat - x
        self.xtilde_inf_last = float(np.max(np.abs(x_tilde)))
        sigma1, sigma2 = self.adaptation_update(x_tilde)
        u2 = self.l1_control_update(sigma1, sigma2, q_d)
        u1 = -float(self.gains.K @ x)
        u_gc, g_ff = self._gravity_terms(x[0], q_d)
        tau_m = self.params.J_m * (u1 + u2 + u_gc) + tau_dob
        if self.torque_limit is not None:
            tau_m = min(max(tau_m, -self.torque_limit), self.torque_limit)
        u2_effective = (tau_m - tau_dob) / self.params.J_m - u1 - u_gc
        self.predictor_step(u2_effective, matched_known=u_gc, unmatched_known=g_ff)
        self.u1_last = u1
        self.u2_last = u2
        self.u_gc_last = u_gc
        self.g_ff_last = g_ff
        return tau_m


# ---------------------------------------------------------------------------
# reference system (simulation-only oracle)
# ---------------------------------------------------------------------------

class ReferenceSystem:
    """Idealized closed loop assuming perfectly identified disturbances.

    Not implementable on a real plant: its inputs are the true disturbances,
    which only a simulator can expose. It shares the discrete command-filter
    realization with the real controller and advances its state with the same
    exact hold discretization, so differences against the real loop isolate
    the estimation error.
    """

    def __init__(self, model: NominalModel, cfg: L1Config):
        self.model = model
        self.cfg = cfg
        n = model.A_m.shape[0]
        self.E = expm(model.A_m * cfg.T_s)
        self.Phi = np.linalg.solve(model.A_m, self.E - np.eye(n))
        self.Ad, self.Bd, self.Cd, self.Dd = discretize_filter_bank(model, cfg)
        self.x_r = np.zeros(n)
        self._zf = np.zeros(self.Ad.shape[0])
        self.u2r = 0.0

    def reset(self, x0=None):
        self.x_r = np.zeros(4) if x0 is None else np.asarray(x0, dtype=float).copy()
        self._zf = np.zeros(self.Ad.shape[0])
        self.u2r = 0.0

    def step(
        self,
        sigma1_true: float,
        sigma2_true: np.ndarray,
        q_d: float,
        matched_known: float = 0.0,
        unmatched_known: np.ndarray | None = None,
    ) -> np.ndarray:
        v = np.empty(4)
        v[0] = sigma1_true - self.model.K_g * q_d
        v[1:] = sigma2_true
        y = float((self.Cd @ self._zf + self.Dd @ v)[0])
        self._zf = self.Ad @ self._zf + self.Bd @ v
        self.u2r = -y
        unmatched = np.asarray(sigma2_true, dtype=float)
        if unmatched_known is not None:
            unmatched = unmatched + unmatched_known
        self.x_r = self.E @ self.x_r + self.Phi @ (
            self.model.B_m * (self.u2r + matched_known + sigma1_true)
            + self.model.B_um @ unmatched
        )
        return self.x_r
