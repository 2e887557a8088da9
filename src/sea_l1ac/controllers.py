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

The predictor and the filter bank take the plant constants and read
``build_nominal_model(params)``, whose inputs [B_m B_um] are the fixed
identity columns [e4 e1 e2 e3]. The hold pair (E, Phi), the polynomials of
C(s) and the canonical-form realization come from ``analysis``.

``L1Controller.step`` runs the three pieces with the matrix products
batched into four numpy calls and the rest in scalar arithmetic, in the
same floating-point operations as the three methods ``adaptation_update``,
``l1_control_update`` and ``predictor_step``; those remain the definition,
and step() reproduces them bit for bit, so recorded traces do not depend on
which form ran. ``ReferenceSystem`` is built from an ``L1Controller`` and
reuses its hold pair and filter matrices: one sample is the linear
recurrence s+ = M s + N u on the state s = [x_r; z_f], which ``step(s, u)``
returns and defines; ``run`` marches a whole input sequence at once by
repeated squaring and agrees with ``step`` in a loop to rounding.

Both controllers' ``step(x, q_d, tau_dob)`` return the step record, a plain
tuple ``(tau_m, u1, u2, xtilde_inf, sigma22_hat, u_gc, g_ff1)``: torque,
state-feedback and adaptive commands, prediction-error max norm, link-side
unmatched estimate, and the known gravity inputs of the reference system
(matched u_gc, unmatched (0, g_ff1, 0)). The baseline reports zeros for the
last five.

Controller instances are single-writer mutable state; independent instances
may run concurrently. An ``L1Controller`` starts from zero state and
estimates and has no reset: each run builds its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import solve

from .analysis import (
    hold_response,
    observable_realization,
    shaping_filter_polynomials,
    shaping_filter_stable,
)
from .nominal import build_nominal_model, build_rrc_gains, transfer_from_state_space
from .params import PlantParams


# ---------------------------------------------------------------------------
# disturbance observer
# ---------------------------------------------------------------------------

class DisturbanceObserver:
    """Velocity-form estimator of the lumped motor-side disturbance with
    bandwidth ``g_ob`` [rad/s], at least 10 omega.

    The observer cannot filter the unknown disturbance directly, so it uses
    the algebraically equivalent form

        tau_hat = LPF_g(tau_m + g J_m theta') - g J_m theta'

    whose output equals g/(s+g) applied to (friction + spring reaction) when
    the motor-side model is exact. The internal low-pass filter is advanced
    with its exact zero-order-hold discretization at period ``dt``.
    """

    def __init__(self, g_ob: float, params: PlantParams, dt: float):
        if not 0.0 < dt < math.inf:  # nan fails too
            raise ValueError("dt must be positive and finite")
        # written so that nan fails; omega > 0, so this rejects g_ob <= 0 too
        if not 10.0 * params.omega <= g_ob < math.inf:
            raise ValueError(
                "observer bandwidth g_ob must be finite and dominate the closed loop "
                f"(g_ob={g_ob:g}, 10*omega={10 * params.omega:g})"
            )
        self._gain = g_ob * params.J_m
        self._decay = math.exp(-g_ob * dt)
        self._state = 0.0

    def estimate(self, dtheta: float) -> float:
        """Current disturbance estimate given the measured motor velocity."""
        return self._state - self._gain * dtheta

    def advance(self, tau_m_applied: float, dtheta: float):
        """Push one sample of the applied torque and motor velocity."""
        v = tau_m_applied + self._gain * dtheta
        self._state = self._decay * self._state + (1.0 - self._decay) * v


def _check_law_options(gravity_comp, torque_limit):
    """Reject a non-bool ``gravity_comp`` and a torque limit the clamp would misread."""
    if not isinstance(gravity_comp, bool):
        raise ValueError("gravity_comp must be a bool")
    if torque_limit is not None and not 0.0 < torque_limit < math.inf:
        raise ValueError("torque_limit must be positive and finite when set")


def ideal_motor_side_compensation(state, params: PlantParams) -> float:
    """Exact friction-plus-spring torque, the observer's zero-lag limit;
    ``state`` is (q, q', theta, theta') as any 4-sequence."""
    q, _, theta, dtheta = state
    return params.f_m * dtheta + params.K_f * (theta - q)


# ---------------------------------------------------------------------------
# baseline position law
# ---------------------------------------------------------------------------

class RrcController:
    """Baseline law: motor target offset by the spring wind-up that holds
    the nominal gravity, plus spring-feedback shaping, plus the observer
    feedforward. Its gains are ``build_rrc_gains(params)``. Stateless apart
    from its configuration."""

    def __init__(self, params: PlantParams, *, gravity_comp: bool = True,
                 torque_limit: float | None = None):
        _check_law_options(gravity_comp, torque_limit)
        self.params = params
        self.gains = build_rrc_gains(params)
        self.gravity_comp = gravity_comp
        self.torque_limit = torque_limit

    def step(self, x, q_d: float, tau_dob: float) -> tuple:
        """One control sample; returns the step record (module docstring).
        ``x`` is (q, q', theta, theta') as any 4-sequence."""
        p, k = self.params, self.gains
        q, _, theta, dtheta = x
        gravity_est = p.G_0 * math.sin(q) if self.gravity_comp else 0.0
        theta_d = q_d + gravity_est / p.K_f
        u = (
            k.K_p * (theta_d - theta)
            - k.K_v * dtheta
            + k.K_r * (gravity_est - p.K_f * (theta - q))
        )
        tau_m = p.J_m * u + tau_dob
        if self.torque_limit is not None:
            tau_m = min(max(tau_m, -self.torque_limit), self.torque_limit)
        return tau_m, (tau_m - tau_dob) / p.J_m, 0.0, 0.0, 0.0, 0.0, 0.0


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
        # written so that nan fails every check; the upper limits reject inf
        if not 0.0 < self.T_s < math.inf:
            raise ValueError("T_s must be positive")
        if not self.T_s < self.T < math.inf:
            raise ValueError("filter time constant T must exceed the period T_s")
        if not 0.0 < self.K_a < math.inf:
            raise ValueError("K_a must be positive")


def build_filter_bank(params: PlantParams, cfg: L1Config):
    """Continuous realization of the four command-filter channels.

    Inputs are [sigma1_hat - K_g q_d, sigma2_hat(0..2)], the single output is
    the quantity the control law negates: C(s) applied to the first input and
    C(s) H_m^-1(s) H_um(s) applied to the unmatched estimates. All four
    channels share the denominator of C(s): the matched numerator of
    ``build_nominal_model(params)`` is a constant, so the model's denominator
    cancels inside H_m^-1 H_um. The numerators are trimmed of exact leading
    zeros only, so a small but real leading coefficient is kept. Raises
    ValueError when the closed filter is unstable.
    """
    if not shaping_filter_stable(cfg.T, cfg.K_a):
        raise ValueError("closed low-pass filter C(s) is unstable for this (T, K_a)")
    num_c, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    model = build_nominal_model(params)
    nums, _ = transfer_from_state_space(model.A_m, model.b_stacked, model.c)
    (num_m,) = np.trim_zeros(nums[0], "f")  # full relative degree: one coefficient
    # strictly proper: a trimmed numerator has at most n coefficients, len(den) > n
    numerators = [num_c] + [cfg.K_a * np.trim_zeros(num_um, "f") / num_m
                            for num_um in nums[1:]]
    return observable_realization(numerators, den)


def discretize_filter_bank(params: PlantParams, cfg: L1Config):
    """Bilinear (trapezoidal) discretization of the command filters at T_s.

    The bilinear map preserves the DC gain exactly, which is what makes the
    steady-state cancellation identities hold in discrete time. Discrete
    poles are verified to lie strictly inside the unit circle.
    """
    A, B, C, D = build_filter_bank(params, cfg)
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

    The gains are ``build_rrc_gains(params)`` and the nominal model is the
    closed loop of that same law, ``build_nominal_model(params)``.
    """

    def __init__(self, params: PlantParams, cfg: L1Config, *, gravity_comp: bool = True,
                 torque_limit: float | None = None):
        _check_law_options(gravity_comp, torque_limit)
        self.params = params
        self.gains = gains = build_rrc_gains(params)
        self.model = model = build_nominal_model(params)
        self.gravity_comp = gravity_comp
        self.torque_limit = torque_limit

        try:
            self.E, self.Phi = hold_response(model.A_m, cfg.T_s)
            self._zoh_inverse = np.linalg.inv(self.Phi @ model.b_stacked)
        except np.linalg.LinAlgError as exc:
            raise ValueError("singular hold response; check T_s and the plant constants") from exc
        self.Ad, self.Bd, self.Cd, self.Dd = discretize_filter_bank(params, cfg)

        # step() batches the definition's matrix products. In a batched
        # matmul numpy multiplies each item with the BLAS call that item alone
        # would get (gemv for 4x4, dot for 1x4), so step() rounds as the
        # three methods do. The operands share one buffer, [x_tilde; x_hat;
        # z_f; x; v] (state and filter order are both 4): [-Z; E; Ad] act on
        # the first three, [Cd; K; Dd] on the last three.
        self._buf = np.zeros(20)
        self._x_hat = self._buf[4:8]
        self._zf = self._buf[8:12]
        self._start = self._buf[:12].reshape(3, 4, 1)
        self._dots = self._buf[8:].reshape(3, 4, 1)
        self._start_maps = np.stack([-self._zoh_inverse, self.E, self.Ad])
        self._dot_rows = np.stack([self.Cd, gains.K[None, :], self.Dd])
        self.sigma1_hat, self.sigma2_hat = 0.0, np.zeros(3)

    @property
    def x_hat(self) -> np.ndarray:
        """Predictor state; a view that each sample updates in place."""
        return self._x_hat

    # -- the three per-sample operations: the definition of step() ----------

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
        self._zf[:] = self.Ad @ self._zf + self.Bd @ v
        return -y

    def predictor_step(self, u2: float, matched_known: float = 0.0,
                       unmatched_known: np.ndarray | None = None) -> np.ndarray:
        """Exact hold discretization of the predictor over one period."""
        matched = u2 + matched_known + self.sigma1_hat
        unmatched = self.sigma2_hat if unmatched_known is None \
            else self.sigma2_hat + unmatched_known
        self._x_hat[:] = self.E @ self._x_hat + self.Phi @ (
            self.model.B_m * matched + self.model.B_um @ unmatched
        )
        return self._x_hat

    # -----------------------------------------------------------------------

    def step(self, x, q_d: float, tau_dob: float) -> tuple:
        """One full control sample; returns the step record (module docstring).

        Runs adaptation_update, l1_control_update and predictor_step with the
        gravity feedforward and the torque clamp, in the same floating-point
        operations, with the matrix products batched. When the torque limit
        clips, the predictor is fed the achieved input instead of the
        requested one so the estimates never wind up against the saturation.
        ``x`` is the measured state as a 4-sequence.
        """
        p = self.params
        buf = self._buf
        x0, x1, x2, x3 = x
        h0, h1, h2, h3 = self._x_hat.tolist()
        xt0, xt1, xt2, xt3 = h0 - x0, h1 - x1, h2 - x2, h3 - x3
        buf[:4] = xt0, xt1, xt2, xt3

        start = self._start_maps @ self._start
        s0, s1, s2, s3, e0, e1, e2, e3, a0, a1, a2, a3 = start.ravel().tolist()
        buf[12:] = x0, x1, x2, x3, s0 - self.model.K_g * q_d, s1, s2, s3
        b0, b1, b2, b3 = (self.Bd @ buf[16:]).tolist()
        c_zf, k_x, d_v = (self._dot_rows @ self._dots).ravel().tolist()
        u2 = -(c_zf + d_v)
        u1 = -k_x

        if self.gravity_comp:
            g = p.G_0
            u_gc = (self.gains.K_p * (g * math.sin(q_d)) / p.K_f
                    + self.gains.K_r * (g * math.sin(h0)))
            g_ff1 = -(g * math.sin(x0)) / p.J_a
        else:
            u_gc = g_ff1 = 0.0
        tau_m = p.J_m * (u1 + u2 + u_gc) + tau_dob
        if self.torque_limit is not None:
            tau_m = min(max(tau_m, -self.torque_limit), self.torque_limit)
        u2_effective = (tau_m - tau_dob) / p.J_m - u1 - u_gc

        # [B_m B_um] is the identity columns [e4 e1 e2 e3]; the + 0.0 turns
        # -0.0 into 0.0, as the exact zeros of predictor_step's sum do
        drive = (s1 + 0.0, (s2 + g_ff1) + 0.0, s3 + 0.0, (u2_effective + u_gc + s0) + 0.0)
        d0, d1, d2, d3 = (self.Phi @ drive).tolist()
        buf[4:12] = (e0 + d0, e1 + d1, e2 + d2, e3 + d3,  # x_hat
                     a0 + b0, a1 + b1, a2 + b2, a3 + b3)  # z_f

        self.sigma1_hat = s0
        self.sigma2_hat = start[0, 1:, 0]
        return (tau_m, u1, u2, max(abs(xt0), abs(xt1), abs(xt2), abs(xt3)), s2,
                u_gc, g_ff1)


# ---------------------------------------------------------------------------
# reference system (simulation-only oracle)
# ---------------------------------------------------------------------------

class ReferenceSystem:
    """Idealized closed loop assuming perfectly identified disturbances.

    Not implementable on a real plant: its inputs are the true disturbances,
    which only a simulator can expose. It is its controller's command filter
    and exact-hold predictor with the estimates replaced by those inputs, so
    differences against the real loop isolate the estimation error; it is
    built from the controller's matrices and discretizes nothing itself.

    One sample is s+ = M s + N u on the state s = [x_r; z_f] and the input
    row u = (sigma1, sigma2 (3), q_d, matched_known, unmatched_known (3)).
    ``step`` is that recurrence and its definition; ``run`` applies it to a
    whole input sequence without a per-sample Python call. The instance
    holds only M and N.
    """

    def __init__(self, controller: L1Controller):
        model, pb = controller.model, controller.Phi @ controller.model.B_m
        Ad, Bd, Cd, Dd = controller.Ad, controller.Bd, controller.Cd, controller.Dd
        nf = Ad.shape[0]
        v = np.zeros((4, 9))  # filter input [sigma1 - K_g q_d; sigma2]
        v[:, :4] = np.eye(4)
        v[0, 4] = -model.K_g
        hold = np.zeros((4, 9))  # B_m (sigma1 + matched_known) + B_um (sigma2 + unmatched_known)
        hold[:, [0, 5]] = model.B_m[:, None]
        hold[:, 1:4] = hold[:, 6:9] = model.B_um
        # the predictor is driven by u2r = -(Cd z_f + Dd v) on top of the hold input
        self._M = np.block([[controller.E, -np.outer(pb, Cd[0])],
                            [np.zeros((nf, 4)), Ad]])
        self._N = np.vstack([controller.Phi @ hold - np.outer(pb, (Dd @ v)[0]), Bd @ v])

    def step(self, s, u) -> np.ndarray:
        """The state [x_r; z_f] one sample after ``s`` under the input row ``u``."""
        return self._M @ s + self._N @ u

    def run(self, x0, inputs) -> np.ndarray:
        """x_r after each of ``len(inputs)`` samples from s = [x0; 0].

        Row k of ``inputs`` is sample k's input row u: sigma1_true,
        sigma2_true (3), q_d, matched_known, unmatched_known (3). Row k of
        the result is x_r after k + 1 calls s = step(s, u), to rounding.

        s+ = M s + N u is an affine prefix scan, marched in the doubling
        form of Hillis and Steele: s starts as the drives N u, the first
        plus M [x0; 0]; the pass with stride k = 1, 2, 4, ... adds M^k times
        the row k earlier, after which row i sums the last 2k drives through
        their powers of M, and M^k squares for the next pass. That is
        ceil(log2 n) passes of one product over at most n rows each, so
        O(n log n) work; README's "Reference-system error" gives its cost.
        """
        s = np.asarray(inputs, dtype=float).reshape(-1, 9) @ self._N.T
        s[:1] += self._M[:, :4] @ x0  # s[:1], not s[0]: there may be no samples
        P, k = self._M, 1
        while k < len(s):
            s[k:] += s[:-k] @ P.T
            P, k = P @ P, 2 * k
        return s[:, :4]
