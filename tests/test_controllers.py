import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sea_l1ac import (
    DisturbanceObserver,
    L1Config,
    L1Controller,
    ReferenceSystem,
    RrcController,
    build_nominal_model,
    build_rrc_gains,
    gravity_gain,
    transfer_from_state_space,
)
from sea_l1ac.analysis import observable_realization, shaping_filter_polynomials
from sea_l1ac.controllers import build_filter_bank, discretize_filter_bank


def _dc_gain(tf):
    num, den = tf
    return np.polyval(num, 0.0) / np.polyval(den, 0.0)


def _to_output(model, column):
    """(num, den) of the transfer from input ``column`` to y = c x."""
    return transfer_from_state_space(model.A_m, column, model.c)


# ---------------------------------------------------------------------------
# disturbance observer
# ---------------------------------------------------------------------------

def test_dob_zero_in_zero_out(params):
    dob = DisturbanceObserver(500.0, params, 1e-3)
    for _ in range(50):
        dob.advance(0.0, 0.0)
        assert dob.estimate(0.0) == 0.0


def test_dob_step_disturbance_first_order_response(params):
    # a blocked motor with constant counter-torque d: tau_m = d, dtheta = 0;
    # oracle: the first-order response d (1 - exp(-g t))
    g, dt, d = 500.0, 1e-5, 3.7
    dob = DisturbanceObserver(g, params, dt)
    steps = int(round(1.0 / g / dt))
    for _ in range(steps):
        dob.advance(d, 0.0)
    out = dob.estimate(0.0)
    assert out == pytest.approx(d * (1.0 - math.exp(-1.0)), rel=1e-9)


def test_dob_converges_to_constant_disturbance_with_motion(params):
    # steady cruise: constant velocity, torque balancing the disturbance
    dob = DisturbanceObserver(500.0, params, 1e-4)
    dtheta, d = 2.0, 11.0
    for _ in range(5000):
        dob.advance(d, dtheta)
    out = dob.estimate(dtheta)
    assert out == pytest.approx(d, rel=1e-9)


def test_dob_requires_bandwidth_separation(params):
    with pytest.raises(ValueError):
        DisturbanceObserver(50.0, params, 1e-3)


# ---------------------------------------------------------------------------
# baseline law
# ---------------------------------------------------------------------------

def test_rrc_equilibrium_passes_observer_torque_through(params):
    q_d = 1.1
    g = gravity_gain(params, params.m_0) * math.sin(q_d)
    theta = q_d + g / params.K_f
    dob_out = params.K_f * (theta - q_d)
    tau = RrcController(params).step((q_d, 0.0, theta, 0.0), q_d, dob_out)[0]
    assert tau == pytest.approx(dob_out, abs=1e-9)


# ---------------------------------------------------------------------------
# law and nominal model derived from the plant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("plant", [{}, {"J_a": 0.5, "K_f": 100.0}], ids=["benchmark", "override"])
def test_controllers_derive_gains_and_model_from_the_plant(params, plant):
    plant_params = replace(params, **plant)
    gains = build_rrc_gains(plant_params)
    model = build_nominal_model(plant_params)
    rrc = RrcController(plant_params)
    l1 = L1Controller(plant_params, L1Config())
    for ctl in (rrc, l1):
        assert np.array_equal(ctl.gains.K, gains.K)
        assert (ctl.gains.K_p, ctl.gains.K_r, ctl.gains.K_v) == (gains.K_p, gains.K_r, gains.K_v)
    assert np.array_equal(l1.model.A_m, model.A_m)
    assert l1.model.K_g == model.K_g
    assert np.array_equal(l1.model.b_stacked, model.b_stacked)


def test_controllers_take_no_gains_or_model(params, gains, model):
    with pytest.raises(TypeError):
        L1Controller(params, gains, model, L1Config())
    with pytest.raises(TypeError):
        RrcController(params, gains)
    with pytest.raises(TypeError):  # the law options are keyword-only
        L1Controller(params, L1Config(), False)


# ---------------------------------------------------------------------------
# predictor and adaptation
# ---------------------------------------------------------------------------

@pytest.fixture()
def controller(params):
    return L1Controller(params, L1Config(), gravity_comp=False)


def test_predictor_stays_at_origin(controller):
    assert np.array_equal(controller.predictor_step(0.0), np.zeros(4))


def _rk4_linear(model, x, u2, sigma1, sigma2, dt, substeps=64):
    def f(x):
        return model.A_m @ x + model.B_m * (u2 + sigma1) + model.B_um @ sigma2

    h = dt / substeps
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + h / 2 * k1)
        k3 = f(x + h / 2 * k2)
        k4 = f(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def test_predictor_matches_fine_integration(controller, model):
    controller.x_hat[:] = [0.1, -0.4, 0.2, 1.0]
    u2 = 2.5
    expected = _rk4_linear(model, controller.x_hat.copy(), u2, 0.0, np.zeros(3), 1e-3)
    got = controller.predictor_step(u2)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_prediction_error_stays_zero_for_identical_dynamics(controller, model):
    x = np.array([0.2, 0.0, -0.1, 0.5])
    controller.x_hat[:] = x
    for _ in range(20):
        x = controller.E @ x + controller.Phi @ (model.B_m * 1.3)
        controller.predictor_step(1.3)
        assert np.max(np.abs(controller.x_hat - x)) < 1e-12


def test_adaptation_zero_error_zero_estimates(controller):
    s1, s2 = controller.adaptation_update(np.zeros(4))
    assert s1 == 0.0
    assert np.array_equal(s2, np.zeros(3))


@settings(max_examples=40, deadline=None)
@given(sigma=st.tuples(*[st.floats(-50, 50) for _ in range(4)]))
def test_adaptation_inverts_one_step_hold_exactly(params, model, sigma):
    ctl = L1Controller(params, L1Config(), gravity_comp=False)
    sigma = np.array(sigma)
    # plant truth: one hold interval of the nominal dynamics under sigma
    x_true = _rk4_linear(model, np.zeros(4), 0.0, sigma[0], sigma[1:], 1e-3, substeps=128)
    ctl.predictor_step(0.0)  # estimates still zero
    s1, s2 = ctl.adaptation_update(ctl.x_hat - x_true)
    recovered = np.array([s1, *s2])
    assert np.max(np.abs(recovered - sigma)) < 1e-6 * max(1.0, np.max(np.abs(sigma)))


def test_hold_integral_approaches_identity_for_tiny_period(model):
    # phi(t)/t = I + A t/2 + O(t^2): the deviation is set by the A t/2 term
    # (about 1.7e-3 at t = 1e-6 for this model) and halves with t
    from sea_l1ac.analysis import hold_response

    dev = {}
    for t in (1e-6, 5e-7):
        _, phi = hold_response(model.A_m, t)
        dev[t] = np.max(np.abs(phi / t - np.eye(4)))
        assert dev[t] <= 0.6 * np.max(np.abs(model.A_m)) * t
    assert dev[5e-7] == pytest.approx(0.5 * dev[1e-6], rel=0.05)


def test_adaptation_flags_misconfigured_period():
    with pytest.raises(ValueError):
        L1Config(T_s=0.0)
    with pytest.raises(ValueError):
        L1Config(T_s=1e-3, T=1e-4)  # filter faster than the sample period


# ---------------------------------------------------------------------------
# command filter
# ---------------------------------------------------------------------------

def test_filter_dc_identity_tracking(controller, model):
    q_d = 1.0
    u2 = 0.0
    for _ in range(4000):
        u2 = controller.l1_control_update(0.0, np.zeros(3), q_d)
    assert u2 == pytest.approx(model.K_g * q_d, rel=1e-8)


def test_filter_dc_identity_matched_cancellation(controller):
    d = 4.2
    for _ in range(4000):
        u2 = controller.l1_control_update(d, np.zeros(3), 0.0)
    assert u2 == pytest.approx(-d, rel=1e-8)


def test_filter_dc_identity_unmatched_cancellation(controller, model):
    sigma2 = np.array([0.0, -3.0, 0.0])
    for _ in range(4000):
        u2 = controller.l1_control_update(0.0, sigma2, 0.0)
    # analytic DC of the combined channel: H_m(0)^-1 H_um(0)
    h_mum0 = (_dc_gain(_to_output(model, model.B_um[:, 1]))
              / _dc_gain(_to_output(model, model.B_m)))
    assert u2 == pytest.approx(-h_mum0 * sigma2[1], rel=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    T_s=st.floats(1e-4, 4e-3),
    K_a=st.floats(1.0, 20.0),
    frac=st.floats(1e-3, 0.999),
)
def test_discretized_filter_bank_keeps_its_dc_gain(params, model, T_s, K_a, frac):
    # T from just above T_s to just below C(s)'s stability bound K_a T < 8/9.
    # Oracle: channel 0 is C(0) = 1, channel j is H_um,j(0) / H_m(0).
    # One of those is 0, so the bound is relative to the largest channel's
    # gain: 1e-11. The solve through I - Ad measured 8e-15 at the default
    # tuning and at most 3.5e-13 over 4000 random tunings in this range.
    T = T_s + frac * (8.0 / 9.0 / K_a - T_s)
    Ad, Bd, Cd, Dd = discretize_filter_bank(params, L1Config(T_s=T_s, T=T, K_a=K_a))
    dc = (Cd @ np.linalg.solve(np.eye(len(Ad)) - Ad, Bd) + Dd)[0]
    want = np.array([1.0] + [_dc_gain(_to_output(model, model.B_um[:, j]))
                             / _dc_gain(_to_output(model, model.B_m)) for j in range(3)])
    assert np.max(np.abs(dc - want)) <= 1e-11 * np.max(np.abs(want))


def _frequency_response(realization, s):
    A, B, C, D = realization
    return C @ np.linalg.solve(s * np.eye(A.shape[0]) - A, B) + D


@pytest.mark.parametrize("plant", [{}, {"K_f": 1e7, "J_a": 0.01}], ids=["default", "stiff"])
def test_realized_filter_matches_analytic_frequency_response(params, plant):
    # oracle: C(s) from its polynomials, and H_m^-1 H_um from the resolvent
    # (sI - A_m)^-1 of the nominal model. The stiff plant (omega ~ 31,600
    # rad/s) has unmatched numerators whose leading 1.0 is below 1e-9 of
    # their largest coefficient; dropping it cost 2.0e-4 relative.
    plant_params = replace(params, **plant)
    model = build_nominal_model(plant_params)
    cfg = L1Config()
    num, den = shaping_filter_polynomials(cfg.T, cfg.K_a)
    bank = build_filter_bank(plant_params, cfg)
    # a proper numerator, 1 - C(s), puts its direct part in D
    one_minus_c = np.polysub(den, np.concatenate([np.zeros(len(den) - 1), num]))
    proper = observable_realization([one_minus_c], den)
    assert proper[3][0, 0] == 1.0
    for w in (0.1, 3.0, 30.0, 1.0 / cfg.T, 1000.0):
        s = 1j * w
        c_of_s = np.polyval(num, s) / np.polyval(den, s)
        resolvent = model.c @ np.linalg.inv(s * np.eye(4) - model.A_m)
        analytic = c_of_s * np.concatenate(
            [[1.0], resolvent @ model.B_um / (resolvent @ model.B_m)])
        realized = _frequency_response(bank, s)[0]
        assert np.all(np.abs(realized - analytic) <= 1e-9 * np.abs(analytic))
        got = _frequency_response(proper, s)[0, 0]
        assert abs(got - (1.0 - c_of_s)) <= 1e-9 * abs(1.0 - c_of_s)


@pytest.mark.parametrize("T", [0.005, 0.01, 0.02])
@pytest.mark.parametrize("T_s", [1e-4, 1e-3, 2e-3])
def test_tustin_step_is_bit_identical_to_scipy_bilinear(params, T, T_s):
    from scipy.signal import cont2discrete

    cfg = L1Config(T_s=T_s, T=T)
    expected = cont2discrete(build_filter_bank(params, cfg), T_s, method="bilinear")[:4]
    for got, want in zip(discretize_filter_bank(params, cfg), expected):
        assert np.array_equal(got, want)


def test_discrete_filter_poles_inside_unit_circle(controller):
    assert np.max(np.abs(np.linalg.eigvals(controller.Ad))) < 1.0


def test_unstable_filter_rejected_at_construction(params):
    with pytest.raises(ValueError, match="unstable"):
        L1Controller(params, L1Config(T=1.0, K_a=10.0))


def test_filter_bank_takes_the_plant_not_a_model(model):
    for build in (build_filter_bank, discretize_filter_bank):
        with pytest.raises(TypeError, match="PlantParams"):
            build(model, L1Config())


# ---------------------------------------------------------------------------
# full adaptive step and the reference system
# ---------------------------------------------------------------------------

def test_l1_step_idles_without_excitation(params):
    ctl = L1Controller(params, L1Config(), gravity_comp=False)
    for _ in range(100):
        tau = ctl.step(np.zeros(4), 0.0, 0.0)[0]
        assert tau == 0.0


def test_torque_limit_feeds_achieved_input_to_predictor(params, model):
    limit = 5.0
    ctl = L1Controller(params, L1Config(), gravity_comp=False,
                       torque_limit=limit)
    # a large observer feedforward forces the clip on the very first step
    tau = ctl.step(np.zeros(4), 0.0, 100.0)[0]
    assert tau == limit
    # predictor saw the achieved matched input (tau - tau_dob)/J_m, not u2
    expected = ctl.Phi @ (model.B_m * ((limit - 100.0) / params.J_m))
    assert np.max(np.abs(ctl.x_hat - expected)) < 1e-12


def _reference(params, cfg=L1Config()):
    return ReferenceSystem(L1Controller(params, cfg))


def _start(ref, x0=(0.0,) * 4):
    """The reference state s = [x0; 0]: x_r = x0 and a zero filter state."""
    return np.concatenate([x0, np.zeros(len(ref._M) - 4)])


def test_reference_system_holds_only_its_recurrence(params):
    ref = _reference(params)
    assert set(vars(ref)) == {"_M", "_N"} and not hasattr(ref, "reset")
    s, u = _start(ref, np.arange(4.0)), np.arange(9.0)
    assert np.array_equal(ref.step(s, u), ref._M @ s + ref._N @ u)


def test_reference_system_tracks_step_without_disturbance(params):
    ref = _reference(params)
    q_d = 1.2
    s, u = _start(ref), np.zeros(9)
    u[4] = q_d
    for _ in range(4000):
        s = ref.step(s, u)
    x_r = s[:4]
    assert x_r[0] == pytest.approx(q_d, abs=1e-6)
    assert abs(x_r[1]) < 1e-6


def test_reference_system_respects_certified_bound(params):
    # the design condition certifies a peak bound for the reference state;
    # oracle: simulate under an in-envelope disturbance and take the max norm
    from sea_l1ac import StabilityBudget, check_stability_condition

    budget = StabilityBudget(L_2=0.0, B_2=12.84)
    rep = check_stability_condition(params, L1Config(), budget, qd_peak=math.pi / 2)
    assert rep.satisfied and 100.0 > rep.rho_best
    ref = _reference(params)
    s, u = _start(ref), np.zeros(9)
    u[1:4] = (0.0, -12.84, 0.0)  # sigma2
    u[4] = math.pi / 2
    peak = 0.0
    for _ in range(5000):
        s = ref.step(s, u)
        peak = max(peak, float(np.max(np.abs(s[:4]))))
    assert peak <= 100.0


# ---------------------------------------------------------------------------
# per-sample steps against their definition
# ---------------------------------------------------------------------------

def _assert_close(got, want, *terms):
    """1e-12 relative plus 1e-15 absolute; relative to the largest of
    ``want`` and the ``terms`` summed to produce it, since a sum that
    cancels keeps the rounding error of its terms."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(t))) for t in (want, *terms))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale + 1e-15


def _definition_step(ctl, x, q_d, tau_dob):
    """L1Controller.step written as its definition: adaptation, filter and
    predictor in turn, plus the gravity feedforward and the torque clamp.
    Returns the step record (tau_m, u1, u2, xtilde_inf, sigma22_hat, u_gc,
    g_ff1)."""
    p, gains = ctl.params, ctl.gains
    x = np.asarray(x, dtype=float)
    x_tilde = ctl.x_hat - x
    sigma1, sigma2 = ctl.adaptation_update(x_tilde)
    u2 = ctl.l1_control_update(sigma1, sigma2, q_d)
    u1 = -float(gains.K @ x)
    u_gc, g_ff = 0.0, np.zeros(3)
    if ctl.gravity_comp:
        g = gravity_gain(p, p.m_0)
        u_gc = (gains.K_p * (g * math.sin(q_d)) / p.K_f
                + gains.K_r * (g * math.sin(ctl.x_hat[0])))
        g_ff[1] = -(g * math.sin(x[0])) / p.J_a
    tau_m = p.J_m * (u1 + u2 + u_gc) + tau_dob
    if ctl.torque_limit is not None:
        tau_m = min(max(tau_m, -ctl.torque_limit), ctl.torque_limit)
    u2_effective = (tau_m - tau_dob) / p.J_m - u1 - u_gc
    ctl.predictor_step(u2_effective, matched_known=u_gc, unmatched_known=g_ff)
    return tau_m, u1, u2, float(np.max(np.abs(x_tilde))), sigma2[1], u_gc, g_ff[1]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


_state = st.tuples(st.floats(-3, 3), st.floats(-20, 20), st.floats(-3, 3), st.floats(-50, 50))
_sample = st.tuples(_state, st.floats(-2, 2), st.floats(-50, 50))


@settings(max_examples=60, deadline=None)
@given(
    x0=_state,
    samples=st.lists(_sample, min_size=1, max_size=4),
    gravity_comp=st.booleans(),
    # 1 N m clips nearly every sample, 1e6 N m never does
    torque_limit=st.one_of(st.none(), st.sampled_from([1.0, 1e6]), st.floats(1.0, 500.0)),
)
def test_l1_step_reproduces_its_definition_bit_for_bit(params, x0, samples, gravity_comp,
                                                       torque_limit):
    # recorded traces stay byte-identical only if step() rounds exactly as
    # the three methods do
    batched, plain = (
        L1Controller(params, L1Config(), gravity_comp=gravity_comp,
                     torque_limit=torque_limit)
        for _ in range(2)
    )
    batched.x_hat[:] = x0
    plain.x_hat[:] = x0
    for x, q_d, tau_dob in samples:
        record = batched.step(x, q_d, tau_dob)
        want = _definition_step(plain, x, q_d, tau_dob)
        assert len(record) == len(want) == 7
        for got_field, want_field in zip(record, want):
            assert _bits(got_field) == _bits(want_field)
        assert _bits(batched.x_hat) == _bits(plain.x_hat)
        assert _bits(batched._zf) == _bits(plain._zf)
        assert _bits([batched.sigma1_hat, *batched.sigma2_hat]) == \
            _bits([plain.sigma1_hat, *plain.sigma2_hat])


@settings(max_examples=60, deadline=None)
@given(
    x0=_state,
    samples=st.lists(
        st.tuples(st.floats(-50, 50), st.tuples(*[st.floats(-50, 50)] * 3), st.floats(-2, 2),
                  st.floats(-50, 50), st.tuples(*[st.floats(-50, 50)] * 3)),
        min_size=1, max_size=4),
)
def test_fused_reference_step_matches_unfused_formula(params, model, x0, samples):
    # the controller's filter and hold, stepped term by term; a wrong filter
    # state shows in x_r one sample later
    ctl = L1Controller(params, L1Config())
    ref = ReferenceSystem(ctl)
    s = _start(ref, np.array(x0))
    x_r, zf = np.array(x0), np.zeros(ctl.Ad.shape[0])
    for sigma1, sigma2, q_d, matched_known, unmatched_known in samples:
        v = np.array([sigma1 - model.K_g * q_d, *sigma2])
        u2r = -float((ctl.Cd @ zf + ctl.Dd @ v)[0])
        zf = ctl.Ad @ zf + ctl.Bd @ v
        drive = (model.B_m * (u2r + matched_known + sigma1),
                 model.B_um @ (np.array(sigma2) + unmatched_known))
        x_terms = (ctl.E @ x_r, *(ctl.Phi @ d for d in drive))
        x_r = sum(x_terms)
        s = ref.step(s, np.array([sigma1, *sigma2, q_d, matched_known, *unmatched_known]))
        _assert_close(s[:4], x_r, *x_terms, ctl.Phi @ model.B_m * u2r)


@settings(max_examples=60, deadline=None)
@given(
    T_s=st.floats(5e-4, 4e-3),
    K_a=st.floats(1.0, 20.0),
    T_frac=st.floats(0.0, 1.0),
    n=st.one_of(st.integers(1, 20), st.integers(1, 3000)),
    seed=st.integers(0, 2**32 - 1),
    walk=st.booleans(),
)
# one and two samples, a whole top doubling level, one sample past it, and a
# long run with a partial top level
@example(T_s=1e-3, K_a=10.0, T_frac=0.5, n=1, seed=1, walk=False)
@example(T_s=1e-3, K_a=10.0, T_frac=0.5, n=2, seed=2, walk=False)
@example(T_s=1e-3, K_a=10.0, T_frac=0.5, n=4096, seed=3, walk=True)
@example(T_s=5e-4, K_a=20.0, T_frac=1.0, n=4097, seed=4, walk=False)
@example(T_s=5e-4, K_a=1.0, T_frac=0.0, n=20000, seed=5, walk=True)
def test_reference_run_matches_a_loop_of_step(params, T_s, K_a, T_frac, n, seed, walk):
    # C(s) is stable iff K_a T < 8/9 (Routh on s (T s + 1)^3 + K_a); T spans
    # 5 ms up to min(40 ms, 0.8 / K_a)
    T = 5e-3 + T_frac * (min(0.04, 0.8 / K_a) - 5e-3)
    ref = _reference(params, L1Config(T_s=T_s, T=T, K_a=K_a))
    rng = np.random.default_rng(seed)
    scale = np.array([20.0, 5.0, 50.0, 5.0, 2.0, 50.0, 5.0, 50.0, 5.0])
    inputs = rng.standard_normal((n, 9)) * scale
    if walk:  # slowly varying inputs, like a closed-loop log
        inputs = np.cumsum(inputs, axis=0) / np.sqrt(n)
    x0 = rng.standard_normal(4)

    got = ref.run(x0, inputs)
    s, want = _start(ref, x0), np.empty((n, 4))
    for k, u in enumerate(inputs):
        s = ref.step(s, u)
        want[k] = s[:4]
    # the bound: 1e-12 of the peak |x_r|; the doubling scan and the per-sample
    # product round differently, by about 1e-14 of the peak
    assert got.shape == (n, 4)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_reference_run_of_no_samples(params):
    assert _reference(params).run(np.zeros(4), np.zeros((0, 9))).shape == (0, 4)
