"""Acceptance gate: one test per design claim, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion with the measured values.
"""

import math
import time

import numpy as np
import pytest

from sea_l1ac import (
    L1Config,
    ScenarioConfig,
    StabilityBudget,
    SuiteConfig,
    analytic_nominal_response,
    check_stability_condition,
    compute_metrics,
    export_trace,
    import_trace,
    root_locus,
    run_scenario,
    run_suite,
    summary_table,
)

QD = math.pi / 2
MASSES = (0.75, 1.5, 2.25)
STIFFNESSES = (100.0, 500.0, 1000.0)
WALL = 0.7 * QD
CLAMP_NM = 40.0


def _report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _load_cfg(controller: str, mass: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"load_{controller}_{mass}",
        controller=controller,
        mass=mass,
        duration=3.0,
        q_d_amplitude=QD,
    )


def _collision_cfg(controller: str, k_e: float) -> ScenarioConfig:
    return ScenarioConfig(
        name=f"coll_{controller}_{k_e}",
        controller=controller,
        mass=1.5,
        duration=3.0,
        q_d_amplitude=QD,
        contact_stiffness=k_e,
        contact_position=WALL,
        torque_limit=CLAMP_NM,
    )


@pytest.fixture(scope="module")
def load_results():
    out = {}
    for ctl in ("rrc", "l1ac"):
        for mass in MASSES:
            cfg = _load_cfg(ctl, mass)
            trace = run_scenario(cfg)
            out[(ctl, mass)] = (trace, compute_metrics(trace))
    return out


@pytest.fixture(scope="module")
def collision_results():
    out = {}
    for ctl in ("rrc", "l1ac"):
        for k_e in STIFFNESSES:
            cfg = _collision_cfg(ctl, k_e)
            trace = run_scenario(cfg)
            out[(ctl, k_e)] = (trace, compute_metrics(trace))
    return out


def test_criterion_1_nominal_fidelity(params):
    cfg = ScenarioConfig(
        name="fidelity", controller="rrc", mass=1.5, duration=2.0,
        gravity_on=False, ideal_dob=True, T_s=1e-4, q_d_amplitude=QD,
    )
    t0 = time.perf_counter()
    trace = run_scenario(cfg)
    elapsed = time.perf_counter() - t0
    t = trace["t_s"]
    ref = analytic_nominal_response(QD, params.omega, t)
    window = t <= 1.0
    max_err = float(np.max(np.abs(trace["q_rad"] - ref)[window]))
    overshoot = compute_metrics(trace).overshoot_pct
    ok = max_err < 1e-3 and overshoot < 0.5 and elapsed < 1.0
    _report(1, ok, f"pointwise err {max_err:.2e} rad (<1e-3), overshoot "
                   f"{overshoot:.3f}% (<0.5), runtime {elapsed:.2f}s (<1)")


def test_criterion_2_baseline_static_error_law(params, load_results):
    details, ok = [], True
    for mass in (0.75, 2.25):
        _, rep = load_results[("rrc", mass)]
        delta_g = (mass - params.m_0) / params.m_0 * params.G_0
        expected = 5.0 * delta_g / params.K_f  # droop opposes the mismatch
        ratio = rep.static_error_rad / (-expected)
        ok &= 0.9 < ratio < 1.1
        details.append(f"m={mass}: err={rep.static_error_rad:+.4f} rad "
                       f"vs -5dG/Kf={-expected:+.4f} (ratio {ratio:.3f})")
    _report(2, ok, "; ".join(details))


def test_criterion_3_adaptive_static_error_eliminated(load_results):
    errs = {m: load_results[("l1ac", m)][1].static_error_rad for m in MASSES}
    ok = all(abs(e) < 0.01 for e in errs.values())
    _report(3, ok, ", ".join(f"m={m}: {e:+.2e} rad" for m, e in errs.items()) +
            " (all <0.01)")


def test_criterion_4_adaptive_transient_shape(load_results):
    _, rep_l1 = load_results[("l1ac", 1.5)]
    _, rep_rrc = load_results[("rrc", 1.5)]
    delay = rep_l1.rise_delay_s - rep_rrc.rise_delay_s
    ok = (
        rep_l1.overshoot_pct <= 2.0
        and 0.05 <= delay <= 0.2
        and rep_l1.peak_current_permil <= rep_rrc.peak_current_permil + 1e-9
    )
    _report(4, ok, f"overshoot {rep_l1.overshoot_pct:.2f}% (<=2), rise delay "
                   f"{delay:.3f}s (in [0.05,0.2]), peak current "
                   f"{rep_l1.peak_current_permil:.0f} <= {rep_rrc.peak_current_permil:.0f} permil")


def test_criterion_5_root_locus(params):
    grid = np.concatenate([[0.0], np.logspace(-2, 4, 25)])
    res = root_locus(params.omega, grid)
    dev0 = float(np.max(np.abs(res.roots[0] + params.omega)))
    conj = bool(res.has_conjugate_pair[1:].all())
    stable = bool((res.roots.real < 0.0).all())
    ok = dev0 < 1e-4 * params.omega and conj and stable
    _report(5, ok, f"quadruple-pole dev {dev0:.2e} (<{1e-4 * params.omega:.2e}), "
                   f"conjugate pairs for all lambda>0: {conj}, stable to 1e4: {stable}")


def test_criterion_6_filter_design_condition(params):
    budget = StabilityBudget.from_envelope(params, MASSES)
    details, ok = [], True
    for t_filt in (0.005, 0.01, 0.02):
        rep = check_stability_condition(
            params, L1Config(T_s=1e-3, T=t_filt, K_a=10.0), budget, qd_peak=QD)
        ok &= rep.satisfied and rep.margin > 0.0
        details.append(f"T={t_filt}: margin {rep.margin:.3g}")
    _report(6, ok, "; ".join(details) + " (all satisfied, positive)")


def test_criterion_7_adaptation_exactness(params, model):
    from sea_l1ac import L1Controller

    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(25):
        sigma = rng.uniform(-40.0, 40.0, size=4)
        # independent oracle: fine fixed-step integration of the held model
        x = np.zeros(4)
        h = 1e-3 / 256

        def f(x):
            return model.A_m @ x + model.B_m * sigma[0] + model.B_um @ sigma[1:]

        for _ in range(256):
            k1, k2 = f(x), None
            k2 = f(x + h / 2 * k1)
            k3 = f(x + h / 2 * k2)
            k4 = f(x + h * k3)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ctl = L1Controller(params, L1Config(), gravity_comp=False)
        ctl.reset(np.zeros(4))
        ctl.predictor_step(0.0)
        s1, s2 = ctl.adaptation_update(ctl.x_hat - x)
        rel = np.max(np.abs(np.array([s1, *s2]) - sigma)) / max(1.0, np.max(np.abs(sigma)))
        worst = max(worst, float(rel))
    _report(7, worst < 1e-6, f"worst relative recovery error {worst:.2e} (<1e-6)")


def test_criterion_8_sample_period_trends():
    xtilde, ref_err = {}, {}
    for t_s, sub in ((4e-3, 4), (2e-3, 2), (1e-3, 1)):
        cfg = ScenarioConfig(
            name=f"sweep_{t_s}", controller="l1ac", mass=2.25, duration=2.5,
            q_d_amplitude=QD, T_s=t_s, substeps=sub, track_reference=True,
        )
        trace = run_scenario(cfg)
        xtilde[t_s] = trace.aux["xtilde_max"]
        ref_err[t_s] = trace.aux["ref_err_max"]
    ok = (
        xtilde[4e-3] > xtilde[2e-3] > xtilde[1e-3]
        and ref_err[4e-3] > ref_err[2e-3] > ref_err[1e-3]
    )
    _report(8, ok, "max|x~|: " + " > ".join(f"{xtilde[t]:.3e}" for t in (4e-3, 2e-3, 1e-3))
            + "; max|x_r-x|: " + " > ".join(f"{ref_err[t]:.3e}" for t in (4e-3, 2e-3, 1e-3)))


def test_criterion_9_disturbance_estimate_consistency(params, load_results):
    details, ok = [], True
    for mass in (0.75, 2.25):
        trace, _ = load_results[("l1ac", mass)]
        tail = max(1, len(trace) // 10)
        measured = float(np.mean(trace["sigma22_hat"][-tail:]))
        delta_g = (mass - params.m_0) / params.m_0 * params.G_0
        expected = -delta_g / params.J_a
        rel = abs(measured - expected) / abs(expected)
        ok &= rel < 0.05
        details.append(f"m={mass}: sigma22 {measured:+.3f} vs -dG/Ja {expected:+.3f} "
                       f"({100 * rel:.2f}%)")
    _report(9, ok, "; ".join(details) + " (within 5%)")


def test_criterion_10_collision_ordering(collision_results):
    details, ok = [], True
    for k_e in STIFFNESSES:
        _, l1 = collision_results[("l1ac", k_e)]
        _, rrc = collision_results[("rrc", k_e)]
        cur_ok = l1.peak_current_permil <= rrc.peak_current_permil + 1e-9
        spd_ok = l1.peak_speed_after_contact <= rrc.peak_speed_after_contact + 1e-9
        ok &= cur_ok and spd_ok
        details.append(
            f"Ke={k_e:.0f}: current {l1.peak_current_permil:.0f}<={rrc.peak_current_permil:.0f}, "
            f"speed {l1.peak_speed_after_contact:.2f}<={rrc.peak_speed_after_contact:.2f}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_determinism_and_round_trip(tmp_path):
    cfg = _load_cfg("l1ac", 2.25).with_overrides(duration=0.8)
    b1 = export_trace(run_scenario(cfg), tmp_path / "a.csv").read_bytes()
    b2 = export_trace(run_scenario(cfg), tmp_path / "b.csv").read_bytes()
    suite = SuiteConfig(name="acc", scenarios=(
        _load_cfg("rrc", 0.75).with_overrides(duration=0.5),
        _load_cfg("l1ac", 0.75).with_overrides(duration=0.5),
    ))
    rows1 = summary_table(suite, run_suite(suite))
    rows2 = summary_table(suite, run_suite(suite))
    back = import_trace(tmp_path / "a.csv")
    b3 = export_trace(back, tmp_path / "c.csv").read_bytes()
    ok = b1 == b2 and rows1 == rows2 and b1 == b3
    _report(11, ok, f"repeat-run bytes equal: {b1 == b2}, suite tables equal: "
                    f"{rows1 == rows2}, import/export round trip exact: {b1 == b3}")
