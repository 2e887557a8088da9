import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sea_l1ac import (
    L1Config,
    StabilityBudget,
    StateSpace,
    UnstableSystemError,
    analytic_nominal_response,
    check_stability_condition,
    contact_polynomial,
    l1_norm,
    matrix_exponential,
    polynomial_roots,
    root_locus,
)
from sea_l1ac.analysis import hold_response, reference_loop_pieces, shaping_filter_polynomials


# ---------------------------------------------------------------------------
# matrix exponential and hold integral
# ---------------------------------------------------------------------------

def test_expm_of_zero_is_identity():
    assert np.array_equal(matrix_exponential(np.zeros((3, 3)), 2.0), np.eye(3))


def test_expm_diagonal():
    a = np.diag([-1.0, 0.5, 2.0])
    got = matrix_exponential(a, 0.7)
    assert np.allclose(got, np.diag(np.exp(0.7 * np.diag(a))), rtol=1e-14)


def _taylor_expm(A, t, terms=20):
    out = np.eye(A.shape[0])
    term = np.eye(A.shape[0])
    for k in range(1, terms):
        term = term @ (A * t) / k
        out = out + term
    return out


def test_expm_matches_taylor_series(model):
    got = matrix_exponential(model.A_m, 1e-3)
    ref = _taylor_expm(model.A_m, 1e-3)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_expm_semigroup_property(model):
    t1, t2 = 0.013, 0.031
    lhs = matrix_exponential(model.A_m, t1 + t2)
    rhs = matrix_exponential(model.A_m, t1) @ matrix_exponential(model.A_m, t2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_expm_rejects_nonfinite():
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[math.nan]]), 1.0)


def test_hold_integral_matches_series(model):
    t = 1e-2
    _, phi = hold_response(model.A_m, t)
    series = np.zeros((4, 4))
    term = np.eye(4) * t
    for k in range(1, 25):
        series = series + term
        term = term @ (model.A_m * t) / (k + 1)
    assert np.max(np.abs(phi - series)) < 1e-10


# ---------------------------------------------------------------------------
# polynomial roots and root locus
# ---------------------------------------------------------------------------

def test_quadruple_root_is_recovered(params):
    w = params.omega
    roots = polynomial_roots(np.poly([-w] * 4))
    assert np.max(np.abs(roots + w)) < 1e-4 * w


def test_simple_imaginary_pair():
    roots = np.sort_complex(polynomial_roots([1.0, 0.0, 1.0]))
    assert np.allclose(roots, [-1j, 1j], atol=1e-12)


def test_roots_reject_degenerate_input():
    with pytest.raises(ValueError):
        polynomial_roots([5.0])
    with pytest.raises(ValueError):
        polynomial_roots([0.0, 0.0])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
def test_roots_reexpansion_residual(root_list):
    coeffs = np.poly(root_list)
    roots = polynomial_roots(coeffs)
    rebuilt = np.real_if_close(np.poly(roots)).real
    assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * max(1.0, np.max(np.abs(coeffs)))


def test_contact_polynomial_collapses_at_zero(params):
    w = params.omega
    assert np.allclose(contact_polynomial(w, 0.0), np.poly([-w] * 4), rtol=1e-12)


def test_contact_roots_gain_imaginary_parts(params):
    roots = polynomial_roots(contact_polynomial(params.omega, 1000.0))
    assert np.max(np.abs(roots.imag)) > 1.0


def test_root_locus_grid(params):
    grid = np.concatenate([[0.0], np.logspace(-2, 4, 25)])
    res = root_locus(params.omega, grid)
    # multiplicity-4 collapse at zero stiffness
    assert np.max(np.abs(res.roots[0] + params.omega)) < 1e-6 * params.omega
    assert not res.has_conjugate_pair[0]
    assert res.has_conjugate_pair[1:].all()
    assert (res.roots.real < 0.0).all()


def test_root_locus_roots_reexpand_to_their_polynomial(params):
    res = root_locus(params.omega, [0.0, 0.5, 50.0, 1e4])
    for lam, rr in zip(res.lam, res.roots):
        coeffs = contact_polynomial(params.omega, lam)
        rebuilt = np.real_if_close(np.poly(rr)).real
        assert np.max(np.abs(rebuilt - coeffs)) < 1e-8 * np.max(np.abs(coeffs))


def test_root_locus_rejects_negative_stiffness(params):
    with pytest.raises(ValueError):
        root_locus(params.omega, [-1.0])


def test_root_locus_csv_rows(params):
    res = root_locus(params.omega, [0.0, 10.0])
    rows = list(res.csv_rows())
    assert rows[0][0] == "lambda"
    assert len(rows) == 3 and len(rows[1]) == 10


# ---------------------------------------------------------------------------
# peak-gain norms
# ---------------------------------------------------------------------------

def test_l1_norm_first_order_lag():
    a = 3.0
    res = l1_norm(StateSpace.make([[-a]], [1.0], [1.0]))
    assert res.value == pytest.approx(1.0 / a, rel=1e-4)
    assert res.tail_bound < 1e-6


def test_l1_norm_series_connection_matches_dense_quadrature():
    a, b = 2.0, 7.0
    A = np.array([[-a, 0.0], [b, -b]])
    B = np.array([a, 0.0])
    C = np.array([[0.0, 1.0]])
    res = l1_norm(StateSpace.make(A, B, C))
    # oracle: dense trapezoid over the closed-form impulse response
    t = np.arange(0.0, 12.0, 2e-6)
    g = a * b * (np.exp(-a * t) - np.exp(-b * t)) / (b - a)
    ref = np.trapezoid(np.abs(g), t)
    assert res.value == pytest.approx(ref, rel=1e-4)
    # series norm bounded by the product of the factors' norms
    assert res.value <= (1.0 / 1.0) * (1.0 / 1.0) + 1e-9


def test_l1_norm_zero_numerator_path():
    res = l1_norm(StateSpace.make([[-1.0]], [1.0], [0.0]))
    assert res.value == 0.0


def test_l1_norm_parallel_subadditivity():
    s1 = StateSpace.make([[-1.0]], [1.0], [1.0])
    s2 = StateSpace.make([[-4.0]], [1.0], [-0.7])
    A = np.diag([-1.0, -4.0])
    B = np.array([1.0, 1.0])
    C = np.array([[1.0, -0.7]])
    combined = l1_norm(StateSpace.make(A, B, C)).value
    assert combined <= l1_norm(s1).value + l1_norm(s2).value + 1e-9


def test_l1_norm_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        l1_norm(StateSpace.make([[0.1]], [1.0], [1.0]))


def _sequential_l1_norm(system):
    """The impulse-response quadrature marched one step per iteration."""
    eig = np.linalg.eigvals(system.A)
    tau_slow = -1.0 / float(np.max(eig.real))
    dt = -1.0 / float(np.min(eig.real)) / 100.0
    steps = int(math.ceil(20.0 * tau_slow / dt))
    Ed = matrix_exponential(system.A, dt)
    X = system.B.copy()
    acc = np.zeros((system.C.shape[0], system.B.shape[1]))
    g_prev = np.abs(system.C @ X)
    for _ in range(steps):
        X = Ed @ X
        g = np.abs(system.C @ X)
        acc += (0.5 * dt) * (g_prev + g)
        g_prev = g
    entrywise = acc + np.abs(system.D)
    tail = float(np.max(np.sum(g_prev * tau_slow, axis=1)))
    return steps, float(np.max(np.sum(entrywise, axis=1))), tail, entrywise


@pytest.mark.parametrize("piece", ["lag", "G1", "G2"])
def test_l1_norm_block_march_matches_sequential_march(model, piece):
    if piece == "lag":
        system = StateSpace.make([[-3.0]], [1.0], [1.0], [[0.25]])
    else:
        g1, g2, _ = reference_loop_pieces(model, L1Config())
        system = g1 if piece == "G1" else g2
    steps, value, tail, entrywise = _sequential_l1_norm(system)
    # the cases cover one partial block and several blocks plus a remainder
    block = 2**20 // system.A.nbytes
    assert steps < block if piece == "lag" else steps > block and steps % block
    res = l1_norm(system)
    assert res.value == pytest.approx(value, rel=1e-12)
    assert res.tail_bound == pytest.approx(tail, rel=1e-12)
    np.testing.assert_allclose(res.entrywise, entrywise, rtol=1e-12, atol=0.0)
    if piece == "G2":
        assert res.entrywise.shape[1] > 1


def test_reference_loop_pieces_are_strictly_stable(model):
    for piece in reference_loop_pieces(model, L1Config()):
        assert np.max(np.linalg.eigvals(piece.A).real) < 0.0


def test_disturbance_paths_vanish_with_perfect_cancellation(model):
    # the limit of an infinitely fast filter: 1 - C = 0, so G_1 = G_2 = 0
    from sea_l1ac.analysis import filtered_resolvent

    _, den = shaping_filter_polynomials(0.01, 10.0)
    g1_limit = filtered_resolvent(model, model.B_m, np.array([0.0]), den)
    assert l1_norm(g1_limit).value == 0.0


# ---------------------------------------------------------------------------
# design condition
# ---------------------------------------------------------------------------

def test_budget_derived_quantities():
    b = StabilityBudget(L_1=2.0, B_1=3.0, L_2=4.0, B_2=1.0)
    assert b.l_0 == 0.5
    assert b.B_0 == 6.0
    zero_slope = StabilityBudget(L_1=0.0, B_1=0.0, L_2=0.0, B_2=5.0)
    assert zero_slope.l_0 == 0.0 and zero_slope.B_0 == 5.0
    with pytest.raises(ValueError):
        StabilityBudget(L_1=-1.0)


def test_condition_trivially_satisfied_without_state_dependence(model, params):
    budget = StabilityBudget(L_2=0.0, B_2=12.8)
    rep = check_stability_condition(model, L1Config(), budget)
    assert rep.satisfied and rep.margin > 0.0


def test_condition_default_envelope_satisfied(model, params):
    budget = StabilityBudget.from_envelope(params, [0.75, 1.5, 2.25])
    rep = check_stability_condition(model, L1Config(), budget)
    assert rep.satisfied
    assert rep.margin > 0.0
    assert 0.5 < rep.norm_g2 < 20.0


def test_condition_violated_for_sluggish_filter(model, params):
    budget = StabilityBudget.from_envelope(params, [0.75, 1.5, 2.25])
    rep = check_stability_condition(model, L1Config(T=1.0, K_a=10.0), budget)
    assert not rep.satisfied
    assert rep.reason == "closed filter C(s) unstable"


def test_condition_degenerate_budget_reported(model):
    rep = check_stability_condition(
        model, L1Config(), StabilityBudget(L_1=0.0, B_1=1.0, L_2=0.0, B_2=0.0))
    assert not rep.satisfied and "degenerate" in rep.reason


def test_condition_fixed_candidate(model, params):
    budget = StabilityBudget(L_2=0.0, B_2=12.8, rho_r=10.0)
    rep = check_stability_condition(model, L1Config(), budget)
    assert rep.rho_best == 10.0


# ---------------------------------------------------------------------------
# analytic nominal response
# ---------------------------------------------------------------------------

def test_nominal_response_boundary_values(params):
    w = params.omega
    assert analytic_nominal_response(1.0, w, 0.0) == 0.0
    assert analytic_nominal_response(1.0, w, 100.0) == pytest.approx(1.0, abs=1e-12)


def test_nominal_response_monotone_without_overshoot(params):
    t = np.linspace(0.0, 2.0, 4000)
    q = analytic_nominal_response(1.0, params.omega, t)
    assert np.all(np.diff(q) >= -1e-15)
    assert q.max() <= 1.0 + 1e-12


def test_nominal_response_clamps_negative_time(params):
    assert analytic_nominal_response(1.0, params.omega, np.array([-0.5]))[0] == 0.0
