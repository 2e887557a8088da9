import math
import re
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sea_l1ac import (
    ConditionReport,
    L1Config,
    L1Controller,
    ReferenceSystem,
    StabilityBudget,
    UnstableSystemError,
    analytic_nominal_response,
    check_stability_condition,
    l1_norm,
    matrix_exponential,
    polynomial_roots,
    root_locus,
)
from sea_l1ac import analysis, build_nominal_model
from sea_l1ac.analysis import (
    filtered_resolvent,
    hold_response,
    observable_realization,
    reference_loop_pieces,
    shaping_filter_polynomials,
    shaping_filter_stable,
)
from sea_l1ac.config_io import condition_job_from_ini

_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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


def _scipy_expm(A, t=1.0):
    """The oracle: scipy's exponential, which runs the same algorithm."""
    import scipy.linalg

    return scipy.linalg.expm(np.asarray(A, dtype=float) * t)


def _design_pieces():
    """The nine reference-loop pieces that configs/analysis.ini certifies."""
    job = condition_job_from_ini(_CONFIGS / "analysis.ini")
    model = build_nominal_model(job["params"])
    return [piece for cfg in job["configs"] for piece in reference_loop_pieces(model, cfg)]


def test_expm_matches_scipy_on_the_design_realizations():
    # order-8 and order-16 canonical forms at l1_norm's step, 1-norms up to
    # about 4e3: choosing the degree and scaling from ||A||_1 alone (Higham
    # 2005) over-scales them, and was off by 1.3e-7 of the largest entry here
    pieces = _design_pieces()
    assert len(pieces) == 9
    for A, _, _ in pieces:
        dt = -1.0 / float(np.min(np.linalg.eigvals(A).real)) / 100.0
        ref = _scipy_expm(A, dt)
        assert np.max(np.abs(matrix_exponential(A, dt) - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("T_s", [1e-4, 1e-3, 4e-3, 1e-2])
def test_expm_matches_scipy_on_the_hold_matrix(model, T_s):
    ref = _scipy_expm(model.A_m, T_s)
    got = matrix_exponential(model.A_m, T_s)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16), st.floats(-3.0, 4.0), st.integers(0, 2**32 - 1))
def test_expm_matches_scipy_on_random_matrices(n, log_norm, seed):
    # a Gaussian matrix of 1-norm 10^log_norm, shifted to spectral abscissa 0
    # so that e^A neither overflows nor vanishes
    M = np.random.default_rng(seed).standard_normal((n, n))
    A = M * (10.0**log_norm / np.max(np.sum(np.abs(M), axis=0)))
    A -= np.max(np.linalg.eigvals(A).real) * np.eye(n)
    ref = _scipy_expm(A)
    # both lose digits in the squarings, about u ||A|| of the largest entry;
    # on 2 x 2 rotations of ||A|| ~ 1e4 scipy's own error against a 60-digit
    # reference reaches 5e-11, where this exponential stays within 5e-14
    tol = 1e-13 * max(1.0, np.max(np.sum(np.abs(A), axis=0)))
    assert np.max(np.abs(matrix_exponential(A) - ref)) <= tol * np.max(np.abs(ref))


def test_condition_norms_match_the_scipy_propagator():
    pieces = _design_pieces()
    got = [l1_norm(*g) for g in pieces]
    with mock.patch.object(analysis, "matrix_exponential", _scipy_expm):
        ref = [l1_norm(*g) for g in pieces]
    assert got == pytest.approx(ref, rel=1e-11, abs=0.0)


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

def test_root_locus_is_exactly_minus_omega_at_zero_stiffness(params):
    # the 4-fold nominal pole: solving about -omega gives it to the last bit,
    # where companion eigenvalues of the s-polynomial scatter by eps^(1/4)
    res = root_locus(params.omega, [0.0])
    assert np.array_equal(res.roots[0], np.full(4, -params.omega))


def test_simple_imaginary_pair():
    roots = np.sort_complex(polynomial_roots([1.0, 0.0, 1.0]))
    assert np.allclose(roots, [-1j, 1j], atol=1e-12)


def test_roots_reject_degenerate_input():
    with pytest.raises(ValueError):
        polynomial_roots([5.0])
    with pytest.raises(ValueError):
        polynomial_roots([0.0, 0.0])


# magnitudes in [1e-6, 1e6], so no ratio of coefficients overflows
_nonzero = st.builds(math.copysign, st.floats(1e-6, 1e6), st.sampled_from([1.0, -1.0]))


@settings(max_examples=200, deadline=None)
@given(_nonzero, st.lists(st.floats(-1e6, 1e6), max_size=7), _nonzero)
def test_roots_of_one_polynomial_match_np_roots_bit_for_bit(lead, middle, trail):
    # with nonzero leading and trailing coefficients np.roots neither trims
    # nor appends, and builds the same companion matrix
    coeffs = np.array([lead, *middle, trail])
    got = polynomial_roots(coeffs)
    ref = np.roots(coeffs)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="nonzero leading coefficient"):
        polynomial_roots(np.concatenate([[0.0], coeffs]))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
def test_roots_reexpansion_residual(root_list):
    coeffs = np.poly(root_list)
    roots = polynomial_roots(coeffs)
    rebuilt = np.real_if_close(np.poly(roots)).real
    assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * max(1.0, np.max(np.abs(coeffs)))


def contact_polynomial(omega, lam):
    """The oracle: the contact characteristic polynomial in s,
    Q(s) = (s + w)^4 + lam ((s + 2 w)^2 + w^2), expanded."""
    w = omega
    return np.array([1.0, 4.0 * w, 6.0 * w * w + lam, 4.0 * w ** 3 + 4.0 * w * lam,
                     w ** 4 + 5.0 * lam * w * w])


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


@pytest.mark.parametrize("lam, why", [
    (math.nan, "must be finite and nonnegative"),
    (math.inf, "must be finite and nonnegative"),
    # finite, but 2 w^2 lam is past the largest double
    (1e308, "overflows the contact polynomial"),
])
def test_root_locus_rejects_a_stiffness_it_cannot_solve(params, lam, why):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"lambda gridpoint {lam!r} {why}")):
            root_locus(params.omega, [0.0, 10.0, lam, 20.0])


def _roots_loop(omega, lam):
    """Sorted roots and flags of the contact polynomial, one np.roots per lambda."""
    roots = np.empty((len(lam), 4), dtype=complex)
    flags = np.zeros(len(lam), dtype=bool)
    for i, lv in enumerate(lam):
        r = np.roots([1.0, 0.0, lv, 2.0 * omega * lv, 2.0 * omega * omega * lv]) - omega
        roots[i] = r[np.lexsort((-r.imag, r.real))]
        flags[i] = bool(np.any(np.abs(r.imag) > 1e-8 * max(1.0, float(np.max(np.abs(r))))))
    return roots, flags


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1e300), min_size=0, max_size=12), st.integers(0, 12),
       st.floats(0.1, 100.0))
def test_root_locus_matches_a_roots_loop_bit_for_bit(lams, zero_at, omega):
    lam = np.array(lams[:zero_at] + [0.0] + lams[zero_at:])
    res = root_locus(omega, lam)
    roots, flags = _roots_loop(omega, lam)
    assert res.roots.dtype == roots.dtype and res.roots.tobytes() == roots.tobytes()
    assert np.array_equal(res.has_conjugate_pair, flags)


def test_polynomial_roots_of_a_stack_match_each_row(params):
    stack = np.array([contact_polynomial(params.omega, lv) for lv in (0.5, 50.0, 1e4)])
    got = polynomial_roots(stack)
    for row, coeffs in zip(got, stack):
        assert row.tobytes() == np.roots(coeffs).tobytes()
    with pytest.raises(ValueError):
        polynomial_roots(np.array([[0.0, 1.0, 2.0]]))
    with pytest.raises(ValueError):
        polynomial_roots(np.ones((2, 1)))


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
    assert l1_norm(np.array([[-a]]), np.array([[1.0]]), np.array([[1.0]])) == \
        pytest.approx(1.0 / a, rel=1e-4)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.floats(-50.0, -1.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0),
              st.sampled_from([1.0, -1.0])),
    min_size=1, max_size=4,
))
def test_l1_norm_matches_the_dc_gain_of_a_positive_impulse_response(modes):
    # diagonal A with c_i b_i >= 0: the impulse response sum c_i b_i e^{a_i t}
    # never goes negative, so its integral, the DC gain sum c_i b_i / |a_i|,
    # is the L1 norm; this also bounds the truncation of the quadrature
    a = np.array([m[0] for m in modes])
    b = np.array([[m[1] * m[3]] for m in modes])
    c = np.array([[m[2] * m[3] for m in modes]])
    exact = float(np.sum(c[0] * b[:, 0] / np.abs(a)))
    assert l1_norm(np.diag(a), b, c) == pytest.approx(exact, rel=1e-4)


def test_l1_norm_series_connection_matches_dense_quadrature():
    a, b = 2.0, 7.0
    A = np.array([[-a, 0.0], [b, -b]])
    B = np.array([[a], [0.0]])
    C = np.array([[0.0, 1.0]])
    value = l1_norm(A, B, C)
    # oracle: dense trapezoid over the closed-form impulse response
    t = np.arange(0.0, 12.0, 2e-6)
    g = a * b * (np.exp(-a * t) - np.exp(-b * t)) / (b - a)
    ref = np.trapezoid(np.abs(g), t)
    assert value == pytest.approx(ref, rel=1e-4)
    # series norm bounded by the product of the factors' norms
    assert value <= (1.0 / 1.0) * (1.0 / 1.0) + 1e-9


def test_l1_norm_zero_numerator_path():
    assert l1_norm(np.array([[-1.0]]), np.array([[1.0]]), np.array([[0.0]])) == 0.0


def test_l1_norm_parallel_subadditivity():
    one = np.array([[1.0]])
    n1 = l1_norm(np.array([[-1.0]]), one, one)
    n2 = l1_norm(np.array([[-4.0]]), one, np.array([[-0.7]]))
    combined = l1_norm(np.diag([-1.0, -4.0]), np.array([[1.0], [1.0]]), np.array([[1.0, -0.7]]))
    assert combined <= n1 + n2 + 1e-9


def test_l1_norm_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        l1_norm(np.array([[0.1]]), np.array([[1.0]]), np.array([[1.0]]))


def test_l1_norm_refuses_a_march_too_stiff_to_finish():
    # 2000 samples per unit of stiffness ratio: 2e12 samples, hours of march
    with pytest.raises(ValueError, match=r"slowest time constant 1e\+06 s, fastest 0\.001 s, "
                                         r"2e\+12 samples") as exc:
        l1_norm(np.diag([-1e-6, -1e3]), np.ones((2, 1)), np.ones((1, 2)))
    assert not isinstance(exc.value, UnstableSystemError)


def _sequential_l1_norm(A, B, C):
    """The impulse-response quadrature marched one step per iteration."""
    eig = np.linalg.eigvals(A)
    tau_slow = -1.0 / float(np.max(eig.real))
    dt = -1.0 / float(np.min(eig.real)) / 100.0
    steps = int(math.ceil(20.0 * tau_slow / dt))
    Ed = matrix_exponential(A, dt)
    X = B.copy()
    acc = np.zeros((C.shape[0], B.shape[1]))
    g_prev = np.abs(C @ X)
    for _ in range(steps):
        X = Ed @ X
        g = np.abs(C @ X)
        acc += (0.5 * dt) * (g_prev + g)
        g_prev = g
    return steps, float(np.max(np.sum(acc, axis=1)))


def _piece(model, piece, tuning=(0.01, 10.0)):
    """The first-order lag, or one reference-loop piece at a (T, K_a) tuning."""
    if piece == "lag":
        return np.array([[-3.0]]), np.array([[1.0]]), np.array([[1.0]])
    g1, g2, gd = reference_loop_pieces(model, L1Config(T=tuning[0], K_a=tuning[1]))
    return {"G1": g1, "G2": g2, "Gd": gd}[piece]


def _block_steps(system, steps):
    """Steps per block of l1_norm's march: doubling from one while the march
    product stays within the block budget and the steps are not covered."""
    A, B, C = system
    k = 1
    while k < steps and 2 * k * C.shape[0] * A.shape[0] * B.shape[1] <= analysis._BLOCK_MADDS:
        k *= 2
    return k


@pytest.mark.parametrize("piece, tuning", [
    ("lag", None), ("G1", (0.01, 10.0)), ("G2", (0.01, 10.0)), ("Gd", (0.01, 10.0)),
    ("G1", (0.005, 10.0)),
], ids=["lag", "G1", "G2", "Gd", "G1-T5ms"])
def test_l1_norm_block_march_matches_sequential_march(model, piece, tuning):
    system = _piece(model, piece, tuning)
    steps, value = _sequential_l1_norm(*system)
    # the cases cover one partial block and several blocks plus a remainder
    block = _block_steps(system, steps)
    assert steps < block if piece == "lag" else steps > block and steps % block
    if tuning == (0.005, 10.0):
        assert steps == 39659
    assert l1_norm(*system) == pytest.approx(value, rel=1e-12)
    if piece == "G2":
        assert system[1].shape[1] > 1  # the max row sum over several inputs


@pytest.mark.parametrize("piece", ["lag", "G1", "G2", "Gd"])
def test_l1_norm_does_not_depend_on_the_block_length(model, piece):
    system = _piece(model, piece)
    steps = _sequential_l1_norm(*system)[0]
    default = l1_norm(*system)
    # one step per block, then an odd budget whose blocks leave a remainder
    for budget in (1, 999):
        with mock.patch.object(analysis, "_BLOCK_MADDS", budget):
            block = _block_steps(system, steps)
            assert block == 1 if budget == 1 else 1 < block < steps and steps % block
            assert l1_norm(*system) == pytest.approx(default, rel=1e-12)


@st.composite
def _stable_systems(draw):
    """(A, B, C) with p, m in 1..4 and n <= 8: real modes and damped
    rotations with decay rates in [1, 3], mixed by a random orthogonal basis."""
    n, p, m = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = np.diag(-rng.uniform(1.0, 3.0, n))
    for k in range(0, n - 1, 2):
        if draw(st.booleans()):
            w = rng.uniform(0.0, 20.0)
            T[k, k + 1], T[k + 1, k] = w, -w
            T[k + 1, k + 1] = T[k, k]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return Q @ T @ Q.T, rng.standard_normal((n, m)), rng.standard_normal((p, n))


@settings(max_examples=30, deadline=None)
@given(_stable_systems(), st.integers(1, 9))
def test_l1_norm_block_march_matches_sequential_march_on_random_systems(system, log_block):
    A, B, C = system
    steps, value = _sequential_l1_norm(A, B, C)
    # the largest budget that still stops the doubling at 2^log_block steps
    budget = 2 * 2**log_block * C.shape[0] * A.shape[0] * B.shape[1] - 1
    with mock.patch.object(analysis, "_BLOCK_MADDS", budget):
        block = _block_steps(system, steps)
        assume(block < steps and steps % block)  # several blocks, the last partial
        assert l1_norm(A, B, C) == pytest.approx(value, rel=1e-12)


def test_reference_loop_pieces_are_strictly_stable(model):
    for piece in reference_loop_pieces(model, L1Config()):
        assert np.max(np.linalg.eigvals(piece[0]).real) < 0.0


def test_disturbance_paths_vanish_with_perfect_cancellation(model):
    # the limit of an infinitely fast filter: 1 - C = 0, so G_1 = G_2 = 0
    _, den = shaping_filter_polynomials(0.01, 10.0)
    no_filter = observable_realization([np.array([0.0])], den)
    g1_limit = filtered_resolvent(model, model.B_m, no_filter, 0)
    assert l1_norm(*g1_limit) == 0.0


def _separately_realized_piece(model, input_columns, filter_num, filter_den):
    """The oracle: one reference-loop piece over its own realization of the
    filter, one replica per input column and then the resolvent."""
    cols = np.asarray(input_columns, dtype=float).reshape(len(model.A_m), -1)
    Af, Bf, Cf, Df = observable_realization([filter_num], filter_den)
    nf, (n, m) = len(Af), cols.shape
    A = np.zeros((m * nf + n, m * nf + n))
    B = np.zeros((m * nf + n, m))
    for j in range(m):
        s = slice(j * nf, (j + 1) * nf)
        A[s, s] = Af
        B[s, j] = Bf[:, 0]
        A[m * nf:, s] += np.outer(cols[:, j], Cf[0])
    A[m * nf:, m * nf:] = model.A_m
    B[m * nf:, :] = cols * Df[0, 0]
    C = np.zeros((n, m * nf + n))
    C[:, m * nf:] = np.eye(n)
    return A, B, C


@pytest.mark.parametrize("T, K_a", [(0.002, 1.0), (0.005, 10.0), (0.01, 10.0), (0.02, 40.0)])
def test_reference_loop_pieces_match_separately_realized_pieces(model, T, K_a):
    num_c, den = shaping_filter_polynomials(T, K_a)
    num_1mc = np.polysub(den, num_c)
    expected = [_separately_realized_piece(model, model.B_m, num_1mc, den),
                _separately_realized_piece(model, model.B_um, num_1mc, den),
                _separately_realized_piece(model, model.B_m, num_c, den)]
    got = reference_loop_pieces(model, L1Config(T=T, K_a=K_a))
    for piece, ref in zip(got, expected, strict=True):
        for x, y in zip(piece, ref, strict=True):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# design condition
# ---------------------------------------------------------------------------

def test_budget_derived_quantities():
    with pytest.raises(ValueError):
        StabilityBudget(B_2=-1.0)


@pytest.mark.parametrize("gravity_comp", ["no", 1, None])
def test_envelope_refuses_a_gravity_flag_that_is_not_a_bool(params, gravity_comp):
    # a truthy "no" used to count as compensated gravity
    with pytest.raises(ValueError, match="gravity_comp must be a bool"):
        StabilityBudget.from_envelope(params, [0.75, 1.5], gravity_comp=gravity_comp)


@pytest.mark.parametrize("qd_peak", [math.nan, math.inf, -math.inf])
def test_condition_refuses_a_command_peak_that_is_not_finite(params, qd_peak):
    # nan used to pass as satisfied with rho_best = nan
    budget = StabilityBudget(L_2=1.0, B_2=1.0)
    with pytest.raises(ValueError, match="qd_peak must be finite"):
        check_stability_condition(params, L1Config(), budget, qd_peak=qd_peak)


def test_model_and_condition_take_the_plant_constants_alone(params, gains, model):
    with pytest.raises(TypeError):
        build_nominal_model(params, gains)
    with pytest.raises(TypeError):
        check_stability_condition(model, L1Config(), StabilityBudget())


@pytest.mark.parametrize("plant", [{}, {"J_a": 0.5, "K_f": 100.0}], ids=["benchmark", "override"])
def test_condition_certifies_the_model_the_controller_predicts_against(params, plant):
    # oracle: the report's closed form over the norms of the controller's own
    # model, so the certificate and the controller read one model
    plant_params, cfg = replace(params, **plant), L1Config()
    budget, qd_peak = StabilityBudget(L_2=0.05, B_2=1.5), 1.2
    model = L1Controller(plant_params, cfg).model
    n1, n2, nd = (l1_norm(*g) for g in reference_loop_pieces(model, cfg))
    rhs = 1.0 / budget.L_2
    expected = ConditionReport(
        satisfied=True, margin=rhs - n2, lhs=n2, rhs_best=rhs,
        rho_best=(nd * abs(model.K_g) * qd_peak + n2 * budget.B_2) / (1.0 - n2 * budget.L_2),
        norm_g1=n1, norm_g2=n2, norm_gd=nd)
    assert n2 * budget.L_2 < 1.0
    assert check_stability_condition(plant_params, cfg, budget, qd_peak=qd_peak) == expected


def test_condition_trivially_satisfied_without_state_dependence(params):
    budget = StabilityBudget(L_2=0.0, B_2=12.8)
    rep = check_stability_condition(params, L1Config(), budget)
    assert rep.satisfied and rep.margin > 0.0


def test_condition_default_envelope_satisfied(params):
    budget = StabilityBudget.from_envelope(params, [0.75, 1.5, 2.25])
    rep = check_stability_condition(params, L1Config(), budget)
    assert rep.satisfied
    assert rep.margin > 0.0
    assert 0.5 < rep.norm_g2 < 20.0


def test_envelope_without_gravity_compensation_charges_the_full_load(params):
    masses = [0.75, 1.5, 2.25]
    full = StabilityBudget.from_envelope(params, masses, gravity_comp=False)
    assert full.B_2 == (max(masses) / params.m_0) * params.G_0 / params.J_a
    compensated = StabilityBudget.from_envelope(params, masses)
    assert full.B_2 > compensated.B_2
    rho = [check_stability_condition(params, L1Config(), b).rho_best for b in (full, compensated)]
    assert rho[0] >= rho[1]


def test_condition_violated_for_sluggish_filter(params):
    budget = StabilityBudget.from_envelope(params, [0.75, 1.5, 2.25])
    rep = check_stability_condition(params, L1Config(T=1.0, K_a=10.0), budget)
    assert not rep.satisfied
    assert rep.reason == "closed filter C(s) unstable"


@settings(max_examples=300, deadline=None)
@given(T=st.floats(1e-4, 10.0), ratio=st.floats(1e-3, 10.0))
def test_closed_form_filter_stability_matches_the_roots(T, ratio):
    # ratio is K_a T over the Routh boundary 8/9; the companion roots decide
    # the sign of a root's real part only away from the imaginary axis
    assume(abs(ratio - 1.0) > 1e-9)
    K_a = ratio * (8 / 9) / T
    _, den = shaping_filter_polynomials(T, K_a)
    assert shaping_filter_stable(T, K_a) == (np.max(polynomial_roots(den).real) < 0.0)


_EDGE = 8 / 9


@pytest.mark.parametrize("T", [2.0**-5, 2.0**-2])  # so K_a T is exactly the product below
@pytest.mark.parametrize("product", [0.5 * _EDGE, 0.9 * _EDGE, math.nextafter(_EDGE, 0.0), _EDGE,
                                     math.nextafter(_EDGE, 1.0), 1.1 * _EDGE, 2.0 * _EDGE])
def test_controller_and_condition_share_the_filter_stability_boundary(params, T, product):
    cfg = L1Config(T=T, K_a=product / T)
    assert cfg.K_a * T == product
    try:
        rep = check_stability_condition(params, cfg, StabilityBudget())
    except ValueError as exc:
        # one ulp inside the boundary the filter is stable but so lightly
        # damped that the norms refuse to march it
        assert "too stiff" in str(exc) and product < _EDGE
        reported_unstable = False
    else:
        reported_unstable = rep.reason == "closed filter C(s) unstable"
    assert reported_unstable == (product >= _EDGE)
    if reported_unstable:
        with pytest.raises(ValueError, match="unstable"):
            L1Controller(params, cfg)
    else:
        L1Controller(params, cfg)


_TUNINGS = [(0.01, 10.0), (0.005, 40.0), (0.02, 10.0)]
_L1_NORMS = {}  # pure values of l1_norm, keyed by the system's bytes


def _check_once(params, cfg, budget, qd_peak=math.pi / 2):
    """check_stability_condition with the three L1 norms of each tuning
    computed once: the property below calls it hundreds of times."""
    def cached_l1_norm(A, B, C):
        key = (A.tobytes(), A.shape, B.tobytes(), B.shape, C.tobytes())
        if key not in _L1_NORMS:
            _L1_NORMS[key] = l1_norm(A, B, C)
        return _L1_NORMS[key]

    with mock.patch.object(analysis, "l1_norm", cached_l1_norm):
        return check_stability_condition(params, cfg, budget, qd_peak=qd_peak)


@settings(max_examples=150, deadline=None)
@given(
    tuning=st.sampled_from(_TUNINGS),
    load=st.one_of(st.just(0.0), st.floats(1e-3, 0.999), st.floats(1.001, 3.0)),
    B_2=st.floats(0.0, 10.0),
    qd=st.floats(0.01, 3.0),
)
def test_rho_best_is_the_least_bound_the_fixed_candidate_certifies(params, model, tuning, load,
                                                                   B_2, qd):
    # load = lhs L_2: the condition holds exactly when it is below 1
    cfg = L1Config(T=tuning[0], K_a=tuning[1])
    norms = _check_once(params, cfg, StabilityBudget(), qd)
    L_2 = load / norms.norm_g2
    rep = _check_once(params, cfg, StabilityBudget(L_2=L_2, B_2=B_2), qd)
    assert rep.reason == ""
    assert rep.lhs == rep.norm_g2
    assert rep.satisfied == (load < 1.0)
    assert rep.rhs_best == (1.0 / L_2 if L_2 > 0.0 else math.inf)
    assert rep.margin == rep.rhs_best - rep.lhs
    command = rep.norm_gd * abs(model.K_g) * qd

    def certified(rho):
        # the condition at the fixed candidate rho; a zero denominator holds
        # when the numerator is positive
        num, denom = rho - command, L_2 * rho + B_2
        return num / denom > rep.lhs if denom > 0.0 else num > 0.0

    if rep.satisfied:
        assert 0.0 < rep.rho_best < math.inf
        assert certified(rep.rho_best * (1.0 + 1e-9))
        assert not certified(rep.rho_best * (1.0 - 1e-9))
    else:
        assert rep.rho_best == math.inf
        assert not certified(1e12)


def test_condition_charges_the_command_against_the_bound(params):
    # the command's share ||G_d|| |K_g| |q_d| is about 11 at the default
    # tuning, so neither candidate leaves room for it
    for b2, rho in [(0.5, 2.0), (0.0, 1.0)]:
        rep = check_stability_condition(params, L1Config(), StabilityBudget(B_2=b2))
        certified = rep.satisfied and rho > rep.rho_best
        assert not certified and rep.rho_best - rho > 0.0


def _reference_peak(ref, b2, n=2000):
    """Peak of ||x_r||_inf under a pi/2 step command and |sigma2| = B_2 on
    every unmatched channel: constant of either sign, or switching every
    150 ms."""
    square = np.where((np.arange(n) // 150) % 2 == 0, 1.0, -1.0)
    peaks = []
    for sign in (np.ones(n), -np.ones(n), square):
        u = np.zeros((n, 9))
        u[:, 1:4] = b2 * sign[:, None]
        u[:, 4] = math.pi / 2
        peaks.append(float(np.max(np.abs(ref.run(np.zeros(4), u)))))
    return max(peaks)


@pytest.mark.parametrize("T, K_a", _TUNINGS)
def test_certified_bound_holds_in_the_reference_system(params, T, K_a):
    # Whenever the check certifies rho_r for |sigma2|_inf <= B_2 and a
    # pi/2 step command, the reference system driven by such disturbances
    # stays within it.
    cfg = L1Config(T=T, K_a=K_a)
    ref = ReferenceSystem(L1Controller(params, cfg))
    certified = 0
    for b2 in (0.0, 0.5, 2.0):
        peak = _reference_peak(ref, b2)
        rep = check_stability_condition(params, cfg, StabilityBudget(B_2=b2))
        for rho in (1.0, 2.0, 5.0, 12.0, 20.0, 50.0):
            if rep.satisfied and rho > rep.rho_best:
                certified += 1
                assert peak <= rho, (b2, rho, peak)
    assert certified > 0


_G2_DEFECT = pytest.mark.xfail(
    strict=True, reason="reference_loop_pieces' G_2 = (sI - A_m)^-1 B_um (1 - C(s)) is the "
    "unmatched path in the output q only, so its norm understates the full state's; at "
    "B_2 = 2 the peak is 25.49 and rho_best 20.44")


@pytest.mark.parametrize("T, K_a", [
    (0.01, 10.0), pytest.param(0.005, 40.0, marks=_G2_DEFECT), (0.02, 10.0)])
def test_least_certified_bound_holds_in_the_reference_system(params, T, K_a):
    cfg = L1Config(T=T, K_a=K_a)
    ref = ReferenceSystem(L1Controller(params, cfg))
    for b2 in (0.0, 0.5, 2.0):
        rep = check_stability_condition(params, cfg, StabilityBudget(B_2=b2))
        assert rep.satisfied
        assert _reference_peak(ref, b2) <= rep.rho_best, (b2, rep.rho_best)


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
