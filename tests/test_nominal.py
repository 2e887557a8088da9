from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sea_l1ac import (
    PlantParams,
    build_nominal_model,
    build_rrc_gains,
    gravity_gain,
    transfer_from_state_space,
)
from sea_l1ac.nominal import open_loop_matrix


def _dc_gain(tf):
    num, den = tf
    return np.polyval(num, 0.0) / np.polyval(den, 0.0)


def test_natural_frequency_matches_reported_value(params, gains):
    # the reported table value is rounded; the formula is authoritative
    assert abs(params.omega - 19.068) < 0.01
    assert gains.K_v == 4.0 * params.omega


def test_gain_formulas(gains):
    # oracles: direct arithmetic from the parameter set
    assert gains.K_p == pytest.approx(125.478 / 0.345, rel=1e-12)
    assert gains.K_r == pytest.approx(4.0 / 0.345, rel=1e-12)
    assert gains.K_v == pytest.approx(4.0 * np.sqrt(125.478 / 0.345), rel=1e-12)
    assert gains.K_p == pytest.approx(363.70, abs=5e-3)
    assert gains.K_r == pytest.approx(11.594, abs=5e-3)
    assert gains.K_v == pytest.approx(76.27, abs=2e-2)


def test_unit_parameter_gains():
    unit = PlantParams(J_m=1.0, J_a=1.0, K_f=1.0, G_0=1.0, m_0=1.0, m=1.0, K_t=1.0, f_m=0.0)
    g = build_rrc_gains(unit)
    assert (unit.omega, g.K_p, g.K_r, g.K_v) == (1.0, 1.0, 4.0, 4.0)


def test_feedback_row_structure(params, gains):
    expected = np.array([
        -gains.K_r * params.K_f,
        0.0,
        gains.K_p + gains.K_r * params.K_f,
        gains.K_v,
    ])
    assert np.array_equal(gains.K, expected)


def test_model_block_structure(params, gains, model):
    a = params.K_f / params.J_a
    b = gains.K_r * params.K_f
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-a, 0.0, a, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [b, 0.0, -b - gains.K_p, -gains.K_v],
    ])
    assert np.array_equal(model.A_m, expected)
    assert np.array_equal(model.B_m, [0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(model.B_um, np.eye(4)[:, :3])
    assert np.array_equal(model.c, [1.0, 0.0, 0.0, 0.0])


def test_closed_loop_is_open_loop_minus_feedback(params, gains, model):
    rebuilt = open_loop_matrix(params) - np.outer(model.B_m, gains.K)
    assert np.max(np.abs(rebuilt - model.A_m)) < 1e-12


def test_quadruple_pole(params, model):
    eig = np.linalg.eigvals(model.A_m)
    assert np.max(np.abs(eig + params.omega)) < 1e-3 * params.omega


def test_characteristic_polynomial_is_binomial_quartic(params, model):
    w = params.omega
    expected = np.array([1.0, 4 * w, 6 * w ** 2, 4 * w ** 3, w ** 4])
    _, got = transfer_from_state_space(model.A_m, model.B_m, model.c)
    assert np.max(np.abs(got - expected) / expected) < 1e-6


def test_feedforward_gain(gains, model):
    # oracle: direct numeric evaluation of -(c A_m^-1 B_m)^-1
    direct = -1.0 / float(model.c @ np.linalg.inv(model.A_m) @ model.B_m)
    assert model.K_g == pytest.approx(direct, rel=1e-12)
    assert model.K_g == pytest.approx(gains.K_p, rel=1e-9)


def test_input_stack_is_signed_permutation(model):
    assert abs(abs(np.linalg.det(model.b_stacked)) - 1.0) < 1e-12


def test_dc_tracking_normalization(model):
    h_m = transfer_from_state_space(model.A_m, model.B_m, model.c)
    assert model.K_g * _dc_gain(h_m) == pytest.approx(1.0, rel=1e-9)


def test_first_order_transfer():
    num, den = transfer_from_state_space(np.array([[-1.0]]), [1.0], [1.0])
    s = 1j * np.logspace(-2, 2, 20)
    assert np.allclose(np.polyval(num, s) / np.polyval(den, s), 1.0 / (s + 1.0), rtol=1e-12)


def test_matched_transfer_shape(gains, model):
    num, den = transfer_from_state_space(model.A_m, model.B_m, model.c)
    # relative degree 4: a constant numerator over the quartic
    assert len(np.trim_zeros(num, "f")) == 1 and len(den) == 5
    assert _dc_gain((num, den)) == pytest.approx(1.0 / gains.K_p, rel=1e-9)


def test_unmatched_transfer_dc(model):
    # oracle: resolvent evaluation at s = 0
    dc_direct = -float(model.c @ np.linalg.inv(model.A_m) @ model.B_um[:, 1])
    h_um1 = transfer_from_state_space(model.A_m, model.B_um[:, 1], model.c)
    assert _dc_gain(h_um1) == pytest.approx(dc_direct, rel=1e-9)


def test_transfer_matches_resolvent_on_frequency_grid(model):
    num, den = transfer_from_state_space(model.A_m, model.B_um[:, 2], model.c)
    for w in np.logspace(-1, 3, 17):
        s = 1j * w
        direct = model.c @ np.linalg.solve(s * np.eye(4) - model.A_m, model.B_um[:, 2])
        h = np.polyval(num, s) / np.polyval(den, s)
        assert abs(h - direct) / abs(direct) < 1e-8


class _Unchecked(PlantParams):
    """A plant that skips the constructor's checks, to reach the model's own."""

    def __post_init__(self):
        pass


def _past_the_plant_check(params, **extreme):
    # PlantParams refuses a ratio K_f / J_a that is 0 or not finite, and
    # names it; the model keeps its own checks behind that one
    fields = {**vars(params), **extreme}
    with pytest.raises(ValueError, match="K_f / J_a"):
        PlantParams(**fields)
    return _Unchecked(**fields)


def test_model_rejects_degenerate_feedback(params):
    # K_f / J_a underflows to 0, so every gain but K_r is 0 and K is the zero
    # row: the open-loop double integrator, which is not Hurwitz
    degenerate = _past_the_plant_check(params, K_f=1e-300, J_a=1e300)
    assert not build_rrc_gains(degenerate).K.any()
    with pytest.raises(ValueError, match="Hurwitz"):
        build_nominal_model(degenerate)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_model_overflow_is_a_linear_algebra_error(params):
    # K_f / J_a overflows to inf, 0 * inf puts nan in A_m, and the eigenvalue
    # solver refuses it
    with pytest.raises(np.linalg.LinAlgError):
        build_nominal_model(_past_the_plant_check(params, K_f=1e300, J_a=1e-300))


_decades = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=80, deadline=None)
@given(J_a=_decades, K_f=_decades.map(lambda k: 1e3 * k), m_0=_decades,
       G_0=st.floats(-1e3, 1e3))
def test_derived_model_keeps_what_the_adaptive_layer_relies_on(params, J_a, K_f, m_0, G_0):
    # the controller routes its held inputs by the fixed permutation, divides
    # by the one matched coefficient, and reads G_0 as the nominal gravity gain
    plant = replace(params, J_a=J_a, K_f=K_f, m_0=m_0, G_0=G_0)
    model = build_nominal_model(plant)
    assert model.b_stacked.tobytes() == np.eye(4)[:, [3, 0, 1, 2]].tobytes()
    nums, _ = transfer_from_state_space(model.A_m, model.b_stacked, model.c)
    assert len(np.trim_zeros(nums[0], "f")) == 1
    assert gravity_gain(plant, plant.m_0).hex() == plant.G_0.hex()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transfer_of_a_column_matrix_matches_each_column(model, seed):
    # unit input columns, as [B_m B_um] is: every product is exact, so one
    # pass over the matrix gives each column's numerator bit for bit
    rng = np.random.default_rng(seed)
    systems = [(model.A_m, model.b_stacked),
               (rng.standard_normal((5, 5)), np.eye(5)[:, rng.permutation(5)[:3]])]
    for A, B in systems:
        c = rng.standard_normal(len(A)) if A is not model.A_m else model.c
        nums, den = transfer_from_state_space(A, B, c)
        assert nums.shape == (B.shape[1], len(A) + 1)
        for j in range(B.shape[1]):
            num_j, den_j = transfer_from_state_space(A, B[:, j], c)
            assert num_j.shape == (len(A) + 1,)
            assert nums[j].tobytes() == num_j.tobytes() and den.tobytes() == den_j.tobytes()


def test_transfer_rejects_inconsistent_dimensions(model):
    for B in (np.ones(3), np.ones((3, 2)), np.ones((4, 1, 1))):
        with pytest.raises(ValueError):
            transfer_from_state_space(model.A_m, B, model.c)
