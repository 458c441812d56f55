import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.quantize import (
    COEFF_BOUND,
    QuantizeError,
    coefficient_scale,
    deadzone_dequantize,
    deadzone_quantize,
    deadzone_step,
    map_coefficients,
    uniform_dequantize,
    uniform_quantize,
    unmap_coefficients,
)


def test_map_zero_is_zero():
    assert map_coefficients(np.array([0.0]), 3.0).tolist() == [0.0]


def test_map_clamps_to_bound():
    out = map_coefficients(np.array([5.0, -5.0]), 1.0)
    assert out.tolist() == [COEFF_BOUND, -COEFF_BOUND]


def test_map_scale_hits_endpoint():
    c = np.array([2.0])
    s = coefficient_scale(c)
    assert map_coefficients(np.array([s]), s).tolist() == [COEFF_BOUND]


def test_map_unmap_round_trip_for_unclipped():
    rng = np.random.default_rng(0)
    c = rng.uniform(-10, 10, 500)
    s = coefficient_scale(c)
    back = unmap_coefficients(map_coefficients(c, s), s)
    inside = np.abs(c) <= s
    assert np.allclose(back[inside], c[inside], atol=1e-9)


def test_coefficient_scale_rejects_empty():
    with pytest.raises(QuantizeError):
        coefficient_scale(np.zeros(0))


def test_deadzone_zero_anchor():
    for levels in range(3, 256, 2):
        idx = deadzone_quantize(np.array([0.0]), levels)
        assert idx.tolist() == [0]
        assert deadzone_dequantize(idx, levels).tolist() == [0.0]


def test_deadzone_floor_semantics():
    step = deadzone_step(127)
    assert step == pytest.approx(127.0 / 63.0)
    idx = deadzone_quantize(np.array([126.9]), 127)
    assert idx.tolist() == [62]
    assert deadzone_dequantize(idx, 127)[0] == pytest.approx(62 * step)


def test_deadzone_negative_step_and_half():
    step = deadzone_step(127)
    idx = deadzone_quantize(np.array([-1.5 * step]), 127)
    assert idx.tolist() == [-1]
    assert deadzone_dequantize(idx, 127)[0] == pytest.approx(-step)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-127.0, 127.0, allow_nan=False),
    st.integers(1, 126),
)
def test_deadzone_symmetry_and_contraction(x, half_levels):
    levels = 2 * half_levels + 1
    xq = float(deadzone_dequantize(deadzone_quantize(np.array([x]), levels), levels)[0])
    nq = float(deadzone_dequantize(deadzone_quantize(np.array([-x]), levels), levels)[0])
    assert nq == -xq
    assert abs(xq) <= abs(x) + 1e-12


def test_uniform_endpoints():
    assert uniform_quantize(np.array([0.0]), 0.0, 255.0, 256).tolist() == [0]
    assert uniform_quantize(np.array([255.0]), 0.0, 255.0, 256).tolist() == [255]


def test_uniform_identity_on_integers_256_levels():
    x = np.arange(256, dtype=np.float64)
    idx = uniform_quantize(x, 0.0, 255.0, 256)
    back = uniform_dequantize(idx, 0.0, 255.0, 256)
    assert np.array_equal(back, x)


def test_uniform_error_bound():
    rng = np.random.default_rng(1)
    x = rng.uniform(-3.0, 9.0, 1000)
    for levels in (2, 5, 33, 256):
        idx = uniform_quantize(x, -3.0, 9.0, levels)
        back = uniform_dequantize(idx, -3.0, 9.0, levels)
        assert np.max(np.abs(back - x)) <= 12.0 / (2 * (levels - 1)) + 1e-12


def test_dequantizers_reject_an_index_outside_their_range():
    # 63 dead-zone levels hold -31..31; 16 uniform levels hold 0..15
    assert deadzone_dequantize(np.array([-31, 0, 31]), 63).tolist() == [-127.0, 0.0, 127.0]
    for bad in (-32, 32, 30000):
        with pytest.raises(QuantizeError, match=f"index {bad} of 63 levels"):
            deadzone_dequantize(np.array([0, bad]), 63)
    assert uniform_dequantize(np.array([0, 15]), 0.0, 15.0, 16).tolist() == [0.0, 15.0]
    for bad in (-1, 16):
        with pytest.raises(QuantizeError, match=f"index {bad} of 16 levels"):
            uniform_dequantize(np.array([bad, 3]), 0.0, 15.0, 16)
