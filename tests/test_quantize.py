import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hivc.bitstream import CodecError
from hivc.quantize import (
    QuantizeError,
    coefficient_scale,
    deadzone_indices,
    deadzone_quantize,
    deadzone_step,
    uniform_dequantize,
    uniform_quantize,
)


def _dequantize(index, scale, levels):
    return deadzone_indices(index, levels) * deadzone_step(scale, levels)


def test_map_zero_is_zero():
    assert deadzone_quantize(np.array([0.0]), 3.0, 63).tolist() == [0]


def test_map_clamps_to_bound():
    # a value beyond the scale takes the outermost index at every level
    # count, including those (27, 53, 105, 209, 223) where 127 / (127 /
    # lmax) rounds below lmax
    for levels in range(3, 256, 2):
        lmax = (levels - 1) // 2
        out = deadzone_quantize(np.array([5.0, -5.0]), 1.0, levels)
        assert out.tolist() == [lmax, -lmax]


def test_map_scale_hits_endpoint():
    c = np.array([2.0])
    s = coefficient_scale(c)
    assert deadzone_quantize(np.array([s]), s, 255).tolist() == [127]


def test_map_unmap_round_trip_for_unclipped():
    rng = np.random.default_rng(0)
    c = rng.uniform(-10, 10, 500)
    s = coefficient_scale(c)
    back = _dequantize(deadzone_quantize(c, s, 255), s, 255)
    inside = np.abs(c) <= s
    assert np.all(np.abs(back[inside] - c[inside]) < deadzone_step(s, 255))


def test_coefficient_scale_rejects_empty():
    with pytest.raises(QuantizeError):
        coefficient_scale(np.zeros(0))


def test_deadzone_zero_anchor():
    for levels in range(3, 256, 2):
        idx = deadzone_quantize(np.array([0.0]), 1.0, levels)
        assert idx.tolist() == [0]
        assert _dequantize(idx, 1.0, levels).tolist() == [0.0]


def test_deadzone_floor_semantics():
    step = deadzone_step(127.0, 127)
    assert step == pytest.approx(127.0 / 63.0)
    idx = deadzone_quantize(np.array([126.9]), 127.0, 127)
    assert idx.tolist() == [62]
    assert _dequantize(idx, 127.0, 127)[0] == pytest.approx(62 * step)


def test_deadzone_negative_step_and_half():
    step = deadzone_step(127.0, 127)
    idx = deadzone_quantize(np.array([-1.5 * step]), 127.0, 127)
    assert idx.tolist() == [-1]
    assert _dequantize(idx, 127.0, 127)[0] == pytest.approx(-step)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(-127.0, 127.0, allow_nan=False),
    st.integers(1, 126),
)
def test_deadzone_symmetry_and_contraction(x, half_levels):
    levels = 2 * half_levels + 1
    xq = float(_dequantize(deadzone_quantize(np.array([x]), 127.0, levels), 127.0, levels)[0])
    nq = float(_dequantize(deadzone_quantize(np.array([-x]), 127.0, levels), 127.0, levels)[0])
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
    assert _dequantize(np.array([-31, 0, 31]), 127.0, 63).tolist() == [-127.0, 0.0, 127.0]
    for bad in (-32, 32, 30000):
        with pytest.raises(CodecError, match=f"index {bad} of 63 levels"):
            deadzone_indices(np.array([0, bad]), 63)
    assert uniform_dequantize(np.array([0, 15]), 0.0, 15.0, 16).tolist() == [0.0, 15.0]
    for bad in (-1, 16):
        with pytest.raises(CodecError, match=f"index {bad} of 16 levels"):
            uniform_dequantize(np.array([bad, 3]), 0.0, 15.0, 16)
