import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.ndimage import median_filter

import oracles
from conftest import moving_clip, shifted_pair, smooth_texture
from hivc.flow import (
    FlowError,
    FlowField,
    _dx,
    _dy,
    _median3x3,
    bilinear_warp,
    compress_flow,
    decompress_flow,
    flow_brox,
    warp_planes,
)
from oracles import flow_horn_schunck


def test_flow_field_validation():
    with pytest.raises(FlowError):
        FlowField(np.zeros((4, 4)), np.zeros((4, 5)))
    with pytest.raises(FlowError):
        FlowField(np.full((4, 4), np.nan), np.zeros((4, 4)))


def test_warp_identity_with_zero_flow():
    rng = np.random.default_rng(0)
    p = rng.uniform(0, 255, (20, 30))
    z = np.zeros((20, 30))
    assert np.array_equal(bilinear_warp(p, z, z), p)


def test_warp_integer_shift_with_clamping():
    p = np.arange(12, dtype=np.float64).reshape(3, 4)
    u = np.ones((3, 4))
    out = bilinear_warp(p, u, np.zeros((3, 4)))
    assert np.array_equal(out[:, :3], p[:, 1:])
    assert np.array_equal(out[:, 3], p[:, 3])


def test_warp_half_pixel_on_ramp():
    p = np.tile(np.arange(10, dtype=np.float64), (4, 1))
    out = bilinear_warp(p, np.full((4, 10), 0.5), np.zeros((4, 10)))
    assert np.allclose(out[:, :9], p[:, :9] + 0.5)


def test_warp_planes_matches_single_warps():
    rng = np.random.default_rng(1)
    planes = [rng.uniform(0, 255, (15, 17)) for _ in range(3)]
    u = rng.uniform(-2, 2, (15, 17))
    v = rng.uniform(-2, 2, (15, 17))
    multi = warp_planes(planes, u, v)
    for got, p in zip(multi, planes):
        assert np.allclose(got, bilinear_warp(p, u, v), atol=1e-12)


def test_warp_planes_bit_identical_to_four_tap_formula():
    rng = np.random.default_rng(3)
    h, w = 15, 17
    planes = [rng.uniform(0, 255, (h, w)), rng.integers(0, 256, (h, w))]
    u = rng.uniform(-4, 4, (h, w))
    v = rng.uniform(-4, 4, (h, w))
    yy, xx = np.mgrid[0:h, 0:w]
    xs = np.clip(xx + u, 0, w - 1)
    ys = np.clip(yy + v, 0, h - 1)
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    for got, p in zip(warp_planes(planes, u, v), planes):
        ref = (
            (1 - fy) * (1 - fx) * p[y0, x0]
            + (1 - fy) * fx * p[y0, x1]
            + fy * (1 - fx) * p[y1, x0]
            + fy * fx * p[y1, x1]
        )
        assert got.tobytes() == ref.tobytes()


def test_warp_linearity_in_source():
    rng = np.random.default_rng(2)
    a = rng.uniform(0, 1, (12, 12))
    b = rng.uniform(0, 1, (12, 12))
    u = rng.uniform(-1, 1, (12, 12))
    v = rng.uniform(-1, 1, (12, 12))
    lhs = bilinear_warp(2.0 * a + 3.0 * b, u, v)
    rhs = 2.0 * bilinear_warp(a, u, v) + 3.0 * bilinear_warp(b, u, v)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_brox_zero_motion_fixed_point():
    f = smooth_texture(64, 96, seed=3)
    flow = flow_brox(f, f)
    assert max(np.abs(flow.u).max(), np.abs(flow.v).max()) <= 0.05


def test_brox_global_shift_recovered():
    cur, prev = shifted_pair(96, 128, dx=2, dy=0, seed=4)
    flow = flow_brox(cur, prev)
    interior = (slice(5, -5), slice(5, -5))
    assert abs(flow.u[interior].mean() - 2.0) <= 0.2
    assert abs(flow.v[interior].mean()) <= 0.2


def test_brox_backward_warp_prediction_quality():
    cur, prev = shifted_pair(96, 128, dx=2, dy=1, seed=5)
    flow = flow_brox(cur, prev)
    pred = bilinear_warp(prev, flow.u, flow.v)
    err = (pred - cur)[8:-8, 8:-8]
    mse = float(np.mean(err * err))
    assert 10 * np.log10(255.0**2 / max(mse, 1e-12)) >= 35.0


@pytest.mark.parametrize(
    "pair",
    [
        # the benchmark's pan at 336x144: five pyramid levels
        lambda: [f.planes[0] for f in moving_clip(2, 144, 336, seed=11)][::-1],
        # odd sides on every level
        lambda: shifted_pair(29, 37, 1, 1, seed=4),
        # a single pyramid level
        lambda: shifted_pair(16, 16, 1, 0, seed=5),
        # one column or one row: the neighbour sums' edge repairs
        # cover every pixel of the stacked planes
        lambda: shifted_pair(8, 1, 0, 1, seed=6),
        lambda: shifted_pair(1, 8, 1, 0, seed=7),
        lambda: shifted_pair(1, 3, 1, 0, seed=8),
        lambda: shifted_pair(1, 1, 0, 0, seed=9),
    ],
    ids=["pan-336x144", "37x29", "16x16", "1x8", "8x1", "3x1", "1x1"],
)
def test_brox_bit_identical_to_plain_expression_oracle(pair):
    cur, prev = pair()
    fast = flow_brox(cur, prev)
    ref = oracles.flow_brox(cur, prev)
    assert fast.u.tobytes() == ref.u.tobytes()
    assert fast.v.tobytes() == ref.v.tobytes()


def test_brox_working_set_is_pinned_in_planes():
    # a fixed-point step works in the level's planes and builds none of
    # its own, and each level frees its planes when it ends: 32.9 float64
    # planes at 48x64 with float32 work planes, against 51.1 in float64
    # and 64 before that, so a return to float64 fails here
    cur, prev = shifted_pair(48, 64, 1, 1, seed=4)
    flow_brox(cur, prev)
    tracemalloc.start()
    try:
        flow_brox(cur, prev)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / cur.nbytes <= 36


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (1, 1), (2, 2), (13, 17)])
def test_median3x3_is_scipys_median_filter_byte_for_byte(shape, dtype):
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    stacks = [
        rng.standard_normal((2, *shape)),
        # ties
        rng.integers(-2, 3, (2, *shape)),
        # -0.0 beside nonzero values, and planes of -0.0 alone
        rng.choice([-0.0, -1.5, 2.0], (2, *shape)),
        np.full((2, *shape), -0.0),
    ]
    for x in stacks:
        x = x.astype(dtype)
        ref = median_filter(x, size=(1, 3, 3), mode="nearest")
        assert _median3x3(x).tobytes() == ref.tobytes()
        # in place, as flow_brox calls it
        assert _median3x3(x, out=x).tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_median3x3_of_mixed_signed_zeros_is_scipys_in_value(dtype):
    # where +0.0 and -0.0 tie at a window's median, SciPy's selection
    # picks the sign by the window's order and the network by its own;
    # every other output agrees byte for byte
    x = np.random.default_rng(3).choice([0.0, -0.0, 1.0, -1.0], (2, 11, 12)).astype(dtype)
    got = _median3x3(x)
    ref = median_filter(x, size=(1, 3, 3), mode="nearest")
    assert np.array_equal(got, ref)
    assert got[ref != 0].tobytes() == ref[ref != 0].tobytes()


def _checkerboard(h, w, cell):
    yy, xx = np.mgrid[0:h, 0:w]
    return 255.0 * ((yy // cell + xx // cell) % 2)


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (np.roll(_checkerboard(48, 64, 4), 5, axis=1), _checkerboard(48, 64, 4)),
        lambda: (np.full((16, 16), 255.0), np.zeros((16, 16))),
        lambda: (np.full((1, 1), 255.0), np.zeros((1, 1))),
        lambda: (_checkerboard(1, 8, 1), _checkerboard(1, 8, 1)[:, ::-1]),
    ],
    ids=["checkerboard-shift-5", "flat-255-vs-0", "1x1", "1x8"],
)
def test_brox_float32_stays_finite_and_silent_at_extreme_contrast(pair):
    cur, prev = pair()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flow = flow_brox(cur, prev)
    assert flow.u.dtype == flow.v.dtype == np.float64
    assert np.isfinite(flow.u).all() and np.isfinite(flow.v).all()
    assert max(np.abs(flow.u).max(), np.abs(flow.v).max()) <= max(cur.shape)


def test_derivative_along_an_axis_of_length_one_is_zero():
    ramp = np.arange(8.0)
    assert not _dx(ramp[:, None]).any() and not _dy(ramp[None, :]).any()
    assert np.array_equal(_dy(ramp[:, None]), np.ones((8, 1)))
    assert np.array_equal(_dx(ramp[None, :]), np.ones((1, 8)))
    assert not _dx(np.ones((1, 1))).any() and not _dy(np.ones((1, 1))).any()


def test_horn_schunck_identical_frames():
    f = smooth_texture(48, 48, seed=6)
    flow = flow_horn_schunck(f, f)
    assert max(np.abs(flow.u).max(), np.abs(flow.v).max()) <= 1e-6


def test_horn_schunck_global_shift():
    cur, prev = shifted_pair(96, 128, dx=1, dy=0, seed=7)
    flow = flow_horn_schunck(cur, prev)
    interior = (slice(5, -5), slice(5, -5))
    assert abs(flow.u[interior].mean() - 1.0) <= 0.3


def _two_object_pair(seed=8):
    h, w = 128, 128
    margin = 6
    tex_a = smooth_texture(h + 2 * margin, w + 2 * margin, seed, sigma=1.5)
    tex_b = smooth_texture(h + 2 * margin, w + 2 * margin, seed + 1, sigma=1.5)
    prev = np.zeros((h, w))
    cur = np.zeros((h, w))
    # Backward flow: left half has (u, v) = (2, 0), right half (0, 2).
    prev[:, : w // 2] = tex_a[margin : margin + h, margin : margin + w // 2]
    cur[:, : w // 2] = tex_a[margin : margin + h, margin + 2 : margin + 2 + w // 2]
    prev[:, w // 2 :] = tex_b[margin : margin + h, margin : margin + w // 2]
    cur[:, w // 2 :] = tex_b[margin + 2 : margin + 2 + h, margin : margin + w // 2]
    return cur, prev


def test_brox_beats_horn_schunck_on_two_objects():
    cur, prev = _two_object_pair()
    def pred_mse(flow):
        pred = bilinear_warp(prev, flow.u, flow.v)
        err = (pred - cur)[6:-6, 6:-6]
        return float(np.mean(err * err))

    assert pred_mse(flow_brox(cur, prev)) < pred_mse(flow_horn_schunck(cur, prev))


def test_brox_per_region_accuracy_on_two_objects():
    cur, prev = _two_object_pair(seed=9)
    flow = flow_brox(cur, prev)
    h, w = cur.shape
    left = (slice(8, h - 8), slice(8, w // 2 - 8))
    right = (slice(8, h - 8), slice(w // 2 + 8, w - 8))
    assert abs(flow.u[left].mean() - 2.0) <= 0.4
    assert abs(flow.v[left].mean()) <= 0.4
    assert abs(flow.u[right].mean()) <= 0.4
    assert abs(flow.v[right].mean() - 2.0) <= 0.4


def test_compress_zero_flow_exact_and_tiny():
    flow = FlowField(np.zeros((32, 48)), np.zeros((32, 48)))
    data = compress_flow(flow, points_budget=1, quant_levels=256)
    assert len(data) < 64
    back, pos = decompress_flow(data, 0, (32, 48), 256)
    assert pos == len(data)
    assert np.allclose(back.u, 0.0) and np.allclose(back.v, 0.0)


def test_compress_flow_far_from_zero_round_trips():
    # a constant flow, and two leaves 1e-5 px apart, far from zero: the
    # leaf means' quantizer range spans at least one whole pixel
    shape = (16, 24)
    const = FlowField(np.full(shape, 40.0), np.zeros(shape))
    back, pos = decompress_flow(compress_flow(const, 4, 256), 0, shape, 256)
    assert np.array_equal(back.u, const.u) and np.array_equal(back.v, const.v)
    u = np.full(shape, 1000.0)
    u[:, 12:] += 1e-5
    data = compress_flow(FlowField(u, np.zeros(shape)), 4, 256)
    back, pos = decompress_flow(data, 0, shape, 256)
    assert pos == len(data)
    assert np.max(np.abs(back.u - u)) <= 0.5 / 255 and not back.v.any()


def test_compress_piecewise_constant_flow_near_exact():
    u = np.zeros((16, 16))
    u[:, 8:] = 3.0
    flow = FlowField(u, np.zeros((16, 16)))
    data = compress_flow(flow, points_budget=2, quant_levels=256)
    back, _ = decompress_flow(data, 0, (16, 16), 256)
    assert np.max(np.abs(back.u - u)) <= 3.0 / 255 + 1e-9
    assert np.allclose(back.v, 0.0)


def test_compress_flow_budget_monotonicity():
    rng = np.random.default_rng(10)
    from scipy.ndimage import gaussian_filter

    u = gaussian_filter(rng.standard_normal((64, 64)), 6.0) * 20
    v = gaussian_filter(rng.standard_normal((64, 64)), 6.0) * 20
    flow = FlowField(u, v)

    def ssd(budget):
        data = compress_flow(flow, budget, 256)
        back, _ = decompress_flow(data, 0, (64, 64), 256)
        return float(((back.u - u) ** 2 + (back.v - v) ** 2).sum())

    assert ssd(128) < ssd(64)


def test_compress_flow_decode_is_deterministic():
    rng = np.random.default_rng(11)
    flow = FlowField(rng.uniform(-3, 3, (24, 24)), rng.uniform(-3, 3, (24, 24)))
    data = compress_flow(flow, 40, 256)
    a, _ = decompress_flow(data, 0, (24, 24), 256)
    b, _ = decompress_flow(data, 0, (24, 24), 256)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
