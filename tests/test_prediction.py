import numpy as np
import pytest

from conftest import smooth_texture
from hivc.bitstream import Truncated
from hivc.flow import FlowField, bilinear_warp
from hivc.frame import Frame, psnr, rct_forward
from hivc.prediction import (
    chroma_budget,
    chroma_levels,
    decode_intra,
    encode_intra,
    predict_inter,
)
from oracles import predict_intra


def _yuv_planes(seed, h=32, w=32):
    rng = np.random.default_rng(seed)
    rgb = Frame(
        tuple(
            np.rint(smooth_texture(h, w, seed * 5 + c, sigma=2.0)).astype(np.int32)
            for c in range(3)
        )
    )
    del rng
    return [p.astype(np.float64) for p in rct_forward(rgb).planes]


def test_chroma_budget_half_rounded_up():
    assert chroma_budget(10, 1000) == 5
    assert chroma_budget(11, 1000) == 6
    assert chroma_budget(1, 1000) == 1


def test_chroma_budget_full_mask_stays_full():
    assert chroma_budget(1000, 1000) == 1000


def test_chroma_levels_cover_doubled_range():
    assert chroma_levels(256) == 511
    assert chroma_levels(3) == 5


def test_constant_frame_single_point_exact():
    planes = [np.full((16, 16), 80.0), np.full((16, 16), 5.0), np.full((16, 16), -4.0)]
    pred, payload = predict_intra(planes, luma_budget=1, levels=256)
    for got, want in zip(pred, planes):
        assert np.allclose(got, want, atol=0.51)
    assert len(payload) > 0


def test_intra_closed_loop_bit_identity():
    planes = _yuv_planes(1)
    pred, payload = predict_intra(planes, luma_budget=60, levels=256)
    again, consumed = decode_intra(payload, 0, planes[0].shape, 3, 256)
    assert consumed == len(payload)
    for a, b in zip(pred, again):
        assert np.array_equal(a, b)


def test_intra_prediction_range_stays_plausible():
    planes = _yuv_planes(2)
    pred, _ = predict_intra(planes, luma_budget=40, levels=256)
    # Stored values are optimized but box-projected to the source range,
    # so the harmonic interpolant stays inside it up to quantization.
    for got, orig in zip(pred, planes):
        assert got.min() >= orig.min() - 1.5
        assert got.max() <= orig.max() + 1.5
        err = np.sqrt(np.mean((got - orig) ** 2))
        assert err < np.sqrt(np.mean((orig - orig.mean()) ** 2))


def test_intra_budget_monotonicity_median():
    gains = []
    for seed in range(10):
        planes = _yuv_planes(seed + 10, 64, 64)
        planes[0][:, 32:] += 60.0  # step edge in luma
        planes[0] = np.clip(planes[0], 0, 255)
        lo, _ = predict_intra(planes, luma_budget=50, levels=256)
        hi, _ = predict_intra(planes, luma_budget=200, levels=256)

        def quality(pred):
            a = Frame(tuple(np.rint(p).astype(np.int32) for p in pred), colorspace="yuv")
            b = Frame(tuple(np.rint(p).astype(np.int32) for p in planes), colorspace="yuv")
            return psnr(a, b)

        gains.append(quality(hi) - quality(lo))
    assert float(np.median(gains)) >= 0.0


def test_intra_payload_truncation_reported():
    planes = _yuv_planes(3)
    payload = encode_intra(planes, 30, 256)
    with pytest.raises((Truncated, ValueError)):
        decode_intra(payload[: len(payload) // 3], 0, planes[0].shape, 3, 256)


def test_intra_rejects_bad_budget():
    with pytest.raises(ValueError):
        encode_intra(_yuv_planes(4), 0, 256)


def test_inter_zero_flow_is_identity():
    planes = _yuv_planes(5)
    zero = FlowField(np.zeros((32, 32)), np.zeros((32, 32)))
    pred = predict_inter(planes, zero)
    for a, b in zip(pred, planes):
        assert np.array_equal(a, b)


def test_inter_matches_per_plane_warp():
    planes = _yuv_planes(6)
    rng = np.random.default_rng(7)
    flow = FlowField(rng.uniform(-2, 2, (32, 32)), rng.uniform(-2, 2, (32, 32)))
    pred = predict_inter(planes, flow)
    for got, p in zip(pred, planes):
        assert np.allclose(got, bilinear_warp(p, flow.u, flow.v), atol=1e-12)
