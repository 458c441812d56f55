import numpy as np
import pytest

from conftest import moving_clip, smooth_texture
from hivc.bitstream import Truncated
from hivc.flow import FlowField, bilinear_warp
from hivc.frame import Frame, psnr, rct_forward
import oracles
from hivc import homogeneous, prediction
from hivc.codec import EncoderConfig, _to_yuv_planes
from hivc.prediction import (
    chroma_budget,
    chroma_levels,
    decode_intra,
    encode_intra,
    optimize_mask_values,
    predict_inter,
)
from hivc.subdivision import leaf_masks, subdivide_by_error
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


def test_intra_solve_tolerance_moves_the_planes_by_about_a_gray_level(monkeypatch):
    # The decoder stops each intra solve at INTRA_SOLVE_TOL. On frame 0
    # of the benchmark's all-intra clip (seed 11) at the default
    # settings, its planes were measured within 1.50 gray levels (RMS
    # 0.116) of a solve to 1e-10, with 7.3% of the pixels rounding
    # differently; the bounds are about twice that.
    frame = moving_clip(2, 144, 336, seed=11)[0]
    cfg = EncoderConfig()
    budget = round(cfg.intra_mask_fraction * frame.width * frame.height)
    payload = encode_intra(_to_yuv_planes(frame), budget, cfg.intra_levels)
    got, _ = decode_intra(payload, 0, (144, 336), 3, cfg.intra_levels)
    monkeypatch.setattr(prediction, "INTRA_SOLVE_TOL", 1e-10)
    monkeypatch.setattr(prediction, "INTRA_SOLVE_ITERS", 10000)
    exact, _ = decode_intra(payload, 0, (144, 336), 3, cfg.intra_levels)
    for a, b in zip(got, exact):
        err = a - b
        assert np.abs(err).max() <= 3.0
        assert np.sqrt(np.mean(err**2)) <= 0.25
        assert np.mean(np.rint(a) != np.rint(b)) <= 0.15


def test_intra_payload_truncation_reported():
    planes = _yuv_planes(3)
    payload = encode_intra(planes, 30, 256)
    with pytest.raises(Truncated):
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


# ---------------------------------------------------------------------------
# Tonal fit: interior factorization against the full-system LU oracle
# ---------------------------------------------------------------------------


def _random_mask(h, w, density, seed):
    mask = np.random.default_rng(seed).random((h, w)) < density
    mask.flat[seed % mask.size] = True
    return mask


def _cut_mask(h, w):
    """A full row and a full column of mask points: four interior parts
    that touch each other nowhere."""
    mask = np.zeros((h, w), dtype=bool)
    mask[h // 3, :] = True
    mask[:, w // 2] = True
    return mask


def _border_mask(h, w):
    mask = np.ones((h, w), dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


def _point_mask(h, w, y, x):
    mask = np.zeros((h, w), dtype=bool)
    mask[y, x] = True
    return mask


def _top_row_mask(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[0, :] = True
    return mask


# name -> (plane height, width, mask factory)
TONAL_MASKS = {
    "random-sparse": (23, 31, lambda h, w: _random_mask(h, w, 0.05, 1)),
    "random-dense": (23, 31, lambda h, w: _random_mask(h, w, 0.4, 2)),
    "random-wide": (12, 57, lambda h, w: _random_mask(h, w, 0.1, 3)),
    "single-point": (17, 19, lambda h, w: _point_mask(h, w, 5, 11)),
    "single-corner": (17, 19, lambda h, w: _point_mask(h, w, 0, 0)),
    "border": (20, 24, _border_mask),
    "top-row": (20, 24, _top_row_mask),
    "1xN": (1, 40, lambda h, w: _random_mask(h, w, 0.1, 4)),
    "1xN-one-point": (1, 40, lambda h, w: _point_mask(h, w, 0, 17)),
    "Nx1": (40, 1, lambda h, w: _random_mask(h, w, 0.1, 5)),
    "Nx1-ends": (40, 1, lambda h, w: _border_mask(h, w)),
    "cut": (24, 30, _cut_mask),
}


def _tonal_planes(h, w, count, seed):
    return [smooth_texture(h, w, seed + c, sigma=1.5) for c in range(count)]


# The fit solves its optimality system to TONAL_TOL, the full-system
# reference runs 12 LSQR steps on the exact operator. Under the exact
# operator the fit's error exceeded the reference's by at most 2.2e-5
# (relative) on these masks and 3.4e-6 on the bench frame's, and the
# exact optimum's by at most 1.8e-5, far inside this bound.
FIT_EPS = 1e-3


def _assert_fit_is_close_to_exact(planes, mask):
    got = optimize_mask_values(planes, mask)
    want = oracles.optimize_mask_values(planes, mask)
    assert len(got) == len(want) == len(planes)
    pts = prediction._mask_points(mask)
    samples = [p.ravel()[pts] for p in planes]
    fit, ref, raw = (oracles.inpainting_rms(planes, mask, v) for v in (got, want, samples))
    for a, plane, e_fit, e_ref, e_raw in zip(got, planes, fit, ref, raw):
        assert a.shape == (pts.size,)
        assert e_fit <= (1 + FIT_EPS) * e_ref
        assert e_fit <= e_raw
        assert plane.min() <= a.min() and a.max() <= plane.max()


@pytest.mark.parametrize("name", sorted(TONAL_MASKS))
@pytest.mark.parametrize("nplanes", [1, 2])
def test_tonal_fit_matches_full_system_oracle(name, nplanes):
    h, w, make = TONAL_MASKS[name]
    _assert_fit_is_close_to_exact(_tonal_planes(h, w, nplanes, seed=len(name)), make(h, w))


def test_tonal_fit_matches_oracle_on_bench_frame_masks(bench_clip):
    y, u, v = [p.astype(np.float64) for p in _to_yuv_planes(bench_clip[0])]
    budget = int(round(0.09 * y.size))
    _, leaves_y = subdivide_by_error([y], budget)
    _, leaves_c = subdivide_by_error([u, v], chroma_budget(budget, u.size))
    mask_y, mask_c = leaf_masks([leaves_y, leaves_c], y.shape)
    _assert_fit_is_close_to_exact([y], mask_y)
    _assert_fit_is_close_to_exact([u, v], mask_c)


@pytest.mark.parametrize("name", sorted(TONAL_MASKS))
def test_tonal_fit_matches_scipy_lsqr_on_the_same_operator(name):
    # The fit's stored values minimise ||M v - f|| over v, with M the
    # exact inpainting operator: SciPy's lsqr run to convergence on that
    # operator, boxed as the fit is, fits each plane as well
    h, w, make = TONAL_MASKS[name]
    mask = make(h, w)
    planes = _tonal_planes(h, w, 2, seed=len(name))
    got = optimize_mask_values(planes, mask)
    fit, opt = (oracles.inpainting_rms(planes, mask, v) for v in (got, oracles.optimal_mask_values(planes, mask)))
    for e_fit, e_opt in zip(fit, opt):
        assert abs(e_fit - e_opt) <= FIT_EPS * e_opt


def test_tonal_fit_makes_no_diffusion_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tonal fit ran a diffusion solve")

    monkeypatch.setattr(homogeneous, "solve_homogeneous", refuse)
    monkeypatch.setattr(prediction, "solve_homogeneous", refuse)
    y, u, v = _yuv_planes(8)
    optimize_mask_values([y], _random_mask(32, 32, 0.05, 7))
    optimize_mask_values([u, v], _random_mask(32, 32, 0.1, 9))
    with pytest.raises(AssertionError, match="diffusion solve"):
        decode_intra(encode_intra([y, u, v], 60, 256), 0, (32, 32), 3, 256)


def test_tonal_fit_full_mask_returns_samples():
    planes = _tonal_planes(9, 13, 2, seed=6)
    mask = np.ones((9, 13), dtype=bool)
    got = optimize_mask_values(planes, mask)
    for a, b, p in zip(got, oracles.optimize_mask_values(planes, mask), planes):
        assert np.array_equal(a, p.ravel())
        assert np.array_equal(a, b)


def _interior_bound(mask):
    """1 / the smallest eigenvalue of -L_II: how far an interior residual
    of norm 1 can put a solve from the exact solution."""
    h, w = mask.shape
    inner = ~mask.ravel()
    lap = oracles.dense_laplacian(w, h)
    return 1.0 / np.linalg.eigvalsh(-lap[np.ix_(inner, inner)])[0]


@pytest.mark.parametrize("name", sorted(TONAL_MASKS))
def test_tonal_fit_plane_is_the_inpainting_of_its_mask_values(name):
    # The fit's CG stops once B u = B f - B B^T lam, the interior rows of
    # L u, is at most TONAL_TOL ||B f||, so u lies within that times
    # 1 / lambda_min(-L_II) of the inpainting of its own mask values. The
    # factor 2 covers the float32 roundoff of the CG.
    h, w, make = TONAL_MASKS[name]
    mask = make(h, w)
    inner = ~mask.ravel()
    lap = oracles.dense_laplacian(w, h)
    interior = inner.reshape(h, w).astype(np.float32)
    work = np.empty((h, w), dtype=np.float32)
    for plane in _tonal_planes(h, w, 2, seed=len(name)):
        u = prediction._fitted_plane(plane, interior, work)
        exact = oracles.solve_dense(np.where(mask, u, 0.0), mask)
        bound = 0.0
        if not mask.all():
            bound = 2 * prediction.TONAL_TOL * np.linalg.norm((lap @ plane.ravel())[inner]) * _interior_bound(mask)
        assert np.linalg.norm(u - exact) <= bound + 1e-9


def test_intra_decode_builds_one_mask_pyramid_per_plane_group(monkeypatch):
    payload = encode_intra(_yuv_planes(8), 60, 256)
    built, calls = [], []
    real_pyramid, real_solve = homogeneous.mask_pyramid, prediction.solve_homogeneous

    def counting_pyramid(*args, **kwargs):
        built.append(1)
        return real_pyramid(*args, **kwargs)

    def recording_solve(f, mask, **kwargs):
        out = real_solve(f, mask, **kwargs)
        calls.append((f, mask, kwargs, out))
        return out

    monkeypatch.setattr(homogeneous, "mask_pyramid", counting_pyramid)
    monkeypatch.setattr(prediction, "solve_homogeneous", recording_solve)
    decode_intra(payload, 0, (32, 32), 3, 256)
    monkeypatch.undo()
    # one pyramid for the luma mask, one that U and V share
    assert len(built) == 2 and len(calls) == 3
    pyramids = [kwargs["pyramid"] for _, _, kwargs, _ in calls]
    assert pyramids[1] is pyramids[2] and pyramids[0] is not pyramids[1]
    # a shared pyramid gives the floats of a solve that builds its own
    for f, mask, kwargs, out in calls:
        del kwargs["pyramid"]
        assert out.tobytes() == real_solve(f, mask, **kwargs).tobytes()
