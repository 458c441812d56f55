import math

import numpy as np
import pytest

from hivc.homogeneous import (
    COARSEST_SIZE,
    InpaintingError,
    _dot,
    _masked_cg,
    _restrict_values,
    bilinear_resize,
    laplacian,
    mask_pyramid,
    solve_dtype,
    solve_homogeneous,
)
from hivc.prediction import INTRA_SOLVE_TOL
from oracles import apply_inpainting_operator, dense_laplacian, solve_dense


def test_laplacian_annihilates_constants():
    assert np.allclose(laplacian(np.full((9, 7), 42.0)), 0.0)


def test_laplacian_matches_dense_matrix():
    rng = np.random.default_rng(0)
    for (h, w) in ((1, 1), (1, 5), (4, 1), (3, 3), (5, 7)):
        u = rng.standard_normal((h, w))
        dense = dense_laplacian(w, h)
        assert np.allclose(laplacian(u).ravel(), dense @ u.ravel(), atol=1e-12)


def _laplacian_by_slices(u):
    """The stencil as one shifted 2-D slice per neighbor."""
    out = u * -4.0
    out[1:, :] += u[:-1, :]
    out[0, :] += u[0, :]
    out[:-1, :] += u[1:, :]
    out[-1, :] += u[-1, :]
    out[:, 1:] += u[:, :-1]
    out[:, 0] += u[:, 0]
    out[:, :-1] += u[:, 1:]
    out[:, -1] += u[:, -1]
    return out


def test_laplacian_bit_identical_to_slice_stencil():
    rng = np.random.default_rng(7)
    for (h, w) in ((1, 1), (1, 6), (6, 1), (2, 3), (17, 33)):
        u = rng.standard_normal((h, w)) * 1e3
        ref = _laplacian_by_slices(u).tobytes()
        assert laplacian(u).tobytes() == ref
        assert laplacian(np.asfortranarray(u)).tobytes() == ref
        out = np.empty((h, w))
        assert laplacian(u, out) is out
        assert out.tobytes() == ref


def test_dense_laplacian_row_sums_zero():
    dense = dense_laplacian(6, 4)
    assert np.allclose(dense.sum(axis=1), 0.0)
    assert np.allclose(dense, dense.T)


def test_operator_residual_zero_for_constant():
    f = np.full((5, 5), 3.0)
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 3] = True
    r = apply_inpainting_operator(f, mask, f)
    assert np.allclose(r, 0.0)


def test_operator_full_mask_is_difference():
    rng = np.random.default_rng(1)
    u = rng.standard_normal((4, 6))
    f = rng.standard_normal((4, 6))
    mask = np.ones((4, 6), dtype=bool)
    assert np.allclose(apply_inpainting_operator(u, mask, f), u - f)


def test_operator_impulse_matches_dense_assembly():
    # Center pixel masked, u = f = impulse at center: the mask row gives
    # u - f = 0 there, the off-mask rows give (L u).
    u = np.zeros((3, 3))
    u[1, 1] = 1.0
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    r = apply_inpainting_operator(u, mask, u)
    dense_l = dense_laplacian(3, 3)
    m = mask.ravel().astype(np.float64)
    oracle = m * (u.ravel() - u.ravel()) + (1.0 - m) * (dense_l @ u.ravel())
    assert np.allclose(r.ravel(), oracle, atol=1e-12)


def test_operator_rejects_empty_mask():
    f = np.zeros((3, 3))
    with pytest.raises(InpaintingError):
        apply_inpainting_operator(f, np.zeros((3, 3), dtype=bool), f)


def test_solve_full_mask_is_copy():
    # every level's mask is full, so no level makes an update
    rng = np.random.default_rng(2)
    for shape, sizes in (((10, 10), [100]), ((40, 60), [150, 600, 2400])):
        f = rng.uniform(0, 255, shape)
        for tol in (1e-9, INTRA_SOLVE_TOL):
            stats = {}
            u = solve_homogeneous(f, np.ones(shape, dtype=bool), tol=tol, stats=stats)
            assert np.array_equal(u, f)
            assert stats["level_iterations"] == [(n, 0) for n in sizes]


@pytest.mark.parametrize("tol", [1e-9, INTRA_SOLVE_TOL])
def test_solve_never_reads_f_off_the_mask(tol):
    rng = np.random.default_rng(12)
    f = rng.uniform(0, 255, (45, 70))
    mask = rng.uniform(size=f.shape) < 0.08
    stats_random, stats_zero = {}, {}
    u = solve_homogeneous(f, mask, tol=tol, stats=stats_random)
    zeroed = solve_homogeneous(np.where(mask, f, 0.0), mask, tol=tol, stats=stats_zero)
    assert u.tobytes() == zeroed.tobytes()
    assert stats_random == stats_zero


def test_solve_single_point_gives_constant():
    f = np.zeros((12, 9))
    f[5, 4] = 77.0
    mask = np.zeros((12, 9), dtype=bool)
    mask[5, 4] = True
    u = solve_homogeneous(f, mask)
    assert np.allclose(u, 77.0, atol=1e-3)


def test_solve_two_corners_matches_dense():
    f = np.zeros((8, 8))
    f[7, 7] = 255.0
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = True
    mask[7, 7] = True
    u = solve_homogeneous(f, mask, tol=1e-8)
    ref = solve_dense(f, mask)
    rms = float(np.sqrt(np.mean((u - ref) ** 2)))
    assert rms <= 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dot_is_the_exact_sum_to_the_dtype_s_rounding(dtype):
    # pairwise summation errs by about log2(n) roundings of the sum of |a * b|
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-255, 255, (2, 144, 336)).astype(dtype)
    exact = math.fsum((a.astype(np.float64) * b.astype(np.float64)).ravel())
    bound = 32 * np.finfo(dtype).eps * float(np.sum(np.abs(a.astype(np.float64) * b)))
    assert abs(_dot(a, b, np.empty_like(a)) - exact) <= bound


def _grid_mask(h, w):
    mask = np.zeros((h, w), dtype=bool)
    mask[::5] = True
    mask[:, ::7] = True
    return mask


@pytest.mark.parametrize("tol", [1e-6, INTRA_SOLVE_TOL])
def test_exact_initial_guess_costs_no_iteration(tol):
    # a constant plane is its own solution on every level, from the
    # coarsest level's mean to each prolongation, so no level updates it
    f = np.full((40, 60), 100.0)
    stats = {}
    u = solve_homogeneous(f, _grid_mask(40, 60), tol=tol, stats=stats)
    assert stats["level_iterations"] == [(150, 0), (600, 0), (2400, 0)]
    assert np.array_equal(u, f)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cg_counts_only_the_updates_it_makes(dtype):
    f = np.full((40, 60), 100.0, dtype=dtype)
    mask = _grid_mask(40, 60)
    interior = (~mask).astype(dtype)
    u, it = _masked_cg(f, mask, interior, f, 1e-12, 50, finest=True)
    assert it == 0 and np.array_equal(u, f)
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 255, (40, 60)).astype(dtype)
    _, it = _masked_cg(f, mask, interior, np.zeros_like(f), 0.0, 3, finest=True)
    assert it == 3


def test_tight_tolerance_returns_float64_mask_values_exactly():
    # values float32 cannot hold stay exact on the mask
    rng = np.random.default_rng(10)
    f = rng.uniform(0, 255, (30, 50)) + 1e-9
    mask = rng.uniform(size=(30, 50)) < 0.1
    for tol in (1e-8, INTRA_SOLVE_TOL):
        u = solve_homogeneous(f, mask, tol=tol)
        assert u.dtype == np.float64
        assert np.array_equal(u[mask], f[mask])


def test_interpolation_and_maximum_principle():
    rng = np.random.default_rng(3)
    f = rng.uniform(0, 255, (24, 31))
    mask = rng.uniform(size=(24, 31)) < 0.08
    mask[0, 0] = True
    tol = 1e-6
    u = solve_homogeneous(f, mask, tol=tol)
    assert np.max(np.abs(u[mask] - f[mask])) <= 10 * tol * np.abs(f).max()
    eps = 1e-3
    assert u.min() >= f[mask].min() - eps
    assert u.max() <= f[mask].max() + eps


def _pyramid_levels(f, mask):
    """(plane, mask) per level of a float64 solve's pyramid, finest first."""
    pyramid = mask_pyramid(mask, np.float64)
    return list(zip(_restrict_values(f, pyramid), pyramid.masks))


def test_pyramid_level_shapes():
    f = np.zeros((32, 32))
    mask = np.zeros((32, 32), dtype=bool)
    mask[0, 0] = True
    levels = _pyramid_levels(f, mask)
    assert [lvl[0].shape for lvl in levels] == [(32, 32), (16, 16)]
    single = _pyramid_levels(np.zeros((16, 16)), np.ones((16, 16), dtype=bool))
    assert len(single) == 1


def test_pyramid_preserves_constants_and_masks():
    f = np.full((40, 28), 5.0)
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=(40, 28)) < 0.1
    mask[3, 3] = True
    for plane, coarse_mask in _pyramid_levels(f, mask):
        assert np.allclose(plane[coarse_mask], 5.0)
        assert coarse_mask.any()
        assert max(plane.shape) >= 1


def test_pyramid_mask_any_child_rule():
    mask = np.zeros((4, 4), dtype=bool)
    mask[1, 0] = True  # one child of coarse pixel (0, 0)
    f = np.zeros((4, 4))
    f[1, 0] = 8.0
    levels = _pyramid_levels(f, mask)
    # 4x4 stays a single level below the coarsest threshold.
    assert len(levels) == 1 or levels[-1][1][0, 0]


def _resize_four_tap(img, shape):
    """Bilinear resize evaluated as four gathers per output pixel."""
    h, w = shape
    ih, iw = img.shape
    ys = np.clip((np.arange(h) + 0.5) * (ih / h) - 0.5, 0, ih - 1)
    xs = np.clip((np.arange(w) + 0.5) * (iw / w) - 0.5, 0, iw - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, ih - 1)
    x1 = np.minimum(x0 + 1, iw - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    return (1 - wy) * ((1 - wx) * img[np.ix_(y0, x0)] + wx * img[np.ix_(y0, x1)]) + wy * (
        (1 - wx) * img[np.ix_(y1, x0)] + wx * img[np.ix_(y1, x1)]
    )


def test_bilinear_resize_bit_identical_to_four_tap():
    rng = np.random.default_rng(8)
    for src, dst in (((1, 1), (3, 2)), ((5, 3), (9, 6)), ((13, 26), (7, 13)), ((26, 60), (52, 120))):
        img = rng.uniform(0, 255, src)
        assert bilinear_resize(img, dst).tobytes() == _resize_four_tap(img, dst).tobytes()
    img = rng.uniform(0, 255, (4, 5))
    assert np.array_equal(bilinear_resize(img, (4, 5)), img)
    # a stack resamples each plane to its own floats
    stack = rng.uniform(-8, 8, (2, 13, 26))
    out = bilinear_resize(stack, (27, 51))
    assert out.shape == (2, 27, 51)
    for plane, resized in zip(stack, out):
        assert resized.tobytes() == bilinear_resize(plane, (27, 51)).tobytes()


def test_pyramid_level_bit_identical_to_reduceat_means():
    rng = np.random.default_rng(9)
    for (h, w) in ((33, 17), (40, 28), (17, 64)):
        f = rng.uniform(0, 255, (h, w))
        mask = rng.uniform(size=(h, w)) < 0.1
        idx_r, idx_c = np.arange(0, h, 2), np.arange(0, w, 2)

        def block_sum(a):
            return np.add.reduceat(np.add.reduceat(a, idx_r, axis=0), idx_c, axis=1)

        cnt = block_sum(mask.astype(np.float64))
        # the mean of the set children, 0 where none is set
        ref = block_sum(np.where(mask, f, 0.0)) / np.maximum(cnt, 1.0)
        coarse_f, coarse_mask = _pyramid_levels(f, mask)[1]
        assert np.array_equal(coarse_mask, cnt > 0)
        assert coarse_f.tobytes() == ref.tobytes()


def test_cascadic_matches_dense_sampled_sizes():
    rng = np.random.default_rng(6)
    for (h, w) in ((2, 2), (5, 3), (7, 7), (12, 11), (9, 12)):
        for _ in range(8):
            f = rng.uniform(0, 255, (h, w))
            mask = rng.uniform(size=(h, w)) < 0.3
            mask[rng.integers(h), rng.integers(w)] = True
            u = solve_homogeneous(f, mask, tol=1e-9)
            ref = solve_dense(f, mask)
            assert np.sqrt(np.mean((u - ref) ** 2)) <= 1e-5


def test_coarsest_size_constant():
    assert COARSEST_SIZE == 16


@pytest.mark.parametrize("tol", [1e-9, INTRA_SOLVE_TOL])
def test_shared_mask_pyramid_gives_the_same_floats(tol):
    rng = np.random.default_rng(13)
    mask = rng.uniform(size=(45, 70)) < 0.08
    pyramid = mask_pyramid(mask, solve_dtype(tol))
    for _ in range(2):
        f = rng.uniform(0, 255, mask.shape)
        alone, shared = {}, {}
        u = solve_homogeneous(f, mask, tol=tol, stats=alone)
        assert solve_homogeneous(f, mask, tol=tol, stats=shared, pyramid=pyramid).tobytes() == u.tobytes()
        assert alone == shared


def test_mask_pyramid_of_another_dtype_or_shape_is_refused():
    mask = np.zeros((20, 30), dtype=bool)
    mask[3, 4] = True
    f = np.zeros(mask.shape)
    with pytest.raises(InpaintingError):
        solve_homogeneous(f, mask, tol=1e-9, pyramid=mask_pyramid(mask, np.float32))
    with pytest.raises(InpaintingError):
        solve_homogeneous(f, mask, tol=1e-3, pyramid=mask_pyramid(mask.T, np.float32))

