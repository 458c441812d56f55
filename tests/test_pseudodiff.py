import numpy as np
import pytest

from hivc.codec import _plan_group, _tiles
from hivc.pseudodiff import (
    BLOCK,
    _dct_matrix_1d,
    _greens_block_matrix,
    greens_eigenvalues_harmonic,
    reconstruct_blocks,
    solve_block_coefficients_batch,
)
from oracles import (
    block_grid,
    dense_laplacian,
    fit_and_reconstruct,
    greens_matrix_dense,
    inpaint_plane_blockwise,
    reconstruct_block_dense,
    solve_block_coefficients,
    solve_dense,
)


def _naive_dct2(x):
    n = 8
    c = np.zeros((n, n))
    for p in range(n):
        scale = np.sqrt(1.0 / n) if p == 0 else np.sqrt(2.0 / n)
        for i in range(n):
            c[p, i] = scale * np.cos(np.pi * (2 * i + 1) * p / (2 * n))
    return c @ x @ c.T


def _dct2(x):
    c = _dct_matrix_1d()
    return c @ x @ c.T


def _random_mask(rng, k):
    mask = np.zeros(64, dtype=bool)
    mask[rng.permutation(64)[:k]] = True
    return mask.reshape(8, 8)


def test_dct_constant_block_is_dc_only():
    out = _dct2(np.full((8, 8), 3.0))
    expect = np.zeros((8, 8))
    expect[0, 0] = 8 * 3.0
    assert np.allclose(out, expect, atol=1e-12)


def test_dct_zero_block():
    # zero weights and a zero constant decode to exact zeros
    assert not reconstruct_blocks(np.zeros((3, 8, 8)), np.zeros(3)).any()


def test_dct_matches_naive_definition_and_round_trips():
    rng = np.random.default_rng(0)
    c = _dct_matrix_1d()
    for _ in range(20):
        x = rng.standard_normal((8, 8))
        fwd = _dct2(x)
        assert np.max(np.abs(fwd - _naive_dct2(x))) <= 1e-10
        assert np.max(np.abs(c.T @ fwd @ c - x)) <= 1e-10


def test_harmonic_eigenvalues_against_dense_eigendecomposition():
    # The closed-form eigenvalues, through the matrix the codec builds
    # from them, must match an explicit pseudo-inverse of the dense operator.
    lam = greens_eigenvalues_harmonic()
    assert lam[0, 0] == 0.0
    assert np.all(lam.ravel()[1:] > 0.0)
    g = greens_matrix_dense(8, 8)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8))
    via_dct = reconstruct_blocks(x[None], np.zeros(1))[0]
    via_dense = (g @ x.ravel()).reshape(8, 8)
    assert np.max(np.abs(via_dct - via_dense)) <= 1e-8
    assert np.max(np.abs(_greens_block_matrix() - g)) <= 1e-8


def test_greens_dense_pseudo_inverse_identities_4x4():
    g = greens_matrix_dense(4, 4)
    neg_l = -dense_laplacian(4, 4)
    assert np.max(np.abs(g @ neg_l @ g - g)) <= 1e-8
    assert np.max(np.abs(neg_l @ g @ neg_l - neg_l)) <= 1e-8
    assert np.max(np.abs(g - g.T)) <= 1e-10
    assert np.max(np.abs(g.sum(axis=0))) <= 1e-8


def test_greens_dense_size_cap():
    with pytest.raises(ValueError):
        greens_matrix_dense(17, 17)


def test_single_point_solve_is_constant():
    f = np.zeros((8, 8))
    f[2, 5] = 42.0
    mask = np.zeros((8, 8), dtype=bool)
    mask[2, 5] = True
    c, a, rec = fit_and_reconstruct(f, mask)
    assert c.tolist() == [0.0]
    assert a == pytest.approx(42.0)
    assert np.allclose(rec, 42.0, atol=1e-9)


def test_full_mask_reconstructs_exactly():
    rng = np.random.default_rng(2)
    f = rng.uniform(-100, 100, (8, 8))
    _, _, rec = fit_and_reconstruct(f, np.ones((8, 8), dtype=bool))
    assert np.max(np.abs(rec - f)) <= 1e-8


def test_two_point_block_matches_dense_inpainting_solve():
    f = np.zeros((8, 8))
    f[7, 0] = 100.0
    mask = np.zeros((8, 8), dtype=bool)
    mask[0, 0] = True
    mask[7, 0] = True
    _, _, rec = fit_and_reconstruct(f, mask)
    ref = solve_dense(f, mask)
    assert np.sqrt(np.mean((rec - ref) ** 2)) <= 1e-6


def test_coefficients_sum_to_zero_and_interpolate():
    rng = np.random.default_rng(3)
    for _ in range(30):
        f = rng.uniform(-127, 127, (8, 8))
        mask = _random_mask(rng, int(rng.integers(1, 65)))
        c, _, rec = fit_and_reconstruct(f, mask)
        assert abs(c.sum()) <= 1e-8 * max(1.0, np.abs(c).max())
        assert np.max(np.abs(rec[mask] - f[mask])) <= 1e-6


def test_dct_path_equals_dense_path():
    # the codec's fit and reconstruction against a fit and G M c + a
    # that use only pinv(-L)
    rng = np.random.default_rng(4)
    g = greens_matrix_dense(8, 8)
    for _ in range(50):
        f = rng.uniform(-127, 127, (8, 8))
        mask = _random_mask(rng, int(rng.integers(1, 65)))
        _, _, rec = fit_and_reconstruct(f, mask)
        oracle = reconstruct_block_dense(solve_block_coefficients(f, mask, g), g)
        assert np.max(np.abs(rec - oracle)) <= 1e-8


def test_batch_solver_matches_single():
    rng = np.random.default_rng(5)
    k = 6
    n = 12
    blocks = rng.uniform(-50, 50, (n, 8, 8))
    masks = np.stack([_random_mask(rng, k) for _ in range(n)])
    c, a = solve_block_coefficients_batch(blocks, masks)
    for i in range(n):
        co = solve_block_coefficients(blocks[i], masks[i], _greens_block_matrix())
        assert np.allclose(c[i], co.c, atol=1e-10)
        assert a[i] == pytest.approx(co.a, abs=1e-10)


def test_batched_reconstruction_matches_single():
    rng = np.random.default_rng(6)
    n = 5
    mc = rng.standard_normal((n, 8, 8))
    a = rng.standard_normal(n)
    batched = reconstruct_blocks(mc, a)
    g = greens_matrix_dense(8, 8)
    for i in range(n):
        single = (g @ mc[i].ravel()).reshape(8, 8) + a[i]
        assert np.allclose(batched[i], single, atol=1e-12)


def test_constant_reconstruction_from_zero_coefficients():
    mc = np.zeros((1, 8, 8))
    out = reconstruct_blocks(mc, np.array([7.0]))
    assert np.allclose(out, 7.0, atol=1e-12)


def test_block_grid_covers_plane():
    # the oracle's tiles cover the plane once, and the codec's tile layout
    # holds the same tiles in the same order: the same (width, height),
    # and each tile's pixels at the top-left of its zero-padded block
    for h, w in ((20, 19), (13, 11), (29, 37), (7, 3), (16, 8), (1, 1)):
        tiles = block_grid(h, w)
        cover = np.zeros((h, w), dtype=np.int32)
        for (y0, x0, bh, bw) in tiles:
            cover[y0 : y0 + bh, x0 : x0 + bw] += 1
        assert np.array_equal(cover, np.ones_like(cover))

        padded, view, sizes = _tiles(h, w)
        assert sizes.tolist() == [[bw, bh] for _, _, bh, bw in tiles]
        plane = np.arange(1.0, h * w + 1).reshape(h, w)
        padded[0, :h, :w] = plane
        blocks = view.reshape(-1, BLOCK, BLOCK)
        assert len(blocks) == len(tiles)
        for block, (y0, x0, bh, bw) in zip(blocks, tiles):
            assert np.array_equal(block[:bh, :bw], plane[y0 : y0 + bh, x0 : x0 + bw])
            assert not block[bh:].any() and not block[:, bw:].any()


def test_blockwise_zero_plane_all_skip():
    rec = inpaint_plane_blockwise(np.zeros((16, 16)), [None] * 4)
    assert np.allclose(rec, 0.0)


def test_blockwise_constant_plane_single_point_each():
    mask = np.zeros((8, 8), dtype=bool)
    mask[4, 4] = True
    rec = inpaint_plane_blockwise(np.full((16, 16), 50.0), [mask] * 4)
    assert np.allclose(rec, 50.0, atol=1e-9)


def test_blockwise_matches_dense_oracle():
    rng = np.random.default_rng(8)
    plane = rng.uniform(-100, 100, (16, 16))
    masks = [_random_mask(rng, 4) for _ in range(4)]
    rec = inpaint_plane_blockwise(plane, masks)
    oracle = np.zeros((16, 16))
    for mask, (y0, x0, bh, bw) in zip(masks, block_grid(16, 16)):
        oracle[y0 : y0 + bh, x0 : x0 + bw] = solve_dense(plane[y0 : y0 + bh, x0 : x0 + bw], mask)
    assert np.sqrt(np.mean((rec - oracle) ** 2)) <= 1e-6


def test_block_independence():
    rng = np.random.default_rng(9)
    plane = rng.uniform(-100, 100, (16, 16))
    mask = np.zeros((8, 8), dtype=bool)
    mask[1, 1] = mask[6, 6] = True
    rec_a = inpaint_plane_blockwise(plane, [mask] * 4)
    mutated = plane.copy()
    mutated[:8, :8] += 25.0
    rec_b = inpaint_plane_blockwise(mutated, [mask] * 4)
    assert np.allclose(rec_a[:8, 8:], rec_b[:8, 8:])
    assert np.allclose(rec_a[8:, :], rec_b[8:, :])


def test_edge_tile_masks_stay_inside_true_pixels():
    # the codec embeds edge tiles top-left in an 8x8 block; its masks may
    # only mark true pixels, since the padding carries no residual
    rng = np.random.default_rng(10)
    plane = rng.integers(-20, 21, (13, 11))
    tiles = block_grid(13, 11)
    for points in (1, 4, 48):
        coded, _, masks, _ = _plan_group([plane], points)
        assert len(coded)
        for ti, mask in zip(coded, masks):
            _, _, bh, bw = tiles[ti]
            assert mask[:bh, :bw].sum() == min(points, bh * bw)
            assert not mask[bh:].any() and not mask[:, bw:].any()
