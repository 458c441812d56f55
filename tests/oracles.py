"""Reference implementations that only the tests use.

Dense direct solves and single-block helpers stand next to the codec's
batched production paths so the tests can check one against the other.
The Horn-Schunck flow is the classical baseline for Brox flow.
"""

from dataclasses import dataclass

import numpy as np

from hivc.entropy import DEFAULT_TABLE_LOG, EntropyError, FseTable, normalize_counts
from hivc.flow import FlowError, FlowField, _dx, _dy
from hivc.homogeneous import InpaintingError, laplacian
from hivc.prediction import decode_intra, encode_intra
from hivc.pseudodiff import BLOCK, block_grid, reconstruct_blocks, solve_block_coefficients_batch
from hivc.subdivision import leaf_means, paint_leaf_values

# ---------------------------------------------------------------------------
# Dense inpainting and Green's functions
# ---------------------------------------------------------------------------


def dense_laplacian(width: int, height: int) -> np.ndarray:
    """Dense 5-point reflecting-boundary Laplacian matrix (row-major pixels)."""
    n = width * height
    lap = np.zeros((n, n))
    for yy in range(height):
        for xx in range(width):
            i = yy * width + xx
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ny, nx = yy + dy, xx + dx
                if 0 <= ny < height and 0 <= nx < width:
                    lap[i, ny * width + nx] += 1.0
                    lap[i, i] -= 1.0
    return lap


def solve_dense(f: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct dense solve of the inpainting system (small planes only)."""
    f = np.asarray(f, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    h, w = f.shape
    n = h * w
    if n > 64 * 64:
        raise ValueError("dense solve limited to small planes")
    lap = dense_laplacian(w, h)
    m = mask.ravel().astype(np.float64)
    # M(u - f) - (I - M) A u = 0 with A = -L  =>  (M + (I - M) L) u = M f
    system = np.diag(m) + (np.eye(n) - np.diag(m)) @ lap
    rhs = m * f.ravel()
    u = np.linalg.solve(system, rhs)
    return u.reshape(h, w)


def apply_inpainting_operator(u: np.ndarray, mask: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Residual of the inpainting equation: u - f on the mask, Laplacian off it."""
    if u.shape != f.shape or u.shape != mask.shape:
        raise InpaintingError("plane/mask shape mismatch")
    if not mask.any():
        raise InpaintingError("empty inpainting mask")
    return np.where(mask, u - f, laplacian(u))


def greens_matrix_dense(width: int, height: int) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of -L, computed without the DCT."""
    if width * height > 256:
        raise ValueError("dense Green's matrix limited to 256 pixels")
    return np.linalg.pinv(-dense_laplacian(width, height))


@dataclass(frozen=True)
class BlockCoefficients:
    """Green's-function weights of one 8x8 block: K coefficients plus a constant."""

    mask: np.ndarray  # 8x8 bool
    c: np.ndarray  # K coefficients, sum(c) == 0
    a: float


def solve_block_coefficients(f_block, mask, g=None) -> BlockCoefficients:
    """Single-block fit of the bordered system [[G_KK, 1], [1^T, 0]] [c; a] = [f_K; 0].

    `g` defaults to the pinv(-L) oracle, so the fit shares no code with
    the codec's batched solver.
    """
    g = greens_matrix_dense(BLOCK, BLOCK) if g is None else g
    pos = np.flatnonzero(mask.ravel())
    k = pos.size
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = g[np.ix_(pos, pos)]
    system[:k, k] = 1.0
    system[k, :k] = 1.0
    sol = np.linalg.solve(system, np.concatenate([f_block.ravel()[pos], [0.0]]))
    return BlockCoefficients(mask.copy(), sol[:k], float(sol[k]))


def reconstruct_block_dense(coeffs: BlockCoefficients, g=None) -> np.ndarray:
    """G M c + a with G = pinv(-L) from the dense oracle."""
    g = greens_matrix_dense(BLOCK, BLOCK) if g is None else g
    mc = np.zeros(BLOCK * BLOCK)
    mc[np.flatnonzero(coeffs.mask.ravel())] = coeffs.c
    return (g @ mc + coeffs.a).reshape(BLOCK, BLOCK)


def fit_and_reconstruct(f_block, mask):
    """One block through the codec's production fit and reconstruction."""
    c, a = solve_block_coefficients_batch(f_block[None], mask[None])
    mc = np.zeros((1, BLOCK * BLOCK))
    mc[0, np.flatnonzero(mask.ravel())] = c[0]
    return c[0], a[0], reconstruct_blocks(mc.reshape(1, BLOCK, BLOCK), a)[0]


def inpaint_plane_blockwise(residual, block_masks):
    """Independent per-tile fit and reconstruction of a plane.

    `block_masks` holds one 8x8 mask per tile in raster order, or None
    for a tile reconstructed as zero; edge tiles sit top-left in their
    8x8 block and are cropped afterwards.
    """
    h, w = residual.shape
    recon = np.zeros((h, w))
    for (y0, x0, bh, bw), mask in zip(block_grid(h, w), block_masks):
        if mask is None or not mask.any():
            continue
        fb = np.zeros((BLOCK, BLOCK))
        fb[:bh, :bw] = residual[y0 : y0 + bh, x0 : x0 + bw]
        recon[y0 : y0 + bh, x0 : x0 + bw] = fit_and_reconstruct(fb, mask)[2][:bh, :bw]
    return recon


# ---------------------------------------------------------------------------
# Prediction, subdivision and entropy references
# ---------------------------------------------------------------------------


def predict_intra(planes, luma_budget: int, levels: int):
    """Closed-loop intra prediction: encode, then decode our own payload."""
    payload = encode_intra(planes, luma_budget, levels)
    shape = np.asarray(planes[0]).shape
    pred, consumed = decode_intra(payload, 0, shape, len(planes), levels)
    assert consumed == len(payload)
    return pred, payload


def piecewise_constant_from_tree(tree, plane) -> np.ndarray:
    """Region-average approximation of `plane` on the tree's leaves."""
    return paint_leaf_values(tree, leaf_means(tree, plane))


def fse_build_table(histogram, table_log: int = DEFAULT_TABLE_LOG) -> FseTable:
    return FseTable(normalize_counts(histogram, table_log), table_log)


def from_category(category: int, extra: int) -> int:
    """Scalar inverse of entropy.to_category; reference for the vectorized decode."""
    if category == 0:
        return 0
    if category > 16:
        raise EntropyError(f"bad category {category}")
    half = 1 << (category - 1)
    if extra >= half:
        return extra
    return extra - (1 << category) + 1


# ---------------------------------------------------------------------------
# Flow baseline
# ---------------------------------------------------------------------------


def flow_horn_schunck(
    frame_t: np.ndarray, frame_prev: np.ndarray, alpha: float = 15.0, iterations: int = 400
) -> FlowField:
    """Classical quadratic-penalty flow, Jacobi iterations on the
    Euler-Lagrange equations."""
    im1 = np.asarray(frame_t, dtype=np.float64)
    im2 = np.asarray(frame_prev, dtype=np.float64)
    if im1.shape != im2.shape:
        raise FlowError("frame shape mismatch")
    if not (np.isfinite(im1).all() and np.isfinite(im2).all()):
        raise FlowError("non-finite input planes")
    fx = 0.5 * (_dx(im1) + _dx(im2))
    fy = 0.5 * (_dy(im1) + _dy(im2))
    ft = im2 - im1
    u = np.zeros_like(im1)
    v = np.zeros_like(im1)
    kernel_avg = np.array([[1 / 12, 1 / 6, 1 / 12], [1 / 6, 0, 1 / 6], [1 / 12, 1 / 6, 1 / 12]])

    def local_avg(a):
        p = np.pad(a, 1, mode="edge")
        out = np.zeros_like(a)
        for dy in range(3):
            for dx in range(3):
                k = kernel_avg[dy, dx]
                if k:
                    out += k * p[dy : dy + a.shape[0], dx : dx + a.shape[1]]
        return out

    denom = alpha * alpha + fx * fx + fy * fy
    for _ in range(iterations):
        ua = local_avg(u)
        va = local_avg(v)
        common = (fx * ua + fy * va + ft) / denom
        u = ua - fx * common
        v = va - fy * common
    return FlowField(u, v)
