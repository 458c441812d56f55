"""Block-based pseudodifferential inpainting.

The harmonic inpainting solution of an 8x8 block is a weighted sum of
discrete Green's functions at the mask points plus a constant:
u = G M c + a, where G is the Moore-Penrose pseudo-inverse of the
negated reflecting-boundary Laplacian, M scatters the K weights c onto
the mask pixels, and a is the constant. G is diagonalized by the
orthonormal 2-D DCT-II, so the 64x64 matrix is built once from that
eigendecomposition: G = C^T diag(lambda) C, with C the 2-D DCT and
lambda the reciprocal Laplacian eigenvalues (zero for the constant
mode). Encoder and decoder share this one matrix; a batch of blocks is
reconstructed as a single matrix product, of the decoder's dead-zone
indices (|index| <= 127) and G in whole numbers of 2**-41. No row of |G|
sums past 10.675, so every partial sum is an integer below 2**53 / 3,
exact in any order: a block decodes to the same floats under any BLAS
kernel, SIMD path, thread count or grouping of blocks.

The encoder obtains the weights c and the constant a from the
bordered (K+1) x (K+1) system over the K mask points: the K x K
submatrix of G, a ones row/column, and a zero corner; the side
condition sum(c) = 0 removes the constant null-space mode.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

BLOCK = 8
# rows per residual product: 63 x 64 x 64 multiply-adds stay below the
# 4 x 65536 at which OpenBLAS runs a GEMM on more than one thread
GEMM_ROWS = 63
# G's entries as whole numbers: round(G * 2**GREENS_SHIFT)
GREENS_SHIFT = 41


def _dct_matrix_1d() -> np.ndarray:
    """Exact orthonormal DCT-II matrix of size 8."""
    k = np.arange(8)[:, None]
    n = np.arange(8)[None, :]
    c = np.cos(np.pi * (2 * n + 1) * k / 16.0)
    c[0, :] *= math.sqrt(1.0 / 8.0)
    c[1:, :] *= math.sqrt(2.0 / 8.0)
    return c


def greens_eigenvalues_harmonic() -> np.ndarray:
    """Eigenvalues of G = pinv(-L) on an 8x8 block under the DCT-II basis.

    The 1-D reflecting second-difference matrix has DCT-II eigenvalues
    2 - 2cos(p pi / 8); the 2-D Laplacian eigenvalues are the sums, and
    the pseudo-inverse takes reciprocals with the constant mode zeroed.
    """
    p = 2.0 - 2.0 * np.cos(np.pi * np.arange(8) / 8.0)
    mu = p[:, None] + p[None, :]
    lam = np.zeros((8, 8))
    lam[mu > 0] = 1.0 / mu[mu > 0]
    return lam


@lru_cache(maxsize=1)
def _greens_block_matrix() -> np.ndarray:
    """64x64 Green's matrix of the 8x8 block (row-major pixel order)."""
    c2 = np.kron(_dct_matrix_1d(), _dct_matrix_1d())
    lam = greens_eigenvalues_harmonic().reshape(-1)
    g = (c2.T * lam) @ c2
    g.flags.writeable = False  # one cached array serves every caller
    return g


def solve_block_coefficients_batch(f_blocks: np.ndarray, masks: np.ndarray):
    """Fit weights so each reconstruction interpolates f at its mask points.

    Solves [[G_KK, 1], [1^T, 0]] [c; a] = [f_K; 0] for blocks sharing one
    mask point count K. f_blocks: (n, 8, 8), masks: (n, 8, 8) bool with
    identical popcount. Returns (c: (n, K) in raster order of the mask
    points, a: (n,)).
    """
    n = f_blocks.shape[0]
    flat_masks = masks.reshape(n, 64)
    k = int(flat_masks[0].sum())
    g = _greens_block_matrix()
    pos = np.argwhere(flat_masks)[:, 1].reshape(n, k)
    systems = np.empty((n, k + 1, k + 1))
    systems[:, :k, :k] = g[pos[:, :, None], pos[:, None, :]]
    systems[:, :k, k] = 1.0
    systems[:, k, :k] = 1.0
    systems[:, k, k] = 0.0
    rhs = np.empty((n, k + 1))
    rhs[:, :k] = np.take_along_axis(f_blocks.reshape(n, 64), pos, axis=1)
    rhs[:, k] = 0.0
    sol = np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
    return sol[:, :k], sol[:, k]


@lru_cache(maxsize=1)
def _greens_whole_t() -> np.ndarray:
    """G^T in whole numbers of 2**-GREENS_SHIFT."""
    # G is symmetric only to rounding, so the transpose is what G M c needs
    g = np.rint(np.ldexp(_greens_block_matrix().T, GREENS_SHIFT))
    g.flags.writeable = False
    return g


def reconstruct_blocks(w: np.ndarray, a: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """u = scale * G M w + a for scattered weight blocks (n, 8, 8) and
    constants (n,). With integer w, as the decoder's indices, the product
    is exact and only the elementwise scaling rounds; for float w, the
    whole-number G is within 2**-42 of G per entry. The product runs
    GEMM_ROWS blocks at a time, which keeps OpenBLAS on one thread.
    """
    n = w.shape[0]
    g_t = _greens_whole_t()
    flat = w.reshape(n, BLOCK * BLOCK)
    u = np.empty((n, BLOCK * BLOCK))
    for start in range(0, n, GEMM_ROWS):
        np.matmul(flat[start : start + GEMM_ROWS], g_t, out=u[start : start + GEMM_ROWS])
    u *= math.ldexp(scale, -GREENS_SHIFT)
    u += a[:, None]
    return u.reshape(n, BLOCK, BLOCK)
